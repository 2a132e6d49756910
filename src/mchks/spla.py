"""The Krylov solver of the Cahn-Hilliard correction.

``bicgstab`` is preconditioned BiCGStab (van der Vorst, SISC 13, 1992) on
plain callables, doing scipy 1.17's ``scipy.sparse.linalg.bicgstab``
arithmetic in scipy's order, so that a step gives the same bits as it did
through scipy: the same absolute tolerance max(atol, rtol ||b||), the same
rho and omega breakdown codes, the same exit at the half step, and
``info = maxiter`` when the iteration limit is reached.  It leaves out
scipy's ``LinearOperator`` layer.  Importing this module loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

# scipy's rho and omega breakdown threshold, from the original Fortran code
_BREAKDOWN_TOL = np.finfo(np.float64).eps ** 2


def _norm(v):
    """np.linalg.norm of a 1-D float array, without its dispatch."""
    return math.sqrt(v.dot(v))


def bicgstab(A, b, *, rtol, atol=0.0, maxiter, M, callback=None):
    """Solve A x = b from x = 0, preconditioned by M; returns (x, info).

    A and M are callables on 1-D float arrays.  The solve stops when
    ||r|| < max(atol, rtol ||b||).  ``info`` is 0 on success, -10 or -11 on
    a rho or omega breakdown and ``maxiter`` when the limit is reached.
    ``callback(x)`` is called after each full iteration, not at a half-step
    exit.
    """
    bnrm2 = _norm(b)
    atol = max(float(atol), float(rtol) * bnrm2)
    if bnrm2 == 0:
        return b, 0
    x = np.zeros(len(b))
    r = b.copy()
    rtilde = r.copy()
    for iteration in range(maxiter):
        if _norm(r) < atol:
            return x, 0
        rho = rtilde.dot(r)
        if abs(rho) < _BREAKDOWN_TOL:
            return x, -10
        if iteration > 0:
            if abs(omega) < _BREAKDOWN_TOL:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = M(p)
        v = A(phat)
        rv = rtilde.dot(v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v
        # r is scipy's s here
        if _norm(r) < atol:
            x += alpha * phat
            return x, 0
        shat = M(r)
        t = A(shat)
        omega = t.dot(r) / t.dot(t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
        if callback:
            callback(x)
    return x, maxiter
