"""The package's BiCGStab against scipy's, which it must match bit for bit:
the step's outputs stay what they were when scipy solved the correction."""

import numpy as np
import pytest
import scipy.sparse.linalg

from mchks import spla

N = 40
_rng = np.random.default_rng(5)
# a nonsymmetric operator, and a Jacobi preconditioner that leaves work to do
A = 4.0 * np.eye(N) + _rng.standard_normal((N, N)) / np.sqrt(N)
JACOBI = 1.0 / np.diag(A)
B = _rng.standard_normal(N)


def _solve_both(b, precondition, **kwargs):
    """(x, info, callback iterates) from the package's solve, then scipy's."""
    out = []
    for solve, wrap in ((spla.bicgstab, lambda f: f),
                        (scipy.sparse.linalg.bicgstab,
                         lambda f: scipy.sparse.linalg.LinearOperator(
                             (N, N), matvec=f, dtype=np.float64))):
        iterates = []
        x, info = solve(wrap(A.dot), b.copy(), M=wrap(precondition),
                        callback=lambda xk: iterates.append(xk.copy()),
                        **kwargs)
        out.append((x, info, iterates))
    return out


def _exact(v):
    return np.linalg.solve(A, v)


@pytest.mark.parametrize("b, precondition, kwargs, info, calls", [
    (B, JACOBI.__mul__, {"rtol": 1e-12, "maxiter": 400}, 0, None),
    # the exact inverse converges at the first half step: no callback
    (B, _exact, {"rtol": 1e-8, "maxiter": 400}, 0, 0),
    (B, JACOBI.__mul__, {"rtol": 1e-12, "maxiter": 1}, 1, 1),
    (np.zeros(N), JACOBI.__mul__, {"rtol": 1e-12, "maxiter": 400}, 0, 0),
], ids=["converged", "half-step", "maxiter", "zero-rhs"])
def test_bicgstab_matches_scipy_bitwise(b, precondition, kwargs, info, calls):
    (x, got, iterates), (x_ref, info_ref, iterates_ref) = _solve_both(
        b, precondition, **kwargs)
    assert got == info_ref == info
    assert x.tobytes() == x_ref.tobytes()
    # one callback per full iteration, with scipy's iterates
    assert len(iterates) == len(iterates_ref)
    assert all(a.tobytes() == r.tobytes() for a, r in zip(iterates, iterates_ref))
    if calls is not None:
        assert len(iterates) == calls
    else:
        assert len(iterates) > 1
    if info == 0:
        assert np.linalg.norm(A @ x - b) <= kwargs["rtol"] * np.linalg.norm(b)


def test_bicgstab_counts_one_callback_per_full_iteration():
    # two matvecs per full iteration, one more when it ends at a half step
    matvecs, iterates = [], []

    def counted(v):
        matvecs.append(1)
        return A.dot(v)

    spla.bicgstab(counted, B, rtol=1e-12, maxiter=400, M=JACOBI.__mul__,
                  callback=iterates.append)
    assert len(matvecs) - 2 * len(iterates) in (0, 1)
