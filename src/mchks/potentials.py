"""Cell interaction potentials and their Moreau-Yosida regularization.

Four interaction potentials are supported: a smooth quartic double well, the
logarithmic (Flory-Huggins) double well, the double obstacle potential, and a
single-well potential of Lennard-Jones type.  Each one is split as

    F = convex part + concave perturbation,

where the convex part may be singular (finite only on a bounded interval) and
the perturbation always has a Lipschitz derivative.  ``Potential`` states
the protocol once.  ``slope_domain`` (default (0, 1)) is a variant's only
domain declaration: ``singular``, the ends that repel phi and the
admissible means are read from it and the convex slope.  The implicit
phase-field solver never evaluates the singular slope directly; it goes
through the Yosida approximation of the convex slope, which is Lipschitz
on the whole line.
Each variant owns its resolvent J = (I + eps * convex slope)^-1 and
the slope of its Yosida approximation (the graph corners of the obstacle and
single-well variants included); ``YosidaRegularization`` builds the Yosida
approximation and the Moreau envelope on top of them.  A
``ConvexEvaluation`` holds the convex part (regularized or exact) at one
array: slope, curvature (the derivative of the Yosida approximation, which
the Newton Jacobian reads) and density all read its one resolvent solve.
``ConvexEvaluation.at`` evaluates the same part at a nearby array and starts
that solve from its own tangent.  The quartic and Flory-Huggins resolvents
share one safeguarded Newton solve, started from r (logit(r) in the logit
coordinates of Flory-Huggins) or from an optional guess; the closed forms
of the obstacle and single-well variants ignore the guess.  The logit
coordinates use this module's ``expit`` and ``logit``, on numpy's
vectorized exp and log.
The pointwise maps here and in ``sources`` take and return float arrays.
``elementwise`` is the one scalar-or-array rule: the maps it wraps
(``Potential.value`` and ``derivative``, the ``YosidaRegularization`` maps,
``sources.TruncationPair``, the mobility laws and ``sources.p_switch``) take
a scalar and return a float for it; nothing else converts its arguments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

_LOG2 = math.log(2.0)

# Scalar root solves: absolute tolerance on the resolvent value and iteration
# cap.  An error d in J enters the Yosida slope as d / eps, so the test sits
# well below what the Newton residual absorbs even when a solve started near
# its root stops just under it.
_RESOLVENT_TOL = 1e-14
_RESOLVENT_MAXIT = 100


def elementwise(method):
    """Run ``method(self, *args)`` on its arguments as float arrays; when
    every argument is 0-d it runs on one-element arrays and the caller gets
    a float back."""

    @functools.wraps(method)
    def wrapper(self, *args):
        args = [np.asarray(a, dtype=float) for a in args]
        if any(a.ndim for a in args):
            return method(self, *args)
        return float(method(self, *(a.reshape(1) for a in args))[0])

    return wrapper


def expit(u):
    """The logistic sigmoid 1 / (1 + exp(-u)) on float arrays.  On a 128²
    array numpy's vectorized exp makes it about three times cheaper than
    ``scipy.special.expit`` (x86-64 with AVX-512)."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


def logit(x):
    """log(x / (1 - x)) on float arrays in [0, 1], -inf at 0 and +inf at 1;
    on a 128² array about seven times cheaper than ``scipy.special.logit``
    (same host)."""
    with np.errstate(divide="ignore"):
        return np.log(x / (1.0 - x))


def _xlogx(r):
    """r*log(r) extended by 0 at r=0 (assumes an array r >= 0)."""
    out = np.zeros_like(r)
    pos = r > 0.0
    out[pos] = r[pos] * np.log(r[pos])
    return out


def _safeguarded_newton(g_and_slope, u, lo, hi, variant):
    """Root of an increasing g in the bracket [lo, hi], elementwise, from
    ``g_and_slope(u) = (g(u), g'(u), x(u))``; returns x at the root, the
    resolvent value the variant reads off u.  Newton, bisecting where the
    candidate leaves the bracket or |g| did not halve since the previous
    iterate (Newton swinging between two flat tails); a stall raises
    ConvergenceError.  u, lo and hi are updated in place."""
    g_prev = np.full(u.shape, np.inf)
    for _ in range(_RESOLVENT_MAXIT):
        g, slope, x = g_and_slope(u)
        abs_g = np.abs(g)
        done = abs_g <= _RESOLVENT_TOL
        if done.all():
            return x
        np.copyto(hi, u, where=g > 0.0)
        np.copyto(lo, u, where=g < 0.0)
        cand = u - g / slope
        bad = (cand <= lo) | (cand >= hi) | ~np.isfinite(cand)
        bad |= abs_g > 0.5 * g_prev
        g_prev = abs_g
        np.copyto(cand, 0.5 * (lo + hi), where=bad)
        np.copyto(u, cand, where=~done)
    worst = np.abs(g_and_slope(u)[0]).max()
    raise ConvergenceError(f"{variant} resolvent stalled, worst residual {worst:.3e}")


@dataclass(frozen=True)
class Potential:
    """Base class; concrete variants implement the split F = convex + concave.

    A variant supplies the pointwise maps ``convex_value``, ``convex_slope``
    (the minimal section of the convex slope graph), ``convex_curvature``,
    ``concave_value`` and ``concave_slope``, which take and return float
    arrays; ``resolvent(r, eps, guess=None)``, J = (I + eps * convex
    slope)^-1 on a float array, an iterative solve starting from the float
    array ``guess`` when one is given; and ``perturbation_lipschitz()``,
    the Lipschitz constant of the perturbation slope.

    ``slope_domain`` is the open interval on which the convex slope is
    single valued and finite, and the one domain fact a variant declares.
    The potential is singular exactly when that interval is bounded.  A
    finite end where the convex slope is finite is reachable; one where it
    is infinite repels phi (``repelling_ends``).
    """

    slope_domain = (0.0, 1.0)

    @property
    def singular(self) -> bool:
        return math.isfinite(self.slope_domain[0])

    def _ends(self, reachable: bool) -> tuple:
        """The finite ends of ``slope_domain`` that are reachable (the convex
        slope is finite there) or, with ``reachable=False``, that repel."""
        ends = np.array([e for e in self.slope_domain if math.isfinite(e)])
        with np.errstate(divide="ignore", invalid="ignore"):
            finite = np.isfinite(self.convex_slope(ends))
        return tuple(float(e) for e in ends[finite == reachable])

    @property
    def repelling_ends(self) -> tuple:
        """The ends of ``slope_domain`` where the convex slope is infinite,
        from which phi stays separated."""
        return self._ends(reachable=False)

    def mean_admissible(self, y) -> bool:
        """Whether a spatial mean y lies in the domain of the slope graph
        (the open ``slope_domain`` plus its reachable ends), a constraint on
        the initial data of the conserved phase."""
        lo, hi = self.slope_domain
        return bool(lo < y < hi) or y in self._ends(reachable=True)

    @elementwise
    def value(self, r):
        """F(r), returning +inf outside the proper domain."""
        return self.convex_value(r) + self.concave_value(r)

    @elementwise
    def derivative(self, r):
        """F'(r) = minimal convex slope + perturbation slope.

        Raises DomainError outside the interior of the convex part's domain
        when the potential is singular.
        """
        if self.singular:
            lo, hi = self.slope_domain
            if np.any(r <= lo) or np.any(r >= hi):
                raise DomainError(
                    f"derivative needs arguments in ({lo}, {hi}), "
                    f"got range [{r.min()}, {r.max()}]"
                )
        return self.convex_slope(r) + self.concave_slope(r)

    def yosida_slope(self, r, j, eps):
        """Derivative of the Yosida approximation at r, given j = J(r).

        Where the curvature at j overflows, the slope takes its cap 1/eps.
        """
        curv = self.convex_curvature(j)
        with np.errstate(over="ignore", invalid="ignore"):
            out = curv / (1.0 + eps * curv)
        return np.where(np.isfinite(out), out, 1.0 / eps)


@dataclass(frozen=True)
class RegularQuartic(Potential):
    """F(r) = (c3/4) r^2 (r-1)^2 on the whole line."""

    slope_domain = (-math.inf, math.inf)

    c3: float = 1.0

    def __post_init__(self):
        if self.c3 <= 0:
            raise ValueError("c3 must be positive")

    # Split: convex = (c3/4)(r^4 - 2 r^3 + 1.5 r^2), concave = -(c3/8) r^2.
    # The convex part has curvature (3 c3/4)(2r-1)^2 >= 0 and equals
    # (c3/4) r^2 ((r-1)^2 + 1/2) >= 0.
    def convex_value(self, r):
        return 0.25 * self.c3 * r * r * ((r - 1.0) ** 2 + 0.5)

    def convex_slope(self, r):
        return 0.25 * self.c3 * r * (4.0 * r * r - 6.0 * r + 3.0)

    def convex_curvature(self, r):
        return 0.75 * self.c3 * (2.0 * r - 1.0) ** 2

    def concave_value(self, r):
        return -0.125 * self.c3 * r * r

    def concave_slope(self, r):
        return -0.25 * self.c3 * r

    def perturbation_lipschitz(self):
        return 0.25 * self.c3

    def resolvent(self, r, eps, guess=None):
        # Smooth monotone slope on the whole line: g(x) = x + eps*slope(x) - r
        # has g' >= 1, bracketed by [min(0,r), max(0,r)]; Newton starts at
        # r, or at the guess clipped into the bracket.
        lo, hi = np.minimum(0.0, r), np.maximum(0.0, r)
        x = r.copy() if guess is None else guess.clip(lo, hi)

        def g_and_slope(x):
            return (x + eps * self.convex_slope(x) - r,
                    1.0 + eps * self.convex_curvature(x), x)

        return _safeguarded_newton(g_and_slope, x, lo, hi, "quartic")


@dataclass(frozen=True)
class FloryHuggins(Potential):
    """Logarithmic double well on [0, 1].

    F(r) = (c1/2)(r log r + (1-r) log(1-r)) + (c2/2) r (1-r), 0 < c1 < c2.

    The convex part carries a +(c1/2) log 2 shift so it is nonnegative; the
    shift is subtracted from the concave part, leaving F unchanged.
    """

    c1: float = 1.0
    c2: float = 3.0

    def __post_init__(self):
        if not 0 < self.c1 < self.c2:
            raise ValueError("need 0 < c1 < c2")

    def convex_value(self, r):
        out = np.full(r.shape, np.inf)
        ok = (r >= 0.0) & (r <= 1.0)
        rc = np.clip(r, 0.0, 1.0)
        vals = 0.5 * self.c1 * (_xlogx(rc) + _xlogx(1.0 - rc) + _LOG2)
        out[ok] = vals[ok]
        return out

    def convex_slope(self, r):
        with np.errstate(divide="ignore", invalid="ignore"):
            return 0.5 * self.c1 * (np.log(r) - np.log1p(-r))

    def convex_curvature(self, r):
        with np.errstate(divide="ignore"):
            return 0.5 * self.c1 / (r * (1.0 - r))

    def concave_value(self, r):
        return 0.5 * self.c2 * r * (1.0 - r) - 0.5 * self.c1 * _LOG2

    def concave_slope(self, r):
        return 0.5 * self.c2 * (1.0 - 2.0 * r)

    def perturbation_lipschitz(self):
        return self.c2

    def resolvent(self, r, eps, guess=None):
        # Solve in logit coordinates: with u = log(x/(1-x)) the inclusion
        # becomes sigmoid(u) + a u = r, a = eps*c1/2, whose left side has
        # derivative bounded below by a.  Warm start at u = logit(guess),
        # by default logit(r), where g = a logit(r) is already O(a); it is
        # clipped into the bracket [(r-1)/a, r/a] (a guess outside (0, 1)
        # has logit -inf or +inf and lands on a bracket end).  Newton hands
        # back the sigmoid of its last iterate, so it is not taken again.
        a = 0.5 * eps * self.c1
        lo = (r - 1.0) / a
        hi = r / a
        start = r if guess is None else guess
        u = logit(start.clip(0.0, 1.0)).clip(lo, hi)

        def g_and_slope(u):
            x = expit(u)
            return x + a * u - r, x * (1.0 - x) + a, x

        return _safeguarded_newton(g_and_slope, u, lo, hi, "Flory-Huggins")


@dataclass(frozen=True)
class DoubleObstacle(Potential):
    """F(r) = c3 r (1-r) on [0, 1], +inf outside.

    Convex part = indicator of [0, 1]; the slope graph is the normal cone,
    with minimal section 0 everywhere on [0, 1].
    """

    c3: float = 1.0

    def __post_init__(self):
        if self.c3 <= 0:
            raise ValueError("c3 must be positive")

    def convex_value(self, r):
        out = np.zeros(r.shape)
        out[(r < 0.0) | (r > 1.0)] = np.inf
        return out

    def convex_slope(self, r):
        return np.zeros(r.shape)

    def convex_curvature(self, r):
        return np.zeros(r.shape)

    def concave_value(self, r):
        return self.c3 * r * (1.0 - r)

    def concave_slope(self, r):
        return self.c3 * (1.0 - 2.0 * r)

    def perturbation_lipschitz(self):
        return 2.0 * self.c3

    def resolvent(self, r, eps, guess=None):
        # Yosida resolvent of the indicator subdifferential = projection;
        # a closed form, so the guess is not read.
        return np.clip(r, 0.0, 1.0)

    def yosida_slope(self, r, j, eps):
        return np.where((r < 0.0) | (r > 1.0), 1.0 / eps, 0.0)


@dataclass(frozen=True)
class SingleWellLJ(Potential):
    """Single-well potential of Lennard-Jones type on [0, 1).

    Convex part -(1-r*) log(1-r); the cubic perturbation is replaced by its
    quadratic truncation outside (0, 1), which keeps the slope Lipschitz and
    the perturbation concave while leaving F unchanged on [0, 1).  The
    convex part jumps to +inf left of 0, so its subdifferential at 0 is
    (-inf, 1 - r*], which contains 0.
    """

    r_star: float = 0.6
    kappa: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.r_star < 1.0:
            raise ValueError("r_star must lie in (0, 1)")
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")

    @property
    def _b(self):
        return 1.0 - self.r_star

    def convex_value(self, r):
        out = np.full(r.shape, np.inf)
        ok = (r >= 0.0) & (r < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = -self._b * np.log1p(-np.clip(r, 0.0, 1.0))
        out[ok] = vals[ok]
        return out

    def convex_slope(self, r):
        # Minimal section: 0 at r = 0, b/(1-r) on (0, 1).
        with np.errstate(divide="ignore"):
            out = self._b / (1.0 - r)
        return np.where(r == 0.0, 0.0, out)

    def convex_curvature(self, r):
        with np.errstate(divide="ignore"):
            return self._b / (1.0 - r) ** 2

    def _cubic(self, r):
        b = self._b
        return -(r**3) / 3.0 - 0.5 * b * r * r - b * r + self.kappa

    def _cubic_slope(self, r):
        b = self._b
        return -(r * r) - b * r - b

    def concave_value(self, r):
        b = self._b
        low = self.kappa - b * r - 0.5 * b * r * r
        mid = self._cubic(r)
        high = self._cubic(1.0) + (r - 1.0) * self._cubic_slope(1.0) \
            + 0.5 * (r - 1.0) ** 2 * (-2.0 - b)
        return np.where(r <= 0.0, low, np.where(r < 1.0, mid, high))

    def concave_slope(self, r):
        b = self._b
        low = -b - b * r
        mid = self._cubic_slope(r)
        high = self._cubic_slope(1.0) + (r - 1.0) * (-2.0 - b)
        return np.where(r <= 0.0, low, np.where(r < 1.0, mid, high))

    def perturbation_lipschitz(self):
        return 2.0 + self._b

    def resolvent(self, r, eps, guess=None):
        # Closed form: x + eps*b/(1-x) = r reduces to a quadratic in 1-x;
        # below the graph corner eps*b the resolvent sticks at 0.  The guess
        # is not read.
        b = self._b
        t = r - 1.0
        disc = np.sqrt(t * t + 4.0 * eps * b)
        v = np.where(t < 0.0, 0.5 * (disc - t), 2.0 * eps * b / (t + disc))
        return np.where(r <= eps * b, 0.0, 1.0 - v)

    def yosida_slope(self, r, j, eps):
        curv = self.convex_curvature(j)
        return np.where(j <= 0.0, 1.0 / eps, curv / (1.0 + eps * curv))


class ConvexEvaluation:
    """The convex part of ``potential`` evaluated at one array ``r``.

    With ``reg``, a ``YosidaRegularization``, it is the Moreau-Yosida
    regularization: ``j`` is the resolvent J(r), solved once, and the slope
    (r - J) / eps, its derivative and the Moreau envelope
    0.5 eps slope^2 + convex_value(J) are all read from that solve.  Without
    it, it is the exact convex part and ``j`` is r.  Each quantity is
    computed on first use and kept, so r must not change in place after.
    ``guess``, an array near J(r), starts the resolvent solve and is dropped
    once J is solved.
    """

    def __init__(self, potential, r, reg=None, guess=None):
        self.potential = potential
        self.r = r
        self.reg = reg
        self.guess = guess

    def at(self, r):
        """The same convex part at a nearby array r.  Its resolvent solve
        starts from this evaluation's tangent J + (r - self.r)(1 - eps *
        curvature): J is monotone and 1-Lipschitz, so the slope lies in
        [0, 1].  The tangent is formed here, so the new evaluation holds no
        reference to this one."""
        if self.reg is None:
            return ConvexEvaluation(self.potential, r)
        tangent = self.j + (r - self.r) * (1.0 - self.reg.eps * self.curvature)
        return ConvexEvaluation(self.potential, r, self.reg, tangent)

    @functools.cached_property
    def j(self):
        if self.reg is None:
            return self.r
        guess, self.guess = self.guess, None
        if guess is None:
            return self.reg.resolvent(self.r)
        return self.reg.resolvent(self.r, guess)

    @functools.cached_property
    def slope(self):
        if self.reg is None:
            return self.potential.convex_slope(self.r)
        return (self.r - self.j) / self.reg.eps

    @functools.cached_property
    def curvature(self):
        if self.reg is None:
            return self.potential.convex_curvature(self.r)
        return self.potential.yosida_slope(self.r, self.j, self.reg.eps)

    @functools.cached_property
    def density(self):
        if self.reg is None:
            return self.potential.convex_value(self.r)
        y = self.slope
        return 0.5 * self.reg.eps * y * y + self.potential.convex_value(self.j)


@dataclass(frozen=True)
class YosidaRegularization:
    """Resolvent, Yosida approximation and Moreau envelope of the convex slope.

    For regularization parameter eps in (0, 1) the resolvent J(r) solves
    x + eps * slope(x) = r (as a graph inclusion for the obstacle and
    single-well variants), the Yosida approximation is (r - J(r)) / eps and
    the envelope is evaluated through the identity

        envelope(r) = eps/2 * yosida(r)^2 + convex_value(J(r)).

    The potential supplies J (``Potential.resolvent``); every solve goes
    through ``resolvent`` here, with r as its first argument and an optional
    start ``guess`` as its second, and ``yosida`` and ``envelope`` read one
    ``ConvexEvaluation`` each.  The derivative of the Yosida approximation
    is that evaluation's ``curvature`` (``Potential.yosida_slope``).
    """

    potential: Potential
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")

    @elementwise
    def resolvent(self, r, guess=None):
        return self.potential.resolvent(r, self.eps, guess)

    @elementwise
    def yosida(self, r):
        return ConvexEvaluation(self.potential, r, self).slope

    @elementwise
    def envelope(self, r):
        return ConvexEvaluation(self.potential, r, self).density
