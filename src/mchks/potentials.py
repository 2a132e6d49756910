"""Cell interaction potentials and their Moreau-Yosida regularization.

Four interaction potentials are supported: a smooth quartic double well, the
logarithmic (Flory-Huggins) double well, the double obstacle potential, and a
single-well potential of Lennard-Jones type.  Each one is split as

    F = convex part + concave perturbation,

where the convex part may be singular (finite only on a bounded interval) and
the perturbation always has a Lipschitz derivative.  The implicit phase-field
solver never evaluates the singular slope directly; it goes through the
Yosida approximation of the convex slope, which is Lipschitz on the whole
line.  Each variant owns its resolvent J = (I + eps * convex slope)^-1 and
the slope of its Yosida approximation (the graph corners of the obstacle and
single-well variants included); ``YosidaRegularization`` builds the Yosida
approximation, its derivative and the Moreau envelope on top of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit

from .errors import ConvergenceError, DomainError

_LOG2 = math.log(2.0)

# Scalar root solves: absolute tolerance on the resolvent value and iteration cap.
_RESOLVENT_TOL = 1e-12
_RESOLVENT_MAXIT = 100


def _xlogx(r):
    """r*log(r) extended by 0 at r=0 (assumes r >= 0)."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    pos = r > 0.0
    out[pos] = r[pos] * np.log(r[pos])
    return out


def _as_float(x, scalar_in):
    return float(x) if scalar_in else x


@dataclass(frozen=True)
class Potential:
    """Base class; concrete variants implement the split F = convex + concave."""

    def value(self, r):
        """F(r), returning +inf outside the proper domain."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = self.convex_value(r) + self.concave_value(r)
        return _as_float(out[0] if scalar else out, scalar)

    def derivative(self, r):
        """F'(r) = minimal convex slope + perturbation slope.

        Raises DomainError outside the interior of the convex part's domain
        when the potential is singular.
        """
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if self.singular:
            lo, hi = self.slope_domain
            if np.any(r <= lo) or np.any(r >= hi):
                raise DomainError(
                    f"derivative needs arguments in ({lo}, {hi}), "
                    f"got range [{r.min()}, {r.max()}]"
                )
        out = self.convex_slope(r) + self.concave_slope(r)
        return _as_float(out[0] if scalar else out, scalar)

    @property
    def singular(self) -> bool:
        raise NotImplementedError

    @property
    def slope_domain(self):
        """Open interval on which the convex slope is single valued and finite."""
        raise NotImplementedError

    @property
    def zero_in_convex_graph(self) -> bool:
        """Whether the maximal monotone convex slope graph contains (0, 0).

        This is the normalization under which the Yosida approximation
        vanishes at the origin.  It fails for the Flory-Huggins split, whose
        convex slope tends to -inf at 0.
        """
        raise NotImplementedError

    def mean_admissible(self, y: float) -> bool:
        """Whether y lies in the domain of the monotone slope graph.

        Spatial means of admissible initial data must satisfy this (it
        constrains the mass dynamics of conserved quantities).
        """
        raise NotImplementedError

    def convex_value(self, r):
        raise NotImplementedError

    def convex_slope(self, r):
        raise NotImplementedError

    def convex_curvature(self, r):
        raise NotImplementedError

    def concave_value(self, r):
        raise NotImplementedError

    def concave_slope(self, r):
        raise NotImplementedError

    def perturbation_lipschitz(self) -> float:
        """Lipschitz constant of the perturbation slope (for stabilized splits)."""
        raise NotImplementedError

    def convex_slope_and_curvature(self, r):
        return self.convex_slope(r), self.convex_curvature(r)

    def resolvent(self, r, eps):
        """J(r) = (I + eps * convex slope)^-1 (r), elementwise on an array."""
        raise NotImplementedError

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

    c3: float = 1.0

    def __post_init__(self):
        if self.c3 <= 0:
            raise ValueError("c3 must be positive")

    @property
    def singular(self):
        return False

    @property
    def slope_domain(self):
        return (-math.inf, math.inf)

    @property
    def zero_in_convex_graph(self):
        return True

    def mean_admissible(self, y):
        return bool(np.isfinite(y))

    # Split: convex = (c3/4)(r^4 - 2 r^3 + 1.5 r^2), concave = -(c3/8) r^2.
    # The convex part has curvature (3 c3/4)(2r-1)^2 >= 0 and equals
    # (c3/4) r^2 ((r-1)^2 + 1/2) >= 0.
    def convex_value(self, r):
        r = np.asarray(r, dtype=float)
        return 0.25 * self.c3 * r * r * ((r - 1.0) ** 2 + 0.5)

    def convex_slope(self, r):
        r = np.asarray(r, dtype=float)
        return 0.25 * self.c3 * r * (4.0 * r * r - 6.0 * r + 3.0)

    def convex_curvature(self, r):
        r = np.asarray(r, dtype=float)
        return 0.75 * self.c3 * (2.0 * r - 1.0) ** 2

    def concave_value(self, r):
        r = np.asarray(r, dtype=float)
        return -0.125 * self.c3 * r * r

    def concave_slope(self, r):
        r = np.asarray(r, dtype=float)
        return -0.25 * self.c3 * r

    def perturbation_lipschitz(self):
        return 0.25 * self.c3

    def resolvent(self, r, eps):
        # Smooth monotone slope on the whole line: g(x) = x + eps*slope(x) - r
        # has g' >= 1, bracketed by [min(0,r), max(0,r)].  Safeguarded Newton.
        lo = np.minimum(0.0, r)
        hi = np.maximum(0.0, r)
        x = r.copy()
        for _ in range(_RESOLVENT_MAXIT):
            g = x + eps * self.convex_slope(x) - r
            done = np.abs(g) <= _RESOLVENT_TOL
            if done.all():
                break
            hi = np.where(g > 0.0, x, hi)
            lo = np.where(g < 0.0, x, lo)
            step = g / (1.0 + eps * self.convex_curvature(x))
            cand = x - step
            bad = (cand < lo) | (cand > hi) | ~np.isfinite(cand)
            x = np.where(done, x, np.where(bad, 0.5 * (lo + hi), cand))
        else:
            raise ConvergenceError("quartic resolvent stalled")
        return x


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

    @property
    def singular(self):
        return True

    @property
    def slope_domain(self):
        return (0.0, 1.0)

    @property
    def zero_in_convex_graph(self):
        # The convex slope diverges to -inf at 0+, so the subdifferential at
        # 0 is empty and no normalization can place (0, 0) on the graph.
        return False

    def mean_admissible(self, y):
        return 0.0 < y < 1.0

    def convex_value(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, np.inf)
        ok = (r >= 0.0) & (r <= 1.0)
        rc = np.clip(r, 0.0, 1.0)
        vals = 0.5 * self.c1 * (_xlogx(rc) + _xlogx(1.0 - rc) + _LOG2)
        out[ok] = vals[ok]
        return out

    def convex_slope(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return 0.5 * self.c1 * (np.log(r) - np.log1p(-r))

    def convex_curvature(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return 0.5 * self.c1 / (r * (1.0 - r))

    def concave_value(self, r):
        r = np.asarray(r, dtype=float)
        return 0.5 * self.c2 * r * (1.0 - r) - 0.5 * self.c1 * _LOG2

    def concave_slope(self, r):
        r = np.asarray(r, dtype=float)
        return 0.5 * self.c2 * (1.0 - 2.0 * r)

    def perturbation_lipschitz(self):
        return self.c2

    def resolvent(self, r, eps):
        # Solve in logit coordinates: with u = log(x/(1-x)) the inclusion
        # becomes sigmoid(u) + a u = r, a = eps*c1/2, whose left side has
        # derivative bounded below by a.  Safeguarded Newton on a bracket:
        # bisect where the Newton candidate leaves the bracket, and where
        # |g| did not halve since the previous iterate (Newton swinging
        # between the two flat tails of the sigmoid).  Warm start at
        # u = logit(r), where g = a logit(r) is already O(a); it is clipped
        # into the bracket [(r-1)/a, r/a] (outside (0, 1), logit(clip(r))
        # is -inf or +inf and lands on a bracket end).
        a = 0.5 * eps * self.c1
        lo = (r - 1.0) / a
        hi = r / a
        with np.errstate(divide="ignore"):
            u = np.clip(logit(np.clip(r, 0.0, 1.0)), lo, hi)
        g_prev = np.full(r.shape, np.inf)
        for _ in range(_RESOLVENT_MAXIT):
            x = expit(u)
            g = x + a * u - r
            done = np.abs(g) <= _RESOLVENT_TOL
            if done.all():
                break
            hi = np.where(g > 0.0, u, hi)
            lo = np.where(g < 0.0, u, lo)
            step = g / (x * (1.0 - x) + a)
            cand = u - step
            bad = (cand <= lo) | (cand >= hi) | ~np.isfinite(cand)
            bad |= np.abs(g) > 0.5 * g_prev
            g_prev = np.abs(g)
            u = np.where(done, u, np.where(bad, 0.5 * (lo + hi), cand))
        else:
            raise ConvergenceError(
                f"Flory-Huggins resolvent stalled, worst residual "
                f"{np.abs(expit(u) + a * u - r).max():.3e}"
            )
        return expit(u)


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

    @property
    def singular(self):
        return True

    @property
    def slope_domain(self):
        return (0.0, 1.0)

    @property
    def zero_in_convex_graph(self):
        return True

    def mean_admissible(self, y):
        return 0.0 <= y <= 1.0

    def convex_value(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        out[(r < 0.0) | (r > 1.0)] = np.inf
        return out

    def convex_slope(self, r):
        r = np.asarray(r, dtype=float)
        return np.zeros(r.shape)

    def convex_curvature(self, r):
        r = np.asarray(r, dtype=float)
        return np.zeros(r.shape)

    def concave_value(self, r):
        r = np.asarray(r, dtype=float)
        return self.c3 * r * (1.0 - r)

    def concave_slope(self, r):
        r = np.asarray(r, dtype=float)
        return self.c3 * (1.0 - 2.0 * r)

    def perturbation_lipschitz(self):
        return 2.0 * self.c3

    def resolvent(self, r, eps):
        # Yosida resolvent of the indicator subdifferential = projection.
        return np.clip(r, 0.0, 1.0)

    def yosida_slope(self, r, j, eps):
        return np.where((r < 0.0) | (r > 1.0), 1.0 / eps, 0.0)


@dataclass(frozen=True)
class SingleWellLJ(Potential):
    """Single-well potential of Lennard-Jones type on [0, 1).

    Convex part -(1-r*) log(1-r); the cubic perturbation is replaced by its
    quadratic truncation outside (0, 1), which keeps the slope Lipschitz and
    the perturbation concave while leaving F unchanged on [0, 1).
    """

    r_star: float = 0.6
    kappa: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.r_star < 1.0:
            raise ValueError("r_star must lie in (0, 1)")
        if self.kappa < 0.0:
            raise ValueError("kappa must be nonnegative")

    @property
    def singular(self):
        return True

    @property
    def slope_domain(self):
        return (0.0, 1.0)

    @property
    def zero_in_convex_graph(self):
        # Convex part jumps to +inf left of 0, so the subdifferential at 0
        # is (-inf, 1 - r*], which contains 0.
        return True

    def mean_admissible(self, y):
        return 0.0 <= y < 1.0

    @property
    def _b(self):
        return 1.0 - self.r_star

    def convex_value(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full(r.shape, np.inf)
        ok = (r >= 0.0) & (r < 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = -self._b * np.log1p(-np.clip(r, 0.0, 1.0 - 1e-300))
        out[ok] = vals[ok]
        return out

    def convex_slope(self, r):
        # Minimal section: 0 at r = 0, b/(1-r) on (0, 1).
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            out = self._b / (1.0 - r)
        return np.where(r == 0.0, 0.0, out)

    def convex_curvature(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            return self._b / (1.0 - r) ** 2

    def _cubic(self, r):
        b = self._b
        return -(r**3) / 3.0 - 0.5 * b * r * r - b * r + self.kappa

    def _cubic_slope(self, r):
        b = self._b
        return -(r * r) - b * r - b

    def concave_value(self, r):
        r = np.asarray(r, dtype=float)
        b = self._b
        low = self.kappa - b * r - 0.5 * b * r * r
        mid = self._cubic(r)
        high = self._cubic(1.0) + (r - 1.0) * self._cubic_slope(1.0) \
            + 0.5 * (r - 1.0) ** 2 * (-2.0 - b)
        return np.where(r <= 0.0, low, np.where(r < 1.0, mid, high))

    def concave_slope(self, r):
        r = np.asarray(r, dtype=float)
        b = self._b
        low = -b - b * r
        mid = self._cubic_slope(r)
        high = self._cubic_slope(1.0) + (r - 1.0) * (-2.0 - b)
        return np.where(r <= 0.0, low, np.where(r < 1.0, mid, high))

    def perturbation_lipschitz(self):
        return 2.0 + self._b

    def resolvent(self, r, eps):
        # Closed form: x + eps*b/(1-x) = r reduces to a quadratic in 1-x;
        # below the graph corner eps*b the resolvent sticks at 0.
        b = self._b
        t = r - 1.0
        disc = np.sqrt(t * t + 4.0 * eps * b)
        v = np.where(t < 0.0, 0.5 * (disc - t), 2.0 * eps * b / (t + disc))
        return np.where(r <= eps * b, 0.0, 1.0 - v)

    def yosida_slope(self, r, j, eps):
        curv = self.convex_curvature(j)
        return np.where(j <= 0.0, 1.0 / eps, curv / (1.0 + eps * curv))


@dataclass(frozen=True)
class YosidaRegularization:
    """Resolvent, Yosida approximation and Moreau envelope of the convex slope.

    For regularization parameter eps in (0, 1) the resolvent J(r) solves
    x + eps * slope(x) = r (as a graph inclusion for the obstacle and
    single-well variants), the Yosida approximation is (r - J(r)) / eps and
    the envelope is evaluated through the identity

        envelope(r) = eps/2 * yosida(r)^2 + convex_value(J(r)).

    The potential supplies J (``Potential.resolvent``) and the derivative
    of the Yosida approximation (``Potential.yosida_slope``); every solve
    goes through ``resolvent`` here.
    """

    potential: Potential
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")

    def resolvent(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        out = self.potential.resolvent(np.atleast_1d(r), self.eps)
        return _as_float(out[0] if scalar else out, scalar)

    def yosida(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        rr = np.atleast_1d(r)
        out = (rr - np.atleast_1d(self.resolvent(rr))) / self.eps
        return _as_float(out[0] if scalar else out, scalar)

    def yosida_derivative(self, r):
        """Derivative of the Yosida approximation (piecewise for graph corners)."""
        return self.slope_and_curvature(r)[1]

    def slope_and_curvature(self, r):
        """(yosida(r), yosida_derivative(r)) from one resolvent solve."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        rr = np.atleast_1d(r)
        j = np.atleast_1d(self.resolvent(rr))
        slope = (rr - j) / self.eps
        curv = self.potential.yosida_slope(rr, j, self.eps)
        if scalar:
            return float(slope[0]), float(curv[0])
        return slope, curv

    def envelope(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        rr = np.atleast_1d(r)
        j = np.atleast_1d(self.resolvent(rr))
        y = (rr - j) / self.eps
        out = 0.5 * self.eps * y * y + self.potential.convex_value(j)
        return _as_float(out[0] if scalar else out, scalar)


def growth_constant(potential, lo=-10.0, hi=10.0, n=20001):
    """Fitted constant c with |F'(r)| <= c (F(r) + 1) on a sampled range.

    The smooth quartic admits such a constant on any bounded range; this
    reports the tightest one seen on the sample.
    """
    r = np.linspace(lo, hi, n)
    f = potential.value(r)
    fp = potential.derivative(r)
    return float(np.max(np.abs(fp) / (f + 1.0)))
