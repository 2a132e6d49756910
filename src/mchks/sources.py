"""Model parameters, biological source terms and mobility laws.

The source terms follow the truncated forms used by the time-discrete and
spectral solvers: the nutrient/signal switches go through ``q_switch`` (the
piecewise-linear interpolation for the smooth-potential mode, the wide clamp
to [-1/eps, 1 + 1/eps] for the singular mode) and negative phases enter only
through positive parts.  On states inside the physical range all truncations
are the identity, and the forms reduce to the plain constitutive laws.

This module is the one home of the regularized right-hand side.  Each
reaction-diffusion source is one (gain, loss) split, S_n = gain - loss q(n)
(``nutrient_split``), S_c = gain - loss c (``signal_split``) and S_a =
-loss phi_a (``endothelial_loss``); the sources and ``reaction_rates``, read
by the weak residuals and the spectral oracle, are built from them, and the
step keeps each loss implicit.  Every caller reads the chemotactic
truncation ``T_eps``, a ``TruncationPair`` with its entropy, from
``ModelParams.truncation``.

Every mobility law (``ConstantMobility``, ``KozenyCarman``,
``EndothelialProduct``), called with field arrays, returns a new float
array of their broadcast shape (a float for scalar arguments, through
``potentials.elementwise``); the step, the weak residuals and the spectral
oracle use it as returned.  Each law also supplies the step's operator
div(b grad) from those values (``operator``): a variable law fills it
(``fields.div_mob_grad_matrix``), and ``ConstantMobility`` returns the
matrix cached for its value (``fields.constant_mobility_matrix``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BoundsViolation, ValidationError
from .fields import constant_mobility_matrix, div_mob_grad_matrix
from .potentials import (
    ConvexEvaluation,
    FloryHuggins,
    Potential,
    YosidaRegularization,
    elementwise,
)


def h(r):
    """Interpolation ramp: 0 below 0, identity on (0, 1), 1 above 1."""
    # the array method is np.clip without its dispatch wrapper
    return np.asarray(r).clip(0.0, 1.0)


def positive_part(r):
    return np.maximum(r, 0.0)


# ------------------------------------------------------------- mobilities


class _Mobility:
    """A mobility law b; ``operator`` supplies the step's div(b grad)."""

    def operator(self, grid, values):
        """CSR matrix of div(b grad) on grid, filled from the evaluated b."""
        return div_mob_grad_matrix(grid, values)


@dataclass(frozen=True)
class ConstantMobility(_Mobility):
    """Constant mobility, bounds equal to the value."""

    value: float = 1.0

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("mobility must be positive")

    @property
    def bounds(self):
        return (self.value, self.value)

    @elementwise
    def __call__(self, *fields):
        return np.full(np.broadcast(*fields).shape, self.value)

    def operator(self, grid, values):
        """The read-only div(b grad) cached per (grid, value); the matrix
        does not depend on ``values``."""
        return constant_mobility_matrix(grid, self.value)


@dataclass(frozen=True)
class KozenyCarman(_Mobility):
    """Porous-flow mobility b(phi, phi_a, n).

    b = B * phi^(2-2*lam) * (1-phi)^2 * (1-phi-phi_a)^(2*lam) / (1+phi_a)^2

    Degenerates where phi + phi_a = 1 (and at phi = 0 unless lam = 1), which
    is outside the nondegeneracy hypothesis of the analysis; evaluations
    below ``m0`` raise a BoundsViolation *warning*, not an error.  The
    nutrient ``n`` is part of the ``mobility_m(phi, phi_a, n)`` interface
    and is not read.
    """

    b_phi: float = 1.0
    lam: float = 1.0
    m0: float = 1e-6
    m_up: float = 1.0

    def __post_init__(self):
        if self.b_phi <= 0:
            raise ValueError("mobility must be positive")

    @property
    def bounds(self):
        return (self.m0, self.m_up)

    @elementwise
    def __call__(self, phi, phi_a, n):
        with np.errstate(invalid="ignore"):
            sat = np.maximum(1.0 - phi - phi_a, 0.0)
            val = (
                self.b_phi
                * np.maximum(phi, 0.0) ** (2.0 - 2.0 * self.lam)
                * (1.0 - phi) ** 2
                * sat ** (2.0 * self.lam)
                / (1.0 + phi_a) ** 2
            )
        if np.any(val < self.m0) or np.any(val > self.m_up):
            warnings.warn(
                "Kozeny-Carman mobility left its declared bounds "
                f"[{self.m0}, {self.m_up}]",
                BoundsViolation,
                stacklevel=3,
            )
        return val


@dataclass(frozen=True)
class EndothelialProduct(_Mobility):
    """Bounded positive mobility factor for the endothelial phase.

    The analysis only pins the two-sided bound 0 < m0 <= n(phi_a, c) <= m_up;
    this concrete Lipschitz instance decays from m_up toward m0 as the phase
    and signal accumulate.
    """

    m0: float = 0.5
    m_up: float = 1.0

    def __post_init__(self):
        if not 0 < self.m0 <= self.m_up:
            raise ValueError("need 0 < m0 <= m_up")

    @property
    def bounds(self):
        return (self.m0, self.m_up)

    @elementwise
    def __call__(self, phi_a, c):
        denom = 1.0 + positive_part(phi_a) + c.clip(0.0, 1.0)
        return self.m0 + (self.m_up - self.m0) / denom


# ---------------------------------------------------------------- params


@dataclass(frozen=True)
class TruncationPair:
    """The (L, 1/L) pair of the regularized entropy estimates: the clamp to
    [L, M], M = 1/L, and the C^2 entropy density built so that
    (entropy'' * truncate)(r) = 1 for every r.  The entropy is the x*log(x)
    density on (L, M), normalized to vanish to first order at 1, extended
    by quadratics below L and above M."""

    L: float

    def __post_init__(self):
        if not 0.0 < self.L < 1.0:
            raise ValueError("need 0 < L < 1")

    @property
    def M(self):
        return 1.0 / self.L

    @elementwise
    def truncate(self, r):
        return r.clip(self.L, self.M)

    @elementwise
    def entropy(self, r):
        L, M = self.L, self.M
        rc = np.clip(r, L, M)
        with np.errstate(invalid="ignore"):
            core = (np.log(rc) - 1.0) * rc + 1.0
        low = (r * r - L * L) / (2.0 * L) + (math.log(L) - 1.0) * r + 1.0
        high = (r * r - M * M) / (2.0 * M) + (math.log(M) - 1.0) * r + 1.0
        return np.where(r <= L, low, np.where(r >= M, high, core))


@dataclass(frozen=True)
class ModelParams:
    """Adimensional model constants plus the potential and mobility laws.

    The smooth/singular mode of the whole scheme is derived from the
    potential variant.  Chemotaxis sensitivities must satisfy chi_a in (0,1)
    always, and chi_phi in (0,1) in the singular mode (chi_phi >= 0 suffices
    for a smooth potential).  The solver, the diagnostics and the spectral
    oracle evaluate the convex part only through ``convex_part`` and the
    ``f_prime`` and ``f_density`` built on it.
    """

    # chemotaxis defaults follow the parameter-regime magnitudes 0.01, 0.001
    chi_phi: float = 0.01
    chi_a: float = 0.001
    m: float = 0.5
    kappa0: float = 1.0
    kappa_inf: float = 1.0
    zeta: float = 0.1
    delta_n: float = 0.2
    delta_a: float = 0.1
    eps: float = 1e-3
    potential: Potential = field(default_factory=FloryHuggins)
    mobility_m: object = field(default_factory=ConstantMobility)
    mobility_n: object = field(default_factory=ConstantMobility)

    def __post_init__(self):
        if not 0.0 < self.chi_a < 1.0:
            raise ValidationError("chi_a must lie in (0, 1)")
        if self.singular:
            if not 0.0 < self.chi_phi < 1.0:
                raise ValidationError(
                    "chi_phi must lie in (0, 1) for a singular potential"
                )
        elif self.chi_phi < 0.0:
            raise ValidationError("chi_phi must be nonnegative")
        if self.m < 0.0:
            raise ValidationError("apoptosis rate m must be nonnegative")
        for name in ("kappa0", "kappa_inf"):
            if getattr(self, name) < 0.0:
                raise ValidationError(f"{name} must be nonnegative")
        if self.zeta <= 0.0:
            raise ValidationError("zeta must be positive")
        for name in ("delta_n", "delta_a"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.eps < 1.0:
            raise ValidationError("eps must lie in (0, 1)")

    @property
    def singular(self) -> bool:
        return self.potential.singular

    @cached_property
    def regularization(self) -> YosidaRegularization | None:
        """The Moreau-Yosida regularization of a singular potential's convex
        part; None for a smooth potential, whose exact convex part is used."""
        if self.singular:
            return YosidaRegularization(self.potential, self.eps)
        return None

    def convex_part(self, phi, carried=None) -> ConvexEvaluation:
        """The convex part the scheme evaluates, at the array phi: the
        Moreau-Yosida regularization of a singular potential (one resolvent
        solve), the exact convex part of a smooth one.

        ``carried``, an evaluation made earlier, is returned instead when it
        was made on this very array (``carried.r is phi``) with this
        potential and regularization; any other array, even one with equal
        values, is evaluated afresh.
        """
        if (carried is not None and carried.r is phi
                and carried.potential == self.potential
                and carried.reg == self.regularization):
            return carried
        return ConvexEvaluation(self.potential, phi, self.regularization)

    def f_prime(self, phi):
        """Regularized F'(phi): convex slope in use plus perturbation slope."""
        return self.convex_part(phi).slope + self.potential.concave_slope(phi)

    def f_density(self, phi, carried=None):
        """Pointwise regularized potential F_eps(phi) (Moreau envelope of the
        convex part in singular mode) plus the perturbation; ``carried`` as
        in ``convex_part``."""
        convex = self.convex_part(phi, carried)
        return convex.density + self.potential.concave_value(phi)

    @cached_property
    def truncation(self) -> TruncationPair:
        """T_eps: the (eps, 1/eps) truncation of the chemotactic phase in the
        flux chi_a T_eps(phi_a) grad c, together with its entropy."""
        return TruncationPair(self.eps)

    @property
    def wide_clamp(self):
        """Truncation window [-1/eps, 1 + 1/eps] for nutrient/signal switches."""
        return (-1.0 / self.eps, 1.0 + 1.0 / self.eps)


def q_switch(params: ModelParams, r):
    """Nutrient switch: h(r) in smooth mode, wide clamp in singular mode."""
    if params.singular:
        return clamp_signal(params, r)
    return h(r)


@elementwise
def p_switch(params: ModelParams, r):
    """Tumor-fraction switch: identity in smooth mode, positive part singular."""
    return positive_part(r) if params.singular else r


def clamp_signal(params: ModelParams, c):
    """The wide clamp, of the signal and of the singular-mode nutrient."""
    lo, hi = params.wide_clamp
    return np.asarray(c).clip(lo, hi)


def theta(params: ModelParams, phi, c):
    """Endothelial activation factor, bounded in [zeta, 1 + zeta] for c in [0,1]."""
    cc = clamp_signal(params, c)
    return positive_part(cc - params.delta_a) * (1.0 - h(phi)) + params.zeta


def proliferation(params: ModelParams, phi, n):
    """Nutrient-gated proliferation (the bounded part of the phi source)."""
    return positive_part(q_switch(params, n) - params.delta_n) * h(phi)


def source_phi(params: ModelParams, phi, n):
    """Tumor fraction source: proliferation minus apoptosis."""
    return proliferation(params, phi, n) - params.m * phi


def nutrient_split(params: ModelParams, phi, phi_a):
    """(gain, loss) of S_n = gain - loss q(n): supply 1 - h(phi) + phi_a^+,
    and loss = gain + p(phi), its saturation plus tumor consumption."""
    gain = 1.0 - h(phi) + positive_part(phi_a)
    return gain, gain + p_switch(params, phi)


def signal_split(params: ModelParams, phi, phi_a, n):
    """(gain, loss) of S_c = gain - loss c: hypoxic release h(phi) (delta_n
    - n)^+, and loss = gain + phi_a^+, its saturation plus consumption."""
    gain = h(phi) * positive_part(params.delta_n - n)
    return gain, gain + positive_part(phi_a)


def endothelial_loss(params: ModelParams, phi, phi_a, c):
    """loss of the logistic S_a = -loss phi_a, theta (kappa_inf phi_a^+ - kappa0)."""
    decay = params.kappa_inf * positive_part(phi_a) - params.kappa0
    return theta(params, phi, c) * decay


def source_phi_a(params: ModelParams, phi, phi_a, c):
    """Logistic endothelial source gated by the activation factor."""
    return -endothelial_loss(params, phi, phi_a, c) * phi_a


def source_n(params: ModelParams, phi, phi_a, n):
    """Nutrient supply from vasculature minus tumor consumption."""
    gain, loss = nutrient_split(params, phi, phi_a)
    return gain - loss * q_switch(params, n)


def source_c(params: ModelParams, phi, phi_a, n, c):
    """Hypoxia-driven signal release minus endothelial consumption."""
    gain, loss = signal_split(params, phi, phi_a, n)
    return gain - loss * clamp_signal(params, c)


def reaction_rates(params: ModelParams, phi, phi_a, n, c):
    """Non-differential right-hand sides of the phi, phi_a, n and c equations.

    Returns (S_phi, S_a, chi_phi p(phi) + S_n, chi_a phi_a^+ + S_c): the
    sources plus the chemotactic production terms of n and c.
    """
    return (
        source_phi(params, phi, n),
        source_phi_a(params, phi, phi_a, c),
        params.chi_phi * p_switch(params, phi) + source_n(params, phi, phi_a, n),
        params.chi_a * positive_part(phi_a) + source_c(params, phi, phi_a, n, c),
    )
