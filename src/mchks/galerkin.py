"""Spectral reference solver in the Neumann cosine eigenbasis.

The five fields are expanded in tensor cosine modes (eigenfunctions of the
Neumann Laplacian on the rectangle, eigenvalues alpha_ij starting at 0) and
the projected evolution system becomes an ODE system for the coefficients,
with the chemical potential coefficients eliminated algebraically each
evaluation.  Nonlinear terms are evaluated pseudo-spectrally on a midpoint
quadrature grid with 2x oversampling; for products of band-limited
factors the midpoint rule is exact, and for the non-polynomial regularized
terms the aliasing error stays below the integrator's error at oracle
scales.  Integration is by fixed-step ETDRK4 (Cox & Matthews 2002): the
stiff linear part, diagonal in the basis, is integrated exactly, so the
step ``ETD_STEP`` is set by accuracy and the top mode's (k pi / L)^4 costs
nothing; a non-finite stage raises ``NonFiniteField``.  It is a
cross-validation oracle, not a production path.

The projected system is the one the FD step solves: the non-differential
terms come from ``sources.reaction_rates`` and the chemotactic flux goes
through ``ModelParams.truncation``.  The oracle starts from FD data.  One
table, ``cosine_tables``, holds the basis at cell centres: on the
quadrature cells (``EigenBasis.quad``) for the right-hand side, and on the
FD grid for ``project`` (midpoint sum) and ``evaluate_on_grid``, which
invert each other for k < min(nx, ny).  ``cross_errors`` measures how far
an FD state lies from a Galerkin state on the FD grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonFiniteField
from .fields import Grid2D
from .sources import ModelParams, reaction_rates

ETD_STEP = 5e-3  # longest oracle step; set by accuracy, not stiffness


@dataclass(frozen=True)
class EigenBasis:
    lx: float
    ly: float
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("mode index must be nonnegative")

    @property
    def n_quad(self):
        return 2 * (self.k + 1)

    @cached_property
    def alpha(self):
        i = np.arange(self.k + 1)
        ax = (i * np.pi / self.lx) ** 2
        ay = (i * np.pi / self.ly) ** 2
        return ax[:, None] + ay[None, :]

    @cached_property
    def quad(self):
        """``cosine_tables`` on the n_quad x n_quad quadrature cells."""
        return cosine_tables(self, self.n_quad, self.n_quad)


def cosine_tables(basis: EigenBasis, nx, ny):
    """The k+1 orthonormal Neumann cosines of each side at the centres of
    nx x ny equal cells of the basis rectangle: (x-cosines (nx, k+1), their
    x-derivatives, y-cosines (ny, k+1), their y-derivatives, cell area)."""

    def side(length, n):
        x = (np.arange(n) + 0.5) * length / n
        i = np.arange(basis.k + 1)
        norm = np.sqrt(np.where(i == 0, 1.0, 2.0) / length)
        arg = np.outer(x, i) * np.pi / length
        return np.cos(arg) * norm, -np.sin(arg) * norm * (i * np.pi / length)

    return (*side(basis.lx, nx), *side(basis.ly, ny),
            (basis.lx / nx) * (basis.ly / ny))


def reconstruct(basis: EigenBasis, coeffs):
    """Field values on the quadrature grid from mode coefficients."""
    cx, _, cy, _, _ = basis.quad
    return cx @ coeffs @ cy.T


def gradient(basis: EigenBasis, coeffs):
    cx, sx, cy, sy, _ = basis.quad
    return sx @ coeffs @ cy.T, cx @ coeffs @ sy.T


def project_values(basis: EigenBasis, values):
    """L2 projection of quadrature-grid values onto the basis."""
    cx, _, cy, _, w = basis.quad
    return cx.T @ values @ cy * w


def project_flux(basis: EigenBasis, vx, vy):
    """Inner products of a vector field against mode gradients."""
    cx, sx, cy, sy, w = basis.quad
    return (sx.T @ vx @ cy + cx.T @ vy @ sy) * w


def _check_rectangle(basis: EigenBasis, grid: Grid2D):
    """ValueError unless the grid covers the basis rectangle (to 1e-12
    relative)."""
    if (abs(grid.lx - basis.lx) > 1e-12 * basis.lx
            or abs(grid.ly - basis.ly) > 1e-12 * basis.ly):
        raise ValueError(
            f"grid rectangle {grid.lx:g} x {grid.ly:g} differs from the basis "
            f"rectangle {basis.lx:g} x {basis.ly:g}"
        )


def project(basis: EigenBasis, grid: Grid2D, values: np.ndarray):
    """L2 projection of an FD field, the (nx, ny) array values on grid,
    summed on its cell centres (needs k < min(nx, ny))."""
    if np.all(values == values.flat[0]):
        # the (0, 0) mode alone, exactly; the midpoint sum would leave
        # round-off in every coefficient
        coeffs = np.zeros((basis.k + 1, basis.k + 1))
        coeffs[0, 0] = values.flat[0] * np.sqrt(basis.lx * basis.ly)
        return coeffs
    if basis.k >= min(grid.nx, grid.ny):
        raise ValueError(f"k = {basis.k} needs more cells than {grid.nx}x{grid.ny}")
    _check_rectangle(basis, grid)
    cx, _, cy, _, area = cosine_tables(basis, grid.nx, grid.ny)
    return cx.T @ values @ cy * area


def evaluate_on_grid(basis: EigenBasis, coeffs, grid: Grid2D) -> np.ndarray:
    """Point evaluation of the truncated expansion at FD cell centers."""
    _check_rectangle(basis, grid)
    cx, _, cy, _, _ = cosine_tables(basis, grid.nx, grid.ny)
    return cx @ coeffs @ cy.T


def cross_errors(fd_state, gstate, basis: EigenBasis) -> dict:
    """RMS difference on the FD grid between an FD state and a Galerkin
    state, per evolved field (phi, phi_a, n, c)."""
    grid = fd_state.grid
    errs = {}
    for name in ("phi", "phi_a", "n", "c"):
        spec = evaluate_on_grid(basis, getattr(gstate, name), grid)
        diff = getattr(fd_state, name) - spec
        errs[name] = float(np.sqrt(np.mean(diff**2)))
    return errs


@dataclass
class GalerkinState:
    t: float
    phi: np.ndarray
    phi_a: np.ndarray
    n: np.ndarray
    c: np.ndarray


def galerkin_rhs(coeffs, params: ModelParams, basis: EigenBasis):
    """Coefficient time derivatives of (phi, phi_a, n, c); the mu
    coefficients are eliminated, b_ij = alpha_ij a_ij + <F_eps'(phi), psi>."""
    a, ca, d, e = coeffs
    phi_q = reconstruct(basis, a)
    phia_q = reconstruct(basis, ca)
    n_q = reconstruct(basis, d)
    c_q = reconstruct(basis, e)

    b = basis.alpha * a + project_values(basis, params.f_prime(phi_q))
    s_phi, s_a, r_n, r_c = reaction_rates(params, phi_q, phia_q, n_q, c_q)

    mu_x, mu_y = gradient(basis, b)
    n_x, n_y = gradient(basis, d)
    mob_m = params.mobility_m(phi_q, phia_q, n_q)
    vx = mob_m * (mu_x - params.chi_phi * n_x)
    vy = mob_m * (mu_y - params.chi_phi * n_y)
    da = -project_flux(basis, vx, vy) + project_values(basis, s_phi)

    phia_x, phia_y = gradient(basis, ca)
    c_x, c_y = gradient(basis, e)
    mob_n = params.mobility_n(phia_q, c_q)
    trunc = params.truncation.truncate(phia_q)
    wx = mob_n * phia_x - params.chi_a * trunc * mob_n * c_x
    wy = mob_n * phia_y - params.chi_a * trunc * mob_n * c_y
    dca = -project_flux(basis, wx, wy) + project_values(basis, s_a)

    dd = -basis.alpha * d + project_values(basis, r_n)
    de = -basis.alpha * e + project_values(basis, r_c)
    return da, dca, dd, de


def initial_galerkin_state(basis: EigenBasis, grid: Grid2D, fields):
    """Project FD initial data (arrays on grid keyed phi, phi_a, n, c)."""
    return GalerkinState(0.0, *(project(basis, grid, fields[name])
                                for name in ("phi", "phi_a", "n", "c")))


def _etd_weights(lin, h):
    """exp(L h / 2), exp(L h) and the three Cox-Matthews ETDRK4 weights of
    the diagonal L, each a contour mean over 32 points on the unit circle
    around L h (Kassam & Trefethen), which stays accurate as L h -> 0.

    The means are summed one contour point at a time, so every temporary
    has the shape of ``lin``: the memory is O((k+1)^2), a small multiple
    of ``lin.nbytes``.
    """
    lh = lin * h
    q, f1, f2, f3 = (np.zeros_like(lh) for _ in range(4))
    for j in range(32):
        z = lh + np.exp(2j * np.pi * (j + 0.5) / 32)
        ez = np.exp(z)
        z3 = z**3
        q += ((np.exp(z / 2) - 1) / z).real
        f1 += ((-4 - z + ez * (4 - 3 * z + z * z)) / z3).real
        f2 += ((2 + z + ez * (z - 2)) / z3).real
        f3 += ((-4 - 3 * z - z * z + ez * (4 - z)) / z3).real
    scale = h / 32
    return (np.exp(lh / 2), np.exp(lh),
            q * scale, f1 * scale, f2 * scale, f3 * scale)


def integrate_galerkin(
    g0: GalerkinState,
    params: ModelParams,
    basis: EigenBasis,
    t_end: float,
    t_eval=None,
):
    """Fixed-step ETDRK4 integration of the projected system.

    The linear part L, diagonal in the basis, is integrated exactly:
    -mbar_m alpha^2 for phi, -mbar_n alpha for phi_a and -alpha for n and c,
    with mbar the mean of each mobility over the initial quadrature values.
    Only N(y) = galerkin_rhs(y) - L y is explicit, in the Cox-Matthews
    stages, so the step is set by accuracy, not by the top mode's stiffness:
    each interval between output times is cut into ceil(length / ETD_STEP)
    equal steps, and the output times are hit exactly.

    Returns the list of GalerkinStates at the times ``t_eval`` (``t_end``
    only by default).  Raises NonFiniteField, naming eps, k and the time
    reached, when a stage turns non-finite.
    """
    t = g0.t
    y = np.stack([g0.phi, g0.phi_a, g0.n, g0.c])
    phi_q, phia_q, n_q, c_q = (reconstruct(basis, a) for a in y)
    mbar_m = float(np.mean(params.mobility_m(phi_q, phia_q, n_q)))
    mbar_n = float(np.mean(params.mobility_n(phia_q, c_q)))
    alpha = basis.alpha
    lin = np.stack([-mbar_m * alpha**2, -mbar_n * alpha, -alpha, -alpha])

    def nonlinear(u):
        out = np.stack(galerkin_rhs(u, params, basis)) - lin * u
        if not np.all(np.isfinite(out)):
            raise NonFiniteField(
                f"spectral oracle stopped at t = {t:.6g} of {t_end:g} "
                f"(eps = {params.eps:g}, k = {basis.k}): non-finite stage"
            )
        return out

    weights = {}
    states = []
    for t_out in [t_end] if t_eval is None else t_eval:
        # the 1e-12 keeps a rounded interval of n steps at n steps
        steps = math.ceil((t_out - t) / ETD_STEP * (1 - 1e-12))
        if steps > 0:
            h = (t_out - t) / steps
            if h not in weights:
                weights[h] = _etd_weights(lin, h)
            e2, e, q, f1, f2, f3 = weights[h]
            for _ in range(steps):
                nu = nonlinear(y)
                a = e2 * y + q * nu
                na = nonlinear(a)
                b = e2 * y + q * na
                nb = nonlinear(b)
                c = e2 * a + q * (2 * nb - nu)
                y = e * y + f1 * nu + 2 * f2 * (na + nb) + f3 * nonlinear(c)
                t += h
        t = float(t_out)
        states.append(GalerkinState(t, *y))
    return states
