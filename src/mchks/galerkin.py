"""Spectral reference solver in the Neumann cosine eigenbasis.

The five fields are expanded in tensor cosine modes (eigenfunctions of the
Neumann Laplacian on the rectangle, eigenvalues alpha_ij starting at 0) and
the projected evolution system becomes an ODE system for the coefficients,
with the chemical potential coefficients eliminated algebraically each
evaluation.  Nonlinear terms are evaluated pseudo-spectrally on a midpoint
quadrature grid with at least 2x oversampling; for products of band-limited
factors the midpoint rule is exact, and for the non-polynomial regularized
terms the aliasing error stays below integrator tolerance at oracle scales.
Integration is by adaptive explicit embedded Runge-Kutta, so the fourth
order eigenvalue stiffness limits this solver to small mode counts; it is a
cross-validation oracle, not a production path.

The projected system is the one the FD step solves: the non-differential
terms come from ``sources.reaction_rates`` and the chemotactic flux goes
through ``ModelParams.truncation``.  ``cross_errors`` measures how far an FD
state lies from a Galerkin state on the FD grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp

from .errors import StepSizeUnderflow
from .fields import Grid2D, ScalarField
from .sources import ModelParams, reaction_rates

MAX_MODES_PER_DIM = 16


@dataclass(frozen=True)
class EigenBasis:
    lx: float
    ly: float
    k: int
    nq: int = 0  # quadrature points per dimension; 0 means 2*(k+1)

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("mode index must be nonnegative")
        if self.nq and self.nq < 2 * (self.k + 1):
            raise ValueError("need at least 2(k+1) quadrature points")

    @property
    def n_quad(self):
        return self.nq or 2 * (self.k + 1)

    @cached_property
    def alpha(self):
        i = np.arange(self.k + 1)
        ax = (i * np.pi / self.lx) ** 2
        ay = (i * np.pi / self.ly) ** 2
        return ax[:, None] + ay[None, :]

    def _axis(self, length):
        nq = self.n_quad
        xq = (np.arange(nq) + 0.5) * length / nq
        i = np.arange(self.k + 1)
        norm = np.sqrt(np.where(i == 0, 1.0, 2.0) / length)
        cos = np.cos(np.outer(xq, i) * np.pi / length) * norm
        sin = -np.sin(np.outer(xq, i) * np.pi / length) * norm * (i * np.pi / length)
        return xq, cos, sin

    @cached_property
    def x_quad(self):
        return self._axis(self.lx)[0]

    @cached_property
    def y_quad(self):
        return self._axis(self.ly)[0]

    @cached_property
    def cos_x(self):
        return self._axis(self.lx)[1]

    @cached_property
    def sin_x(self):
        return self._axis(self.lx)[2]

    @cached_property
    def cos_y(self):
        return self._axis(self.ly)[1]

    @cached_property
    def sin_y(self):
        return self._axis(self.ly)[2]

    @property
    def quad_weight(self):
        return (self.lx / self.n_quad) * (self.ly / self.n_quad)

    def quad_meshgrid(self):
        return np.meshgrid(self.x_quad, self.y_quad, indexing="ij")


def reconstruct(basis: EigenBasis, coeffs):
    """Field values on the quadrature grid from mode coefficients."""
    return basis.cos_x @ coeffs @ basis.cos_y.T


def gradient(basis: EigenBasis, coeffs):
    gx = basis.sin_x @ coeffs @ basis.cos_y.T
    gy = basis.cos_x @ coeffs @ basis.sin_y.T
    return gx, gy


def project_values(basis: EigenBasis, values):
    """L2 projection of quadrature-grid values onto the basis."""
    return basis.cos_x.T @ values @ basis.cos_y * basis.quad_weight


def project_flux(basis: EigenBasis, vx, vy):
    """Inner products of a vector field against mode gradients."""
    return (
        basis.sin_x.T @ vx @ basis.cos_y + basis.cos_x.T @ vy @ basis.sin_y
    ) * basis.quad_weight


def project(basis: EigenBasis, f):
    """Project a callable f(x, y) or a ScalarField onto the basis."""
    if callable(f):
        x, y = basis.quad_meshgrid()
        return project_values(basis, np.asarray(f(x, y), dtype=float))
    if isinstance(f, ScalarField):
        if f.is_constant():
            # the (0, 0) mode alone, exactly; quadrature of the interpolant
            # would leave round-off in every coefficient
            coeffs = np.zeros((basis.k + 1, basis.k + 1))
            coeffs[0, 0] = f.values.flat[0] * np.sqrt(basis.lx * basis.ly)
            return coeffs
        from scipy.interpolate import RegularGridInterpolator

        g = f.grid
        xs = (np.arange(g.nx) + 0.5) * g.dx
        ys = (np.arange(g.ny) + 0.5) * g.dy
        interp = RegularGridInterpolator(
            (xs, ys), f.values, bounds_error=False, fill_value=None
        )
        x, y = basis.quad_meshgrid()
        pts = np.stack([x.ravel(), y.ravel()], axis=-1)
        vals = interp(pts).reshape(x.shape)
        return project_values(basis, vals)
    raise TypeError("expected a callable or ScalarField")


def evaluate_on_grid(basis: EigenBasis, coeffs, grid: Grid2D) -> ScalarField:
    """Point evaluation of the truncated expansion at FD cell centers."""
    i = np.arange(basis.k + 1)
    xs = (np.arange(grid.nx) + 0.5) * grid.dx
    ys = (np.arange(grid.ny) + 0.5) * grid.dy
    nx_norm = np.sqrt(np.where(i == 0, 1.0, 2.0) / basis.lx)
    ny_norm = np.sqrt(np.where(i == 0, 1.0, 2.0) / basis.ly)
    cx = np.cos(np.outer(xs, i) * np.pi / basis.lx) * nx_norm
    cy = np.cos(np.outer(ys, i) * np.pi / basis.ly) * ny_norm
    return ScalarField(grid, cx @ coeffs @ cy.T)


def cross_errors(fd_state, gstate, basis: EigenBasis) -> dict:
    """RMS difference on the FD grid between an FD state and a Galerkin
    state, per evolved field (phi, phi_a, n, c)."""
    grid = fd_state.grid
    errs = {}
    for name in ("phi", "phi_a", "n", "c"):
        spec = evaluate_on_grid(basis, getattr(gstate, name), grid)
        diff = getattr(fd_state, name).values - spec.values
        errs[name] = float(np.sqrt(np.mean(diff**2)))
    return errs


@dataclass
class GalerkinState:
    t: float
    phi: np.ndarray
    mu: np.ndarray
    phi_a: np.ndarray
    n: np.ndarray
    c: np.ndarray


def mu_coefficients(basis: EigenBasis, params: ModelParams, phi_coeffs):
    """Eliminate the chemical potential: mu_ij = alpha_ij a_ij + <F_eps'(phi), psi>."""
    phi_q = reconstruct(basis, phi_coeffs)
    return basis.alpha * phi_coeffs + project_values(basis, params.f_prime(phi_q))


def galerkin_rhs(t, coeffs, params: ModelParams, basis: EigenBasis):
    """Coefficient time derivatives (a, phi_a, n, c) and the mu coefficients."""
    a, ca, d, e = coeffs
    phi_q = reconstruct(basis, a)
    phia_q = reconstruct(basis, ca)
    n_q = reconstruct(basis, d)
    c_q = reconstruct(basis, e)

    b = basis.alpha * a + project_values(basis, params.f_prime(phi_q))
    s_phi, s_a, r_n, r_c = reaction_rates(params, phi_q, phia_q, n_q, c_q)

    mu_x, mu_y = gradient(basis, b)
    n_x, n_y = gradient(basis, d)
    mob_m = np.broadcast_to(
        np.asarray(params.mobility_m(phi_q, phia_q, n_q), dtype=float), phi_q.shape
    )
    vx = mob_m * (mu_x - params.chi_phi * n_x)
    vy = mob_m * (mu_y - params.chi_phi * n_y)
    da = -project_flux(basis, vx, vy) + project_values(basis, s_phi)

    phia_x, phia_y = gradient(basis, ca)
    c_x, c_y = gradient(basis, e)
    mob_n = np.broadcast_to(
        np.asarray(params.mobility_n(phia_q, c_q), dtype=float), phi_q.shape
    )
    trunc = params.truncation.truncate(phia_q)
    wx = mob_n * phia_x - params.chi_a * trunc * mob_n * c_x
    wy = mob_n * phia_y - params.chi_a * trunc * mob_n * c_y
    dca = -project_flux(basis, wx, wy) + project_values(basis, s_a)

    dd = -basis.alpha * d + project_values(basis, r_n)
    de = -basis.alpha * e + project_values(basis, r_c)
    return (da, dca, dd, de), b


def galerkin_energy(basis: EigenBasis, gstate: GalerkinState, params: ModelParams):
    """Free energy assembled on the quadrature grid (spectral gradients)."""
    w = basis.quad_weight
    phi_q = reconstruct(basis, gstate.phi)
    phia_q = reconstruct(basis, gstate.phi_a)
    n_q = reconstruct(basis, gstate.n)
    c_q = reconstruct(basis, gstate.c)
    entropy = params.truncation.entropy(phia_q)
    e = float(np.sum(params.f_density(phi_q) + entropy)) * w
    for coeffs in (gstate.phi, gstate.n, gstate.c):
        gx, gy = gradient(basis, coeffs)
        e += 0.5 * float(np.sum(gx * gx + gy * gy)) * w
    e -= params.chi_phi * float(np.sum(n_q * phi_q)) * w
    e -= params.chi_a * float(np.sum(phia_q * c_q)) * w
    return e


def initial_galerkin_state(basis: EigenBasis, params: ModelParams, fields):
    """Project initial data (callables or ScalarFields, keyed by name)."""
    a = project(basis, fields["phi"])
    ca = project(basis, fields["phi_a"])
    d = project(basis, fields["n"])
    e = project(basis, fields["c"])
    b = mu_coefficients(basis, params, a)
    return GalerkinState(0.0, a, b, ca, d, e)


def integrate_galerkin(
    g0: GalerkinState,
    params: ModelParams,
    basis: EigenBasis,
    t_end: float,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    t_eval=None,
):
    """Adaptive explicit Runge-Kutta integration of the projected system.

    Returns the list of GalerkinStates at the requested times (final time
    only by default).  Raises StepSizeUnderflow when the integrator cannot
    proceed, which usually signals Yosida stiffness: in singular mode the
    regularization parameter must satisfy eps >= 1e-2 at oracle scales.
    """
    if basis.k > MAX_MODES_PER_DIM:
        raise ValueError(
            f"oracle scale is capped at {MAX_MODES_PER_DIM} modes per dimension"
        )
    if params.singular and params.eps < 1e-2:
        raise ValueError(
            "singular-mode spectral integration needs eps >= 1e-2 "
            "(Yosida slope 1/eps drives the explicit step size)"
        )
    shape = (basis.k + 1, basis.k + 1)
    size = shape[0] * shape[1]

    def unpack(y):
        return [y[i * size : (i + 1) * size].reshape(shape) for i in range(4)]

    def fun(t, y):
        derivs, _ = galerkin_rhs(t, unpack(y), params, basis)
        return np.concatenate([d.ravel() for d in derivs])

    y0 = np.concatenate(
        [g0.phi.ravel(), g0.phi_a.ravel(), g0.n.ravel(), g0.c.ravel()]
    )
    sol = solve_ivp(
        fun,
        (g0.t, t_end),
        y0,
        method="RK45",
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise StepSizeUnderflow(sol.message)
    states = []
    for idx, t in enumerate(sol.t):
        a, ca, d, e = unpack(sol.y[:, idx])
        b = mu_coefficients(basis, params, a)
        states.append(GalerkinState(float(t), a, b, ca, d, e))
    return states
