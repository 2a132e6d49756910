"""Semi-implicit time integration of the regularized tumor growth system.

One time step advances the five fields in four substeps:

1. nutrient n: backward Euler; in singular mode the n-dependence of its
   source is kept linearly implicit, which makes the update an M-matrix
   solve and preserves 0 <= n <= 1 exactly (up to linear-solve tolerance),
2. signal c: same structure in both modes, preserving 0 <= c <= 1,
3. endothelial phase phi_a: implicit diffusion with the old-state mobility,
   explicit chemotaxis flux chi_a T_eps(phi_a) grad c driven by the fresh
   signal gradient (``ModelParams.truncation`` is the one T_eps), and the
   logistic source split with the decay part implicit,
4. the Cahn-Hilliard pair (phi, mu): coupled Newton solve with the convex
   part of the potential implicit (through its Yosida approximation in
   singular mode) and the concave perturbation explicit, optionally
   stabilized.  Each Newton iterate evaluates the convex part once
   (``ModelParams.convex_slope_and_curvature``): the residual, the Jacobian
   and the new chemical potential share that evaluation, so a step with k
   Newton iterations solves the resolvent k + 1 times.  The proliferation
   source is ``sources.proliferation`` at the old phi and the fresh n.

Each substep is an implicit (proximal) step of the shared free energy in its
own variable with the others frozen at their most recent values, so with the
reaction sources switched off the discrete energy is non-increasing step by
step, not just in the limit.  No field is ever clipped; the confinement
properties must emerge from the scheme and are monitored, not enforced.
"""

from __future__ import annotations

import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dctn, idctn

from . import diagnostics
from .errors import (
    ConvergenceError,
    InitialDataError,
    NewtonDivergence,
    NonFiniteField,
)
from .fields import (
    Grid2D,
    ScalarField,
    cg_solve,
    div_mob_grad_array,
    lap_array,
    neumann_eigenvalues,
)
from .sources import (
    ModelParams,
    h,
    positive_part,
    proliferation,
    source_n,
    theta,
)


@dataclass
class State:
    t: float
    phi: ScalarField
    mu: ScalarField
    phi_a: ScalarField
    n: ScalarField
    c: ScalarField

    @property
    def grid(self) -> Grid2D:
        return self.phi.grid

    def copy(self):
        return State(
            self.t,
            self.phi.copy(),
            self.mu.copy(),
            self.phi_a.copy(),
            self.n.copy(),
            self.c.copy(),
        )

    def is_finite(self):
        return all(
            f.is_finite() for f in (self.phi, self.mu, self.phi_a, self.n, self.c)
        )


@dataclass
class Forcing:
    """Optional manufactured-solution forcing terms g(x, y, t) per equation."""

    phi: object = None
    phi_a: object = None
    n: object = None
    c: object = None

    def eval(self, name, grid, t):
        fn = getattr(self, name)
        if fn is None:
            return 0.0
        x, y = grid.centers()
        return np.asarray(fn(x, y, t), dtype=float)


@dataclass
class SolverConfig:
    dt: float = 1e-3
    t_end: float = 1.0
    newton_tol: float = 1e-10
    newton_max: int = 50
    linear_tol: float = 1e-10
    stabilization: float = 0.0
    sources_off: bool = False  # disables the n and c reaction sources
    linear_solver: str = "krylov"  # krylov | direct (Cahn-Hilliard block)
    forcing: Forcing | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.linear_solver not in ("krylov", "direct"):
            raise ValueError(f"unknown linear solver {self.linear_solver!r}")
        if self.stabilization < 0:
            raise ValueError("stabilization must be nonnegative")


@dataclass
class StepReport:
    newton_iters: int = 0
    newton_residual: float = 0.0
    linear_iters: dict = field(default_factory=dict)
    used_direct: bool = False
    wall_time: float = 0.0


@dataclass
class RunSinks:
    on_record: object = None
    on_state: object = None
    state_every: int = 0


@dataclass
class RunResult:
    records: list
    states: list
    final_state: State
    reports: list


# ------------------------------------------------------------- utilities


@lru_cache(maxsize=8)
def _minus_lap_matrix(grid: Grid2D):
    return _mob_stencil_matrix(grid, None)


def _mob_stencil_matrix(grid: Grid2D, mob):
    """Sparse matrix of v -> -div(mob grad v); mob None means -laplacian."""
    nx, ny = grid.nx, grid.ny
    if mob is None:
        mx = np.ones((nx - 1, ny))
        my = np.ones((nx, ny - 1))
    else:
        mx = 0.5 * (mob[1:, :] + mob[:-1, :])
        my = 0.5 * (mob[:, 1:] + mob[:, :-1])
    tx = (mx / grid.dx**2).ravel()
    ty = (my / grid.dy**2).ravel()
    idx = np.arange(nx * ny).reshape(nx, ny)
    return _assemble(nx * ny, idx, tx, ty)


def _assemble(n, idx, tx, ty):
    a = idx[:-1, :].ravel()
    b = idx[1:, :].ravel()
    c = idx[:, :-1].ravel()
    d = idx[:, 1:].ravel()
    rows = np.concatenate([a, b, a, b, c, d, c, d])
    cols = np.concatenate([a, b, b, a, c, d, d, c])
    data = np.concatenate([tx, tx, -tx, -tx, ty, ty, -ty, -ty])
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def _helmholtz_solve(grid, diag_coef, rhs, rel_tol):
    """CG solve of (diag_coef - lap) u = rhs; diag_coef > 0 cellwise."""

    def apply_op(v):
        return diag_coef * v - lap_array(v, grid.dx, grid.dy)

    u, iters = cg_solve(apply_op, rhs, x0=None, rel_tol=rel_tol)
    return u, iters


@contextmanager
def _substep(name, t):
    """Re-raise a ConvergenceError inside the block with the substep and t."""
    try:
        yield
    except ConvergenceError as exc:
        raise ConvergenceError(f"{name} substep at t={t:.6g}: {exc}") from exc


# --------------------------------------------------------------- the step


def step(state: State, params: ModelParams, cfg: SolverConfig):
    """Advance the state by one time step; returns (new_state, report).

    A ConvergenceError from a linear solve or the resolvent is re-raised
    naming the substep and the new time.
    """
    t0 = time.perf_counter()
    grid = state.grid
    dt = cfg.dt
    t_new = state.t + dt
    report = StepReport()

    phi_o = state.phi.values
    phia_o = state.phi_a.values
    n_o = state.n.values
    c_o = state.c.values

    forcing = cfg.forcing or Forcing()

    # evaluated once per step at the old state
    h_phi_o = h(phi_o)
    phia_pos_o = positive_part(phia_o)
    mob_m_o = np.broadcast_to(
        np.asarray(params.mobility_m(phi_o, phia_o, n_o), dtype=float), phi_o.shape
    ).copy()
    mob_n_o = np.broadcast_to(
        np.asarray(params.mobility_n(phia_o, c_o), dtype=float), phi_o.shape
    ).copy()

    # 1. nutrient --------------------------------------------------------
    g_n = forcing.eval("n", grid, t_new)
    if params.singular:
        growth = 1.0 - h_phi_o + phia_pos_o
        phi_pos_o = positive_part(phi_o)
        if cfg.sources_off:
            diag = np.full_like(n_o, 1.0 / dt)
            rhs = n_o / dt + params.chi_phi * phi_pos_o + g_n
        else:
            # source kept linearly implicit in n: M-matrix, exact min-max
            diag = 1.0 / dt + growth + phi_pos_o
            rhs = n_o / dt + params.chi_phi * phi_pos_o + growth + g_n
    else:
        diag = np.full_like(n_o, 1.0 / dt)
        rhs = n_o / dt + params.chi_phi * phi_o + g_n
        if not cfg.sources_off:
            rhs = rhs + source_n(params, phi_o, phia_o, n_o)
    with _substep("nutrient n", t_new):
        n_new, it_n = _helmholtz_solve(grid, diag, rhs, cfg.linear_tol)
    report.linear_iters["n"] = it_n

    # 2. signal ----------------------------------------------------------
    g_c = forcing.eval("c", grid, t_new)
    if cfg.sources_off:
        diag = np.full_like(c_o, 1.0 / dt)
        rhs = c_o / dt + params.chi_a * phia_pos_o + g_c
    else:
        release = h_phi_o * positive_part(params.delta_n - n_o)
        diag = 1.0 / dt + release + phia_pos_o
        rhs = c_o / dt + params.chi_a * phia_pos_o + release + g_c
    with _substep("signal c", t_new):
        c_new, it_c = _helmholtz_solve(grid, diag, rhs, cfg.linear_tol)
    report.linear_iters["c"] = it_c

    # 3. endothelial phase ------------------------------------------------
    g_a = forcing.eval("phi_a", grid, t_new)
    chem_coef = params.truncation.truncate(phia_o) * mob_n_o
    chem = div_mob_grad_array(chem_coef, c_new, grid.dx, grid.dy)
    theta_o = theta(params, phi_o, c_o)
    decay = theta_o * (params.kappa_inf * phia_pos_o - params.kappa0)

    def apply_phia(v):
        return (
            v / dt
            + decay * v
            - div_mob_grad_array(mob_n_o, v, grid.dx, grid.dy)
        )

    rhs_a = phia_o / dt - params.chi_a * chem + g_a
    with _substep("endothelial phi_a", t_new):
        phia_new, it_a = cg_solve(apply_phia, rhs_a, x0=phia_o.copy(),
                                  rel_tol=cfg.linear_tol)
    report.linear_iters["phi_a"] = it_a

    # 4. Cahn-Hilliard pair ----------------------------------------------
    g_phi = forcing.eval("phi", grid, t_new)
    prolif = proliferation(params, phi_o, n_new)
    pi_o = params.potential.concave_slope(phi_o)
    s = cfg.stabilization
    chi_n_term = params.chi_phi * n_new

    def residual(phi):
        """(residual, chemical potential, convex curvature) at phi."""
        with _substep("Cahn-Hilliard", t_new):
            slope, curv = params.convex_slope_and_curvature(phi)
        mu = -lap_array(phi, grid.dx, grid.dy) + slope + s * (phi - phi_o) + pi_o
        res = (
            (phi - phi_o) / dt
            - div_mob_grad_array(mob_m_o, mu - chi_n_term, grid.dx, grid.dy)
            - prolif
            + params.m * phi
            - g_phi
        )
        return res, mu, curv

    phi = phi_o.copy()
    scale = max(1.0, float(np.sqrt(np.mean((phi_o / dt) ** 2))))
    newton_ok = False
    res, mu_new, curv = residual(phi)
    for it in range(1, cfg.newton_max + 1):
        rms = float(np.sqrt(np.mean(res**2)))
        if rms <= cfg.newton_tol * scale:
            newton_ok = True
            report.newton_iters = it - 1
            break
        delta = _solve_ch_jacobian(
            grid, mob_m_o, curv + s, 1.0 / dt + params.m, -res, cfg, report, t_new
        )
        phi = phi + delta
        res, mu_new, curv = residual(phi)
    else:
        rms = float(np.sqrt(np.mean(res**2)))
        if rms <= cfg.newton_tol * scale:
            newton_ok = True
            report.newton_iters = cfg.newton_max
    report.newton_residual = float(np.sqrt(np.mean(res**2)))
    if not newton_ok:
        raise NewtonDivergence(
            f"phase-field Newton stalled at t={t_new:.6g}, "
            f"residual {report.newton_residual:.3e}",
            residual=report.newton_residual,
        )

    report.wall_time = time.perf_counter() - t0

    new_state = State(
        t_new,
        ScalarField(grid, phi),
        ScalarField(grid, mu_new),
        ScalarField(grid, phia_new),
        ScalarField(grid, n_new),
        ScalarField(grid, c_new),
    )
    if not new_state.is_finite():
        raise NonFiniteField(f"non-finite field values at t={t_new:.6g}")
    return new_state, report


def _solve_ch_jacobian(grid, mob, curv, diag0, rhs, cfg, report, t):
    """Solve J delta = rhs with J v = diag0 v - div(mob grad(-lap v + curv v)).

    BiCGStab iterations add to ``report.linear_iters["ch"]``; a BiCGStab
    failure falls back to sparse LU with a warning naming the time t.
    """
    if cfg.linear_solver == "direct":
        report.used_direct = True
        return _solve_ch_direct(grid, mob, curv, diag0, rhs)

    lam = neumann_eigenvalues(grid)
    mob_bar = float(np.mean(mob))
    curv_bar = float(np.mean(curv))
    denom = diag0 + mob_bar * lam * (lam + curv_bar)

    def apply_j(v):
        v2 = np.asarray(v, dtype=float).reshape(grid.nx, grid.ny)
        inner = -lap_array(v2, grid.dx, grid.dy) + curv * v2
        out = diag0 * v2 - div_mob_grad_array(mob, inner, grid.dx, grid.dy)
        return out.ravel()

    def apply_pinv(v):
        v2 = np.asarray(v, dtype=float).reshape(grid.nx, grid.ny)
        sol = idctn(dctn(v2, norm="ortho") / denom, norm="ortho")
        return sol.ravel()

    iters = 0

    def count_iteration(_xk):
        nonlocal iters
        iters += 1

    n = grid.nx * grid.ny
    op = spla.LinearOperator((n, n), matvec=apply_j, dtype=np.float64)
    pre = spla.LinearOperator((n, n), matvec=apply_pinv, dtype=np.float64)
    sol, info = spla.bicgstab(
        op, rhs.ravel(), rtol=cfg.linear_tol, atol=0.0, M=pre,
        maxiter=400, callback=count_iteration,
    )
    report.linear_iters["ch"] = report.linear_iters.get("ch", 0) + iters
    if info != 0:
        warnings.warn(
            f"Cahn-Hilliard BiCGStab failed at t={t:.6g} (info={info}); "
            "falling back to sparse LU",
            RuntimeWarning,
            stacklevel=2,
        )
        report.used_direct = True
        return _solve_ch_direct(grid, mob, curv, diag0, rhs)
    return sol.reshape(grid.nx, grid.ny)


def _solve_ch_direct(grid, mob, curv, diag0, rhs):
    n = grid.nx * grid.ny
    k = _minus_lap_matrix(grid)
    m1 = _mob_stencil_matrix(grid, mob)
    j = sp.eye(n, format="csr") * diag0 + m1 @ (
        k + sp.diags(curv.ravel(), format="csr")
    )
    sol = spla.splu(j.tocsc()).solve(rhs.ravel())
    return sol.reshape(grid.nx, grid.ny)


# ------------------------------------------------------------------ runs


def validate_initial_data(state: State, params: ModelParams):
    """Check admissibility of the initial data, raising InitialDataError."""
    for name, f in (
        ("phi", state.phi),
        ("phi_a", state.phi_a),
        ("n", state.n),
        ("c", state.c),
    ):
        if not f.is_finite():
            raise InitialDataError(f"{name}0-finite", "initial field not finite")
        if f.grid != state.grid:
            raise InitialDataError("grid", "initial fields on different grids")

    if not np.all(np.isfinite(params.potential.value(state.phi.values))):
        raise InitialDataError(
            "phi0-potential-domain",
            "initial tumor fraction leaves the potential's proper domain",
        )
    y0 = float(np.mean(state.phi.values))
    if not params.potential.mean_admissible(y0):
        raise InitialDataError(
            "phi0-mean-domain",
            f"initial spatial mean {y0:.4g} outside the admissible range "
            "of the potential's monotone part",
        )
    if np.any(state.phi_a.values < 0.0):
        raise InitialDataError(
            "phia0-negative", "initial endothelial fraction must be nonnegative"
        )
    if np.any((state.c.values < 0.0) | (state.c.values > 1.0)):
        raise InitialDataError(
            "c0-range", "initial signal concentration must lie in [0, 1]"
        )
    if params.singular and np.any(
        (state.n.values < 0.0) | (state.n.values > 1.0)
    ):
        warnings.warn(
            "singular-mode nutrient confinement expects 0 <= n0 <= 1; "
            "the min-max monitor may flag this run",
            stacklevel=2,
        )


def initialize_mu(state: State, params: ModelParams) -> State:
    """Fill mu from phi via the regularized chemical potential relation."""
    grid = state.grid
    phi = state.phi.values
    # (-lap + convex) + concave, the summation order the step uses
    mu = (
        -lap_array(phi, grid.dx, grid.dy)
        + params.convex_slope(phi)
        + params.potential.concave_slope(phi)
    )
    return replace(state, mu=ScalarField(grid, mu))


def run(
    initial: State,
    params: ModelParams,
    cfg: SolverConfig,
    sinks: RunSinks | None = None,
    record_every: int = 1,
    keep_states: int = 0,
):
    """Advance to t_end, collecting diagnostics records along the way."""
    validate_initial_data(initial, params)
    state = initialize_mu(initial.copy(), params)
    tracker = diagnostics.DiagnosticsTracker(params, state)

    records = [tracker.observe(state, cfg.dt)]
    states = [state.copy()] if keep_states else []
    reports = []
    if sinks and sinks.on_record:
        sinks.on_record(records[0])
    if sinks and sinks.on_state and sinks.state_every:
        sinks.on_state(state)

    n_steps = int(round(cfg.t_end / cfg.dt))
    if abs(n_steps * cfg.dt - cfg.t_end) > 1e-9 * cfg.t_end:
        raise ValueError("t_end must be an integer number of steps")

    for k in range(1, n_steps + 1):
        state, rep = step(state, params, cfg)
        reports.append(rep)
        if k % record_every == 0 or k == n_steps:
            rec = tracker.observe(state, cfg.dt)
            records.append(rec)
            if sinks and sinks.on_record:
                sinks.on_record(rec)
        if keep_states and (k % keep_states == 0 or k == n_steps):
            states.append(state.copy())
        if sinks and sinks.on_state and sinks.state_every and (
            k % sinks.state_every == 0 or k == n_steps
        ):
            sinks.on_state(state)

    return RunResult(records, states, state, reports)
