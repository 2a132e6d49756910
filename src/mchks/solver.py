"""Semi-implicit time integration of the regularized tumor growth system.

One time step advances the five fields in four substeps:

1. nutrient n: backward Euler; in singular mode the loss of its source is
   kept linearly implicit, which makes the update an M-matrix solve and
   preserves 0 <= n <= 1 exactly (up to linear-solve tolerance),
2. signal c: same structure in both modes, preserving 0 <= c <= 1,
3. endothelial phase phi_a: implicit diffusion with the old-state mobility,
   explicit chemotaxis flux chi_a T_eps(phi_a) grad c driven by the fresh
   signal gradient (``ModelParams.truncation`` is the one T_eps), and the
   logistic source -loss phi_a (``endothelial_loss``) implicit in phi_a,
4. the Cahn-Hilliard pair (phi, mu): coupled Newton solve with the convex
   part of the potential implicit (through its Yosida approximation in
   singular mode) and the concave perturbation explicit, optionally
   stabilized.  Newton starts from the extrapolation 2 phi_o - phi_prev
   (``State.phi_prev``, the phi of the step before), or from phi_o when
   the state has no history.  It is an inexact Newton method with an
   unchanged stopping test rms(res) <= newton_tol * scale: correction k is
   solved to the relative residual max(linear_tol, min(FORCING_MAX,
   FORCING_SAFETY * newton_tol * scale / rms_k)), loose while the residual
   is large and tight near the end (Dembo, Eisenstat & Steihaug 1982;
   Eisenstat & Walker 1996).  Each Newton iterate evaluates the convex part
   once: the residual, the Jacobian and the new chemical potential share
   that evaluation.  The first one of a step is ``ModelParams.convex_part``
   at the start, its resolvent solve started from r itself.  Each later one
   is ``ConvexEvaluation.at`` the corrected iterate: its resolvent solve
   starts from the tangent of the evaluation before, whose curvature the
   Jacobian has read, and it keeps no reference to that evaluation.  The
   evaluation at the final iterate travels with the returned state
   (``State.convex``), where ``diagnostics`` reads the energy density from
   it.  The next step's first residual reuses it when
   Newton starts at that very phi array, that is when the state has no
   history; a step with k Newton iterations then solves the resolvent k
   times, and k + 1 times from an extrapolated start.  The proliferation
   source is ``sources.proliferation`` at the old phi and the fresh n.

Each mobility law supplies the step's div(mob grad) operator, a numpy
slot stencil (``fields.SlotStencil``): a constant law reads the stencil
cached for its value, and a variable law fills one per step
(``fields.div_mob_grad_matrix``).  The step reads the cached Laplacian
(``fields.laplacian_matrix``) too.
Substeps 1-3 are one implicit solve,
(1/dt + loss - A) u = u_o/dt + explicit + g by CG started from the old value
u_o (``_helmholtz_solve``), where A is the Laplacian L for n and c and the
operator A_n = div(b_n grad) for phi_a.  The Newton residual and BiCGStab
apply the stencils, and the sparse-LU fallback factors their CSR matrices
(``SlotStencil.tocsr``), so the Krylov and LU paths solve one operator.
BiCGStab is the package's own (``spla.bicgstab``, scipy's arithmetic in
scipy's order), preconditioned by the cosine transform ``fields.dct2`` /
``fields.idct2`` in single precision; everything else is float64.  A step
on a grid of up to ``fields.DENSE_DCT_MAX`` cells per axis imports no scipy
module; a larger grid loads ``scipy.fft`` for its transforms, and the
direct path loads ``scipy.sparse`` and scipy's sparse LU
(``scipy.sparse.linalg.splu``) the first time it runs.
The explicit chemotaxis flux, one application with its own coefficient,
uses the face-flux stencil.

Each substep is an implicit (proximal) step of the shared free energy in its
own variable with the others frozen at their most recent values, so with the
reaction sources switched off the discrete energy is non-increasing step by
step, not just in the limit.  No field is ever clipped; the confinement
properties must emerge from the scheme and are monitored, not enforced.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import spla
from .errors import (
    BoundsViolation,
    ConvergenceError,
    InitialDataError,
    NewtonDivergence,
    NonFiniteField,
)
from .fields import (
    Grid2D,
    cg_solve,
    dct2,
    div_mob_grad_array,
    idct2,
    laplacian_matrix,
    neumann_eigenvalues,
)
from .potentials import ConvexEvaluation
from .sources import (
    ModelParams,
    endothelial_loss,
    h,
    nutrient_split,
    p_switch,
    positive_part,
    proliferation,
    signal_split,
)

NEWTON_MAX = 50  # Cahn-Hilliard Newton iterations per step
# forcing term of the inexact Newton loop: correction k is solved to
# max(linear_tol, min(FORCING_MAX, FORCING_SAFETY * newton_tol * scale / rms_k))
FORCING_MAX = 1e-2
FORCING_SAFETY = 0.1


@dataclass
class State:
    """The five fields as float (nx, ny) arrays on one grid at time t."""

    t: float
    grid: Grid2D
    phi: np.ndarray
    mu: np.ndarray
    phi_a: np.ndarray
    n: np.ndarray
    c: np.ndarray
    # the convex part evaluated at the phi array, as the step or initialize_mu
    # left it; ModelParams.convex_part reuses it only for that very array
    convex: ConvexEvaluation | None = field(default=None, repr=False, compare=False)
    # phi of the step before, set by step; the next Newton loop starts from
    # the extrapolation 2 phi - phi_prev
    phi_prev: np.ndarray | None = field(default=None, repr=False, compare=False)

    def copy(self):
        return State(
            self.t,
            self.grid,
            self.phi.copy(),
            self.mu.copy(),
            self.phi_a.copy(),
            self.n.copy(),
            self.c.copy(),
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
    linear_tol: float = 1e-10
    stabilization: float = 0.0
    sources_off: bool = False  # disables the n and c reaction sources
    linear_solver: str = "krylov"  # krylov | direct (Cahn-Hilliard block)
    forcing: Forcing | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.newton_tol <= 0 or self.linear_tol <= 0:
            raise ValueError("newton_tol and linear_tol must be positive")
        if self.linear_solver not in ("krylov", "direct"):
            raise ValueError(f"unknown linear solver {self.linear_solver!r}")
        if self.stabilization < 0:
            raise ValueError("stabilization must be nonnegative")
        if self.t_end < 0:
            raise ValueError("t_end must be nonnegative")
        if abs(self.steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError("t_end must be an integer number of steps")

    @property
    def steps(self) -> int:
        """The number of steps of length dt from 0 to t_end."""
        return int(round(self.t_end / self.dt))


@dataclass
class StepReport:
    newton_iters: int = 0
    newton_residual: float = 0.0
    linear_iters: dict = field(default_factory=dict)
    used_direct: bool = False


# ------------------------------------------------------------- utilities


def _apply(mat, v):
    """mat @ v for a field stored as an (nx, ny) array."""
    return (mat @ v.ravel()).reshape(v.shape)


def _helmholtz_solve(a, diag_coef, rhs, x0, rel_tol):
    """CG solve of (diag_coef - A) u = rhs from x0, for the step's operator
    A and diag_coef > 0 cellwise (or a scalar)."""
    diag_flat = np.ravel(diag_coef)

    def apply_op(v):
        return diag_flat * v - a @ v

    u, iters = cg_solve(apply_op, rhs.ravel(), x0=x0.ravel(), rel_tol=rel_tol)
    return u.reshape(rhs.shape), iters


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
    grid = state.grid
    dt = cfg.dt
    t_new = state.t + dt
    report = StepReport()

    phi_o, phia_o, n_o, c_o = state.phi, state.phi_a, state.n, state.c

    forcing = cfg.forcing or Forcing()

    mob_m_o = params.mobility_m(phi_o, phia_o, n_o)
    mob_n_o = params.mobility_n(phia_o, c_o)
    # the one operator of each mobility, shared by every solve
    lap = laplacian_matrix(grid)
    a_m = params.mobility_m.operator(grid, mob_m_o)
    a_n = params.mobility_n.operator(grid, mob_n_o)

    def implicit(label, u_o, explicit, loss, a):
        """Substeps 1-3: the CG solve of (1/dt + loss - A) u = u_o/dt +
        explicit + g from u_o; the label ends in the field's name."""
        name = label.rpartition(" ")[2]
        rhs = u_o / dt + explicit + forcing.eval(name, grid, t_new)
        with _substep(label, t_new):
            u, report.linear_iters[name] = _helmholtz_solve(
                a, 1.0 / dt + loss, rhs, u_o, cfg.linear_tol)
        return u

    # n and c take the (gain, loss) split of their source at the old state,
    # which sources_off zeroes, and add their production explicitly
    sources = not cfg.sources_off

    # 1. nutrient --------------------------------------------------------
    gain, loss = nutrient_split(params, phi_o, phia_o) if sources else (0.0, 0.0)
    if not params.singular:
        # smooth mode keeps the whole nutrient source explicit
        gain, loss = gain - loss * h(n_o), 0.0
    n_new = implicit("nutrient n", n_o,
                     params.chi_phi * p_switch(params, phi_o) + gain, loss, lap)

    # 2. signal ----------------------------------------------------------
    gain, loss = signal_split(params, phi_o, phia_o, n_o) if sources else (0.0, 0.0)
    c_new = implicit("signal c", c_o,
                     params.chi_a * positive_part(phia_o) + gain, loss, lap)

    # 3. endothelial phase ------------------------------------------------
    chem_coef = params.truncation.truncate(phia_o) * mob_n_o
    chem = div_mob_grad_array(chem_coef, c_new, grid.dx, grid.dy)
    phia_new = implicit("endothelial phi_a", phia_o, -params.chi_a * chem,
                        endothelial_loss(params, phi_o, phia_o, c_o), a_n)

    # 4. Cahn-Hilliard pair ----------------------------------------------
    g_phi = forcing.eval("phi", grid, t_new)
    prolif = proliferation(params, phi_o, n_new)
    pi_o = params.potential.concave_slope(phi_o)
    s = cfg.stabilization
    chi_n_term = params.chi_phi * n_new

    def residual(convex):
        """(residual, chemical potential) at convex.r."""
        phi = convex.r
        with _substep("Cahn-Hilliard", t_new):
            slope = convex.slope
        mu = -_apply(lap, phi) + slope + s * (phi - phi_o) + pi_o
        res = (
            (phi - phi_o) / dt
            - _apply(a_m, mu - chi_n_term)
            - prolif
            + params.m * phi
            - g_phi
        )
        return res, mu

    mob_bar = float(mob_m_o.mean())
    scale = max(1.0, float(np.sqrt(((phi_o / dt) ** 2).mean())))
    tol = cfg.newton_tol * scale
    # Newton starts at 2 phi_o - phi_prev, or at phi_o with the evaluation
    # the state carries when there is no history
    if state.phi_prev is None:
        start = phi_o
    else:
        start = 2.0 * phi_o - state.phi_prev
    convex = params.convex_part(start, state.convex)
    res, mu_new = residual(convex)
    rms = float(np.sqrt((res**2).mean()))
    while not rms <= tol:  # a NaN residual fails too
        if report.newton_iters == NEWTON_MAX:
            raise NewtonDivergence(
                f"phase-field Newton stalled at t={t_new:.6g}, residual {rms:.3e}",
                residual=rms,
            )
        # each correction only as accurate as the stopping test needs
        rtol = max(cfg.linear_tol, min(FORCING_MAX, FORCING_SAFETY * tol / rms))
        delta = _solve_ch_jacobian(
            grid, a_m, mob_bar, convex.curvature + s, 1.0 / dt + params.m, -res,
            cfg, report, t_new, rtol,
        )
        # its resolvent solve starts from the tangent of the last evaluation
        convex = convex.at(convex.r + delta)
        res, mu_new = residual(convex)
        rms = float(np.sqrt((res**2).mean()))
        report.newton_iters += 1
    report.newton_residual = rms

    # the new phi is convex.r itself, so that the evaluation it carries is
    # reused; a phi accepted at phi_o itself is copied, and the next step solves
    phi = phi_o.copy() if convex.r is phi_o else convex.r
    new_fields = (phi, mu_new, phia_new, n_new, c_new)
    if not all(np.isfinite(f).all() for f in new_fields):
        raise NonFiniteField(f"non-finite field values at t={t_new:.6g}")
    return State(t_new, grid, *new_fields, convex, phi_o), report


def _solve_ch_jacobian(grid, a_m, mob_bar, curv, diag0, rhs, cfg, report, t,
                       rtol):
    """Solve J delta = rhs with J = diag0 I - A_m (diag(curv) - L).

    A_m is the step's div(mob grad), as its mobility law supplies it, and L
    the cached Laplacian (``fields.laplacian_matrix``);
    BiCGStab applies J through their stencils and the sparse-LU path
    factors the same product of their CSR matrices, so both paths solve one
    operator.  The cosine-transform
    preconditioner freezes the mobility at its mean ``mob_bar`` and the
    curvature at its mean, and it runs in float32: v is rounded to float32,
    transformed, scaled by the float32 reciprocal of its eigenvalues and
    transformed back, and the result widened to float64.  That is sound
    because the preconditioner is only an approximation of J anyway, and
    BiCGStab preconditions from the right and updates x and r from the same
    preconditioned vectors, so its rounding can cost iterations but not
    attainable accuracy (Carson & Higham, SISC 40, 2018).  The operator,
    the Krylov vectors and the sparse-LU path stay float64.

    ``report.linear_iters["ch"]`` grows by ceil(matvecs / 2): the BiCGStab
    iterations, counting a solve that converges at its half step as one.
    BiCGStab stops at the relative residual ``rtol``; the sparse-LU path
    solves exactly and ignores it.  A BiCGStab failure falls back to sparse
    LU with a warning naming the time t.
    """
    if cfg.linear_solver == "direct":
        report.used_direct = True
        return _solve_ch_direct(grid, a_m, curv, diag0, rhs)

    lap = laplacian_matrix(grid)
    lam = neumann_eigenvalues(grid)
    curv_flat = curv.ravel()
    curv_bar = float(curv.mean())
    inv_denom = (1.0 / (diag0 + mob_bar * lam * (lam + curv_bar))).astype(
        np.float32)
    matvecs = 0

    def apply_j(v):
        nonlocal matvecs
        matvecs += 1
        return diag0 * v - a_m @ (curv_flat * v - lap @ v)

    def apply_pinv(v):
        coef = dct2(v.reshape(grid.nx, grid.ny).astype(np.float32))
        coef *= inv_denom
        return idct2(coef).astype(np.float64).ravel()

    sol, info = spla.bicgstab(
        apply_j, rhs.ravel(), rtol=rtol, atol=0.0, M=apply_pinv, maxiter=400
    )
    report.linear_iters["ch"] = report.linear_iters.get("ch", 0) + (matvecs + 1) // 2
    if info != 0:
        warnings.warn(
            f"Cahn-Hilliard BiCGStab failed at t={t:.6g} (info={info}); "
            "falling back to sparse LU",
            RuntimeWarning,
            stacklevel=2,
        )
        report.used_direct = True
        return _solve_ch_direct(grid, a_m, curv, diag0, rhs)
    return sol.reshape(grid.nx, grid.ny)


def _solve_ch_direct(grid, a_m, curv, diag0, rhs):
    """Sparse-LU solve of diag0 I - A_m (diag(curv) - L), as in BiCGStab,
    on the CSR matrices of the same stencils (imports ``scipy.sparse`` and
    ``scipy.sparse.linalg``)."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n = grid.nx * grid.ny
    inner = sp.diags(curv.ravel(), format="csr") - laplacian_matrix(grid).tocsr()
    j = sp.eye(n, format="csr") * diag0 - a_m.tocsr() @ inner
    sol = splu(j.tocsc()).solve(rhs.ravel())
    return sol.reshape(grid.nx, grid.ny)


# ------------------------------------------------------------------ runs


@dataclass(frozen=True)
class Hypothesis:
    """One entry of the hypothesis table: whether the data meet it, and
    whether a run refuses data that miss it or only warns."""

    name: str
    holds: bool
    refused: bool
    message: str


def _within_bounds(slot, law, *fields):
    """The hypothesis that a mobility law, evaluated on the initial field
    arrays, lies inside its declared bounds [m0, m_up]."""
    m0, m_up = law.bounds
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundsViolation)  # reported here
        values = law(*fields)
    lo, hi = float(np.min(values)), float(np.max(values))
    return Hypothesis(
        f"{slot}-bounds", m0 <= lo and hi <= m_up, False,
        f"{type(law).__name__} spans [{lo:.3g}, {hi:.3g}] on the initial "
        f"data, outside its bounds [m0, m_up] = [{m0:g}, {m_up:g}]")


def hypotheses(state: State, params: ModelParams):
    """The hypotheses of the analysis on (initial state, params), in order.

    Each entry is evaluated as it is asked for, so a caller that stops at a
    refused miss evaluates nothing after it (the mobilities need finite
    fields of the grid's shape).
    """
    fields = {"phi": state.phi, "phi_a": state.phi_a, "n": state.n, "c": state.c}
    for name, f in fields.items():
        yield Hypothesis(f"{name}0-finite", bool(np.all(np.isfinite(f))), True,
                         "initial field not finite")
    yield Hypothesis(
        "grid", all(np.shape(f) == state.grid.shape for f in fields.values()),
        True, f"initial fields not all of the grid's shape {state.grid.shape}")
    phi, phi_a, n, c = fields.values()
    yield Hypothesis(
        "phi0-potential-domain",
        bool(np.all(np.isfinite(params.potential.value(phi)))), True,
        "initial tumor fraction leaves the potential's proper domain")
    y0 = float(np.mean(phi))
    yield Hypothesis(
        "phi0-mean-domain", params.potential.mean_admissible(y0), True,
        f"initial spatial mean {y0:.4g} outside the admissible range "
        "of the potential's monotone part")
    yield Hypothesis("phia0-negative", bool(np.all(phi_a >= 0.0)), True,
                     "initial endothelial fraction must be nonnegative")
    yield Hypothesis("c0-range", bool(np.all((c >= 0.0) & (c <= 1.0))), True,
                     "initial signal concentration must lie in [0, 1]")
    yield Hypothesis(
        "n0-range",
        not params.singular or bool(np.all((n >= 0.0) & (n <= 1.0))), False,
        "singular-mode nutrient confinement expects 0 <= n0 <= 1; "
        "the min-max monitor may flag this run")
    yield _within_bounds("mobility_m", params.mobility_m, phi, phi_a, n)
    yield _within_bounds("mobility_n", params.mobility_n, phi_a, c)


def validate_initial_data(state: State, params: ModelParams):
    """Check the initial data against ``hypotheses``: raise InitialDataError
    on the first refused miss, and warn BoundsViolation on each other."""
    for hyp in hypotheses(state, params):
        if hyp.holds:
            continue
        if hyp.refused:
            raise InitialDataError(hyp.name, hyp.message)
        warnings.warn(f"{hyp.name}: {hyp.message}", BoundsViolation,
                      stacklevel=2)


def initialize_mu(state: State, params: ModelParams) -> State:
    """Fill mu from phi via the regularized chemical potential relation; the
    returned state carries the convex-part evaluation at phi."""
    phi = state.phi
    convex = params.convex_part(phi)
    # (-lap + convex) + concave, the summation order the step uses
    mu = (
        -_apply(laplacian_matrix(state.grid), phi)
        + convex.slope
        + params.potential.concave_slope(phi)
    )
    return replace(state, mu=mu, convex=convex)


def run(initial: State, params: ModelParams, cfg: SolverConfig):
    """The trajectory from the initial data to t_end: yields (start, None),
    then (state, report) after each of the cfg.steps steps.

    Iteration begins by validating the data (``validate_initial_data``) and
    filling mu from phi (``initialize_mu``); the caller takes what it needs
    from each pair.
    """
    validate_initial_data(initial, params)
    state = initialize_mu(initial.copy(), params)
    yield state, None
    for _ in range(cfg.steps):
        state, report = step(state, params, cfg)
        yield state, report
