import weakref
from dataclasses import replace

import numpy as np
import pytest
from _mms import Manufactured
from _oracles import (
    run_records,
    run_states,
    solve_uniform_ode,
    spheroid_state,
    uniform_state,
)

import mchks.fields
import mchks.solver
import mchks.sources
from mchks import spla
from mchks.cli import band_limited_initial, build_initial_state, parse_config
from mchks.diagnostics import DiagnosticsTracker
from mchks.errors import ConvergenceError, InitialDataError, NewtonDivergence
from mchks.fields import (
    Grid2D,
    dct2,
    div_mob_grad_array,
    div_mob_grad_matrix,
    idct2,
    lap_array,
    laplacian_matrix,
    neumann_eigenvalues,
)
from mchks.potentials import (
    ConvexEvaluation,
    DoubleObstacle,
    FloryHuggins,
    RegularQuartic,
    SingleWellLJ,
    YosidaRegularization,
)
from mchks.solver import (
    SolverConfig,
    State,
    StepReport,
    hypotheses,
    initialize_mu,
    run,
    step,
    validate_initial_data,
)
from mchks.sources import (
    ConstantMobility,
    EndothelialProduct,
    KozenyCarman,
    ModelParams,
    endothelial_loss,
    h,
    positive_part,
    q_switch,
    reaction_rates,
    theta,
)

QUARTIC = ModelParams(potential=RegularQuartic(1.0), m=0.5)
FH = ModelParams(potential=FloryHuggins(1.0, 3.0), m=0.5)


def test_uniform_equilibrium_is_fixed_point():
    grid = Grid2D(8, 8, 4.0, 4.0)
    st0 = uniform_state(grid, 0.0, 0.0, 1.0, 0.0)
    params = ModelParams(potential=FloryHuggins(1.0, 3.0), m=0.0)
    st1, _ = step(st0, params, SolverConfig(dt=1e-3, t_end=1e-3))
    for name in ("phi", "phi_a", "n", "c"):
        drift = np.max(np.abs(getattr(st1, name) - getattr(st0, name)))
        assert drift < 1e-13, name


@pytest.mark.parametrize("params", [QUARTIC, FH], ids=["smooth", "singular"])
def test_uniform_run_matches_scalar_ode(params):
    grid = Grid2D(4, 4, 2.0, 2.0)
    y0 = (0.4, 0.3, 0.9, 0.1)
    exact = solve_uniform_ode(params, y0, 0.2)
    st = uniform_state(grid, *y0)
    cfg = SolverConfig(dt=1e-3, t_end=0.2)
    worst = 0.0
    for _ in range(200):
        st, _ = step(st, params, cfg)
        ref = exact(st.t)
        got = [st.phi[0, 0], st.phi_a[0, 0], st.n[0, 0], st.c[0, 0]]
        worst = max(worst, max(abs(g - r) for g, r in zip(got, ref)))
    assert worst < 2e-4  # first order in dt with a small constant


@pytest.mark.parametrize("potential", [RegularQuartic(1.0), FloryHuggins(1.0, 3.0)],
                         ids=["smooth", "singular"])
def test_uniform_substeps_are_the_sources_splits(potential):
    # no gradients: each of the first three substeps is its reaction rate,
    # with the implicit part at the new value and the rest at the old state
    params = ModelParams(potential=potential, m=0.5, delta_n=0.6)
    dt = 1e-2
    old = uniform_state(Grid2D(4, 4, 2.0, 2.0), 0.4, 0.3, 0.5, 0.2)
    new, _ = step(old, params, SolverConfig(dt=dt, t_end=dt))
    phi_o, phia_o, n_o, c_o = old.phi, old.phi_a, old.n, old.c
    n_new, c_new, phia_new = new.n, new.c, new.phi_a
    n_at = n_new if params.singular else n_o
    rate_n = reaction_rates(params, phi_o, phia_o, n_at, c_o)[2]
    rate_c = reaction_rates(params, phi_o, phia_o, n_o, c_new)[3]
    rate_a = -endothelial_loss(params, phi_o, phia_o, c_o) * phia_new
    np.testing.assert_allclose((n_new - n_o) / dt, rate_n, rtol=0, atol=1e-12)
    np.testing.assert_allclose((c_new - c_o) / dt, rate_c, rtol=0, atol=1e-12)
    np.testing.assert_allclose((phia_new - phia_o) / dt, rate_a, rtol=0,
                               atol=1e-12)


def test_conservative_flux_identities():
    grid = Grid2D(24, 24, 12.0, 12.0)
    st = spheroid_state(grid)
    params = FH
    cfg = SolverConfig(dt=1e-3, t_end=1.0, linear_tol=1e-12)

    def integrate(v):
        return float(np.sum(v)) * grid.cell_area

    for _ in range(20):
        old = st
        st, _ = step(st, params, cfg)
        # phi: mass change equals dt * integral of the discrete source
        prol = positive_part(q_switch(params, st.n) - params.delta_n) * h(old.phi)
        src = integrate(prol - params.m * st.phi)
        defect = integrate(st.phi) - integrate(old.phi) - cfg.dt * src
        assert abs(defect) < 1e-12
        # phi_a: logistic split source, chemotaxis and diffusion conservative
        th = theta(params, old.phi, old.c)
        decay = th * (params.kappa_inf * positive_part(old.phi_a)
                      - params.kappa0)
        src_a = integrate(-decay * st.phi_a)
        defect = integrate(st.phi_a) - integrate(old.phi_a) - cfg.dt * src_a
        assert abs(defect) < 1e-12


def test_singular_minmax_short_run():
    grid = Grid2D(32, 32, 12.8, 12.8)
    st = spheroid_state(grid)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, linear_tol=1e-12)
    records, _, _ = run_records(st, FH, cfg)
    for rec in records:
        assert not rec.any_violation, rec
        assert rec.c_min >= -1e-10
        assert rec.c_max <= 1.0 + 1e-10
        assert rec.n_min >= -1e-10
        assert rec.n_max <= 1.0 + 1e-10


def test_energy_decrease_short_source_free_run():
    grid = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
    x, y = grid.centers()
    pot = RegularQuartic(1.0)
    params = ModelParams(potential=pot, m=0.0, delta_n=1.0, kappa0=0.0,
                         kappa_inf=0.0)
    st = State(
        0.0,
        grid,
        0.5 + 0.3 * np.cos(np.pi * x / grid.lx) * np.cos(np.pi * y / grid.ly),
        np.zeros(grid.shape),
        np.full(grid.shape, 0.2),
        0.5 + 0.2 * np.cos(np.pi * y / grid.ly),
        np.full(grid.shape, 0.1),
    )
    cfg = SolverConfig(dt=1e-3, t_end=0.05, sources_off=True,
                       stabilization=pot.perturbation_lipschitz(),
                       newton_tol=1e-13, linear_tol=1e-13)
    records, _, _ = run_records(st, params, cfg)
    energies = np.array([r.energy for r in records])
    assert np.all(np.diff(energies) <= 1e-12 * np.abs(energies[:-1]))


def test_direct_and_krylov_linear_solvers_agree():
    grid = Grid2D(16, 16, 12.8, 12.8)
    st = spheroid_state(grid)
    cfg_k = SolverConfig(dt=1e-3, t_end=1e-3, linear_tol=1e-13,
                         newton_tol=1e-12)
    cfg_d = SolverConfig(dt=1e-3, t_end=1e-3, linear_tol=1e-13,
                         newton_tol=1e-12, linear_solver="direct")
    s_k, _ = step(st, FH, cfg_k)
    s_d, _ = step(st, FH, cfg_d)
    assert np.max(np.abs(s_k.phi - s_d.phi)) < 1e-9


def test_report_counts_ch_krylov_iterations(monkeypatch):
    # matvecs counted outside the solver, per BiCGStab solve; two per full
    # iteration and one for a solve that converges at its half step
    matvecs = []
    real = mchks.solver.spla.bicgstab

    def counted(op, b, **kwargs):
        matvecs.append(0)

        def matvec(v):
            matvecs[-1] += 1
            return op(v)

        return real(matvec, b, **kwargs)

    monkeypatch.setattr(mchks.solver.spla, "bicgstab", counted)
    grid = Grid2D(16, 16, 12.8, 12.8)
    _, rep = step(spheroid_state(grid), FH, SolverConfig(dt=1e-3, t_end=1e-3))
    iters = sum(-(-m // 2) for m in matvecs)
    assert rep.linear_iters["ch"] == iters > len(matvecs) > 0


@pytest.mark.parametrize("params", [QUARTIC, FH], ids=["smooth", "singular"])
def test_report_counts_half_step_krylov_exit(params):
    # criterion 7 data: each solve converges at BiCGStab's half step, where
    # BiCGStab calls no callback
    st = uniform_state(Grid2D(4, 4, 2.0, 2.0), 0.4, 0.3, 0.9, 0.1)
    _, rep = step(st, params, SolverConfig(dt=1e-5, t_end=1e-5))
    assert rep.newton_iters >= 1
    assert rep.linear_iters["ch"] >= rep.newton_iters


def test_krylov_and_direct_paths_solve_the_stencil_operator():
    grid = Grid2D(24, 20, 1.3, 1.0)
    rng = np.random.default_rng(11)
    mob = 0.5 + rng.random((grid.nx, grid.ny))
    curv = 5.0 * rng.random((grid.nx, grid.ny))
    rhs = rng.standard_normal((grid.nx, grid.ny))
    diag0 = 1e3
    cfg = SolverConfig(linear_tol=1e-10)

    def apply_j(v):
        inner = -lap_array(v, grid.dx, grid.dy) + curv * v
        return diag0 * v - div_mob_grad_array(mob, inner, grid.dx, grid.dy)

    a_m = div_mob_grad_matrix(grid, mob)
    sol_k = mchks.solver._solve_ch_jacobian(
        grid, a_m, float(np.mean(mob)), curv, diag0, rhs, cfg, StepReport(), 0.0,
        cfg.linear_tol,
    )
    sol_d = mchks.solver._solve_ch_direct(grid, a_m, curv, diag0, rhs)
    bound = 10 * cfg.linear_tol * np.linalg.norm(rhs)
    for sol in (sol_k, sol_d):
        assert np.linalg.norm(apply_j(sol) - rhs) <= bound


@pytest.mark.parametrize("mobility_m", [ConstantMobility(), KozenyCarman()],
                         ids=["constant", "kozeny-carman"])
def test_single_precision_preconditioner_keeps_accuracy(mobility_m):
    # the float32 cosine-transform preconditioner against a float64 one on
    # the Jacobian of a 128^2 Flory-Huggins spheroid at rtol = 1e-10
    grid = Grid2D(128, 128, 12.8, 12.8)
    params = replace(FH, mobility_m=mobility_m)
    st = initialize_mu(spheroid_state(grid, phi_hi=0.9), params)
    mob = params.mobility_m(st.phi, st.phi_a, st.n)
    a_m = params.mobility_m.operator(grid, mob)
    curv = st.convex.curvature
    diag0 = 1e3 + params.m
    rhs = np.random.default_rng(5).standard_normal(grid.shape)
    cfg = SolverConfig(linear_tol=1e-10)
    report = StepReport()
    sol = mchks.solver._solve_ch_jacobian(
        grid, a_m, float(mob.mean()), curv, diag0, rhs, cfg, report, 0.0,
        cfg.linear_tol,
    )
    inner = -lap_array(sol, grid.dx, grid.dy) + curv * sol
    jx = diag0 * sol - div_mob_grad_array(mob, inner, grid.dx, grid.dy)
    assert not report.used_direct
    assert np.linalg.norm(rhs - jx) <= 10 * cfg.linear_tol * np.linalg.norm(rhs)

    lap = laplacian_matrix(grid)
    lam = neumann_eigenvalues(grid)
    denom = diag0 + mob.mean() * lam * (lam + curv.mean())
    matvecs = 0

    def apply_j(v):
        nonlocal matvecs
        matvecs += 1
        return diag0 * v - a_m @ (curv.ravel() * v - lap @ v)

    def apply_pinv(v):
        return idct2(dct2(v.reshape(grid.shape)) / denom).ravel()

    _, info = spla.bicgstab(apply_j, rhs.ravel(), rtol=cfg.linear_tol,
                            M=apply_pinv, maxiter=400)
    assert info == 0
    f64_iters = (matvecs + 1) // 2
    if isinstance(mobility_m, ConstantMobility):
        assert report.linear_iters["ch"] <= f64_iters + 1
    else:
        # 80-160 iterations, a count that a 1e-15 relative change of the
        # float64 preconditioner alone moves by -15 to +25
        assert report.linear_iters["ch"] <= 2 * f64_iters


@pytest.mark.parametrize("mobility_m, mobility_n, fills", [
    (ConstantMobility(), ConstantMobility(0.7), 0),
    (KozenyCarman(), ConstantMobility(), 1),
    (ConstantMobility(), EndothelialProduct(), 1),
], ids=["constant", "kozeny-carman", "endothelial"])
def test_only_a_variable_mobility_fills_its_operator(monkeypatch, mobility_m,
                                                     mobility_n, fills):
    params = replace(FH, mobility_m=mobility_m, mobility_n=mobility_n)
    cfg = SolverConfig(dt=1e-5, t_end=1e-5)
    # criterion 7 data, where Kozeny-Carman stays inside its bounds
    st, _ = step(uniform_state(Grid2D(4, 4, 2.0, 2.0), 0.4, 0.3, 0.9, 0.1),
                 params, cfg)
    calls = []
    fill = mchks.fields.div_mob_grad_matrix

    def counting(grid, mob):
        calls.append(1)
        return fill(grid, mob)

    # the name the laws call, and the one behind the constant-mobility cache
    monkeypatch.setattr(mchks.sources, "div_mob_grad_matrix", counting)
    monkeypatch.setattr(mchks.fields, "div_mob_grad_matrix", counting)
    for _ in range(2):
        st, _ = step(st, params, cfg)
    assert len(calls) == 2 * fills


@pytest.mark.parametrize("linear_solver", ["krylov", "direct"])
def test_step_is_bitwise_deterministic(linear_solver):
    st0 = spheroid_state(Grid2D(16, 16, 12.8, 12.8))
    cfg = SolverConfig(dt=1e-3, t_end=1e-3, linear_solver=linear_solver)
    s1, _ = step(st0, FH, cfg)
    s2, _ = step(st0, FH, cfg)
    for name in ("phi", "mu", "phi_a", "n", "c"):
        assert np.array_equal(getattr(s1, name), getattr(s2, name))


def test_ch_krylov_failure_warns_and_falls_back(monkeypatch):
    real = mchks.solver.spla.bicgstab
    monkeypatch.setattr(
        mchks.solver.spla, "bicgstab",
        lambda *a, **k: real(*a, **{**k, "maxiter": 1})
    )
    grid = Grid2D(16, 16, 12.8, 12.8)
    st = spheroid_state(grid)
    cfg = SolverConfig(dt=1e-3, t_end=1e-3)
    with pytest.warns(RuntimeWarning, match=r"t=0\.001 \(info=1\)"):
        s_f, rep = step(st, FH, cfg)
    assert rep.used_direct
    s_d, _ = step(st, FH, SolverConfig(dt=1e-3, t_end=1e-3,
                                       linear_solver="direct"))
    assert np.max(np.abs(s_f.phi - s_d.phi)) < 1e-9


def test_manufactured_spatial_convergence_quick():
    L = 2 * np.pi
    params = ModelParams(potential=RegularQuartic(1.0), m=0.5)
    mms = Manufactured(params, L)
    errs = []
    for nx, steps in ((16, 25), (32, 100)):
        grid = Grid2D(nx, nx, L, L)
        cfg = SolverConfig(dt=0.1 / steps, t_end=0.1, forcing=mms.forcing(),
                           linear_tol=1e-12, newton_tol=1e-12)
        final = run_states(mms.initial_state(grid), params, cfg, cfg.steps)[-1]
        errs.append(mms.error_at(final))
    assert np.log2(errs[0] / errs[1]) > 1.7


def test_initial_data_validation():
    grid = Grid2D(8, 8, 4.0, 4.0)
    good = uniform_state(grid, 0.4, 0.1, 0.9, 0.2)
    validate_initial_data(good, FH)

    bad_c = uniform_state(grid, 0.4, 0.1, 0.9, 1.2)
    with pytest.raises(InitialDataError) as exc:
        validate_initial_data(bad_c, FH)
    assert exc.value.constraint == "c0-range"

    bad_phia = uniform_state(grid, 0.4, -0.1, 0.9, 0.2)
    with pytest.raises(InitialDataError) as exc:
        validate_initial_data(bad_phia, FH)
    assert exc.value.constraint == "phia0-negative"

    bad_phi = uniform_state(grid, 1.4, 0.1, 0.9, 0.2)
    with pytest.raises(InitialDataError) as exc:
        validate_initial_data(bad_phi, FH)
    assert exc.value.constraint == "phi0-potential-domain"

    # quartic has no domain restriction, so the same data are admissible
    validate_initial_data(bad_phi, QUARTIC)

    zero_mean = uniform_state(grid, 0.0, 0.1, 0.9, 0.2)
    with pytest.raises(InitialDataError) as exc:
        validate_initial_data(zero_mean, FH)
    assert exc.value.constraint == "phi0-mean-domain"


@pytest.mark.parametrize("name", ["phi", "phi_a", "n", "c"])
def test_grid_hypothesis_checks_every_field_shape(monkeypatch, name):
    grid = Grid2D(8, 8, 4.0, 4.0)
    bad = replace(uniform_state(grid, 0.4, 0.1, 0.9, 0.2),
                  **{name: np.full((8, 7), 0.5)})
    hyp = next(h for h in hypotheses(bad, FH) if h.name == "grid")
    assert not hyp.holds and hyp.refused

    def no_potential(*args):
        raise AssertionError("potential evaluated")

    monkeypatch.setattr(FloryHuggins, "value", no_potential)
    with pytest.raises(InitialDataError) as exc:
        validate_initial_data(bad, FH)
    assert exc.value.constraint == "grid"


def test_run_rejects_fractional_step_count():
    grid = Grid2D(8, 8, 4.0, 4.0)
    st = uniform_state(grid, 0.4, 0.1, 0.9, 0.2)
    with pytest.raises(ValueError):
        run(st, FH, SolverConfig(dt=3e-3, t_end=1e-2))
    with pytest.raises(ValueError, match="^t_end must be nonnegative$"):
        SolverConfig(dt=1e-3, t_end=-0.5)


def test_run_yields_the_start_then_each_step():
    grid = Grid2D(8, 8, 4.0, 4.0)
    st = uniform_state(grid, 0.4, 0.1, 0.9, 0.2)
    cfg = SolverConfig(dt=1e-3, t_end=3e-3)
    pairs = list(run(st, FH, cfg))
    assert len(pairs) == cfg.steps + 1 == 4
    (start, first), *rest = pairs
    assert first is None
    assert np.array_equal(start.mu, initialize_mu(st, FH).mu)
    assert all(isinstance(report, StepReport) for _, report in rest)
    times = [state.t for state, _ in pairs]
    assert np.diff(times) == pytest.approx([cfg.dt] * cfg.steps, rel=1e-12)
    # nothing is checked before the first pair is asked for
    trajectory = run(uniform_state(grid, 0.4, 0.1, 0.9, 1.2), FH, cfg)
    with pytest.raises(InitialDataError):
        next(trajectory)


def test_step_solves_resolvent_once_per_newton_iterate(monkeypatch):
    calls = []
    resolvent = YosidaRegularization.resolvent

    def counted(self, r, *rest):
        calls.append(np.shape(r))
        return resolvent(self, r, *rest)

    monkeypatch.setattr(YosidaRegularization, "resolvent", counted)
    st0 = spheroid_state(Grid2D(16, 16, 12.8, 12.8))
    _, report = step(st0, FH, SolverConfig(dt=1e-3, t_end=1e-3))
    assert report.newton_iters >= 2
    assert len(calls) == report.newton_iters + 1


# ---------------------------------------------- convex-part evaluation handoff

ALL_POTENTIALS = [
    pytest.param(ModelParams(potential=pot, m=0.5, eps=0.01), id=type(pot).__name__)
    for pot in (RegularQuartic(1.0), FloryHuggins(1.0, 3.0), DoubleObstacle(1.0),
                SingleWellLJ(0.6))
]
HANDOFF_CFG = SolverConfig(dt=1e-3, t_end=1e-3)


def _count_resolvent_calls(monkeypatch):
    calls = []
    resolvent = YosidaRegularization.resolvent

    def counted(self, r, *rest):
        calls.append(np.shape(r))
        return resolvent(self, r, *rest)

    monkeypatch.setattr(YosidaRegularization, "resolvent", counted)
    return calls


def _carrying_state(params):
    """A stepped spheroid state carrying its step's evaluation at its phi."""
    st0 = initialize_mu(spheroid_state(Grid2D(16, 16, 12.8, 12.8)), params)
    st, _ = step(st0, params, HANDOFF_CFG)
    assert st.convex.r is st.phi
    return st


@pytest.mark.parametrize("params", ALL_POTENTIALS)
def test_carried_evaluation_steps_and_observes_like_a_fresh_one(params):
    carried = _carrying_state(params)
    stripped = replace(carried, convex=None)
    got, _ = step(carried, params, HANDOFF_CFG)
    ref, _ = step(stripped, params, HANDOFF_CFG)
    for name in ("phi", "mu", "phi_a", "n", "c"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    rec = DiagnosticsTracker(params, carried).observe(carried, HANDOFF_CFG.dt)
    rec_ref = DiagnosticsTracker(params, stripped).observe(stripped,
                                                           HANDOFF_CFG.dt)
    assert rec.energy == rec_ref.energy


def test_carried_state_solves_resolvent_once_per_newton_iterate(monkeypatch):
    # the reuse path: with no history Newton starts at the carried phi_o
    st = replace(_carrying_state(FH), phi_prev=None)
    calls = _count_resolvent_calls(monkeypatch)
    _, report = step(st, FH, HANDOFF_CFG)
    assert report.newton_iters >= 2
    assert len(calls) == report.newton_iters


def test_state_with_history_solves_its_extrapolated_start(monkeypatch):
    st = _carrying_state(FH)
    assert st.phi_prev is not None
    calls = _count_resolvent_calls(monkeypatch)
    _, report = step(st, FH, HANDOFF_CFG)
    assert report.newton_iters >= 1
    assert len(calls) == report.newton_iters + 1


def test_step_keeps_only_its_last_evaluation(monkeypatch):
    # each iterate's evaluation forms its tangent start when it is made and
    # keeps no reference to the one before, so a state holds one evaluation
    # and not the chain of its step (peak memory would grow with the steps)
    left = []
    at = ConvexEvaluation.at

    def recorded(self, r):
        left.append(weakref.ref(self))
        return at(self, r)

    monkeypatch.setattr(ConvexEvaluation, "at", recorded)
    st, report = step(spheroid_state(Grid2D(16, 16, 12.8, 12.8)), FH,
                      HANDOFF_CFG)
    assert report.newton_iters >= 2
    assert len(left) == report.newton_iters
    assert all(ref() is None for ref in left)
    assert st.convex.guess is None


def _record_convex_part_arguments(monkeypatch):
    args = []
    convex_part = ModelParams.convex_part

    def recorded(self, phi, carried=None):
        args.append(phi)
        return convex_part(self, phi, carried)

    monkeypatch.setattr(ModelParams, "convex_part", recorded)
    return args


def test_newton_starts_from_the_extrapolated_phi(monkeypatch):
    st = _carrying_state(FH)
    assert np.array_equal(st.phi_prev, spheroid_state(st.grid).phi)
    args = _record_convex_part_arguments(monkeypatch)
    new, _ = step(st, FH, HANDOFF_CFG)
    assert np.array_equal(args[0], 2.0 * st.phi - st.phi_prev)
    assert new.phi_prev is st.phi
    # without history the start is phi_o itself
    args.clear()
    step(replace(st, phi_prev=None), FH, HANDOFF_CFG)
    assert args[0] is st.phi
    # the history is neither compared nor copied
    assert new.copy().phi_prev is None
    assert replace(new, phi_prev=None) == new


def test_first_krylov_solve_of_a_step_is_inexact(monkeypatch):
    rtols = []
    real = mchks.solver.spla.bicgstab

    def recorded(op, b, **kwargs):
        rtols.append(kwargs["rtol"])
        return real(op, b, **kwargs)

    monkeypatch.setattr(mchks.solver.spla, "bicgstab", recorded)
    cfg = SolverConfig(dt=1e-3, t_end=1e-3)
    _, report = step(spheroid_state(Grid2D(16, 16, 12.8, 12.8)), FH, cfg)
    assert len(rtols) == report.newton_iters >= 2
    assert rtols[0] > cfg.linear_tol
    assert all(cfg.linear_tol <= r <= mchks.solver.FORCING_MAX for r in rtols)


@pytest.mark.parametrize("params", ALL_POTENTIALS)
def test_every_accepted_step_meets_the_newton_test(params):
    cfg = SolverConfig(dt=1e-3, t_end=0.01)
    pairs = list(run(spheroid_state(Grid2D(16, 16, 12.8, 12.8)), params, cfg))
    for (old, _), (_, report) in zip(pairs, pairs[1:]):
        phi_o = old.phi
        scale = max(1.0, float(np.sqrt(np.mean((phi_o / cfg.dt) ** 2))))
        assert report.newton_residual <= cfg.newton_tol * scale


def test_extrapolated_start_needs_one_newton_iteration_on_smooth_data():
    config = parse_config("[grid]\nnx = 32\nny = 32\n"
                          "[params]\npotential = quartic\n"
                          "[solver]\nt_end = 0.03\n")
    fd0, _, _ = band_limited_initial(build_initial_state(config), 8)
    reports = [report for _, report in run(fd0, config.params, config.solver)]
    iters = [r.newton_iters for r in reports[6:]]
    assert np.mean(iters) <= 1.2


@pytest.mark.parametrize("params", [
    pytest.param(ModelParams(potential=pot, m=0.5), id=type(pot).__name__)
    for pot in (RegularQuartic(1.0), FloryHuggins(1.0, 3.0), DoubleObstacle(1.0),
                SingleWellLJ(0.6))
])
def test_default_tolerances_stay_within_the_gate_bound(params):
    # the benchmark gate allows 100 * steps * max(tol) per column, / eps for mu
    grid = Grid2D(32, 32, 12.8, 12.8)
    steps = 20
    cfg = SolverConfig(dt=1e-3, t_end=steps * 1e-3)
    tight = replace(cfg, newton_tol=1e-13, linear_tol=1e-13)
    got = run_states(spheroid_state(grid), params, cfg, steps)[-1]
    ref = run_states(spheroid_state(grid), params, tight, steps)[-1]
    bound = 100 * steps * max(cfg.newton_tol, cfg.linear_tol)
    assert np.max(np.abs(got.phi - ref.phi)) <= bound
    assert np.max(np.abs(got.mu - ref.mu)) <= bound / params.eps


def test_replaced_phi_is_solved_again(monkeypatch):
    st = _carrying_state(FH)
    x, y = st.grid.centers()
    other = st.phi + 1e-3 * np.cos(x) * np.cos(y)
    moved = replace(st, phi=other)
    assert moved.convex is st.convex  # the stale evaluation rides along
    calls = _count_resolvent_calls(monkeypatch)
    got, report = step(moved, FH, HANDOFF_CFG)
    assert len(calls) == report.newton_iters + 1
    ref, _ = step(replace(moved, convex=None), FH, HANDOFF_CFG)
    for name in ("phi", "mu"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name
    assert st.copy().convex is None


def test_evaluation_is_reused_only_for_its_array_and_params():
    phi = spheroid_state(Grid2D(8, 8, 6.4, 6.4)).phi
    ev = FH.convex_part(phi)
    assert FH.convex_part(phi, ev) is ev
    assert FH.convex_part(phi.copy(), ev) is not ev
    assert replace(FH, eps=0.01).convex_part(phi, ev) is not ev
    assert QUARTIC.convex_part(phi, ev) is not ev


@pytest.mark.parametrize(
    "failing_call, substep",
    [(1, "nutrient n"), (2, "signal c"), (3, "endothelial phi_a")],
)
def test_cg_failure_names_time_and_substep(monkeypatch, failing_call, substep):
    calls = []
    cg_solve = mchks.solver.cg_solve

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == failing_call:
            raise ConvergenceError("CG stalled, residual 1.000e-01 relative")
        return cg_solve(*args, **kwargs)

    monkeypatch.setattr(mchks.solver, "cg_solve", failing)
    st0 = spheroid_state(Grid2D(8, 8, 6.4, 6.4))
    with pytest.raises(ConvergenceError) as exc:
        step(st0, FH, SolverConfig(dt=1e-3, t_end=1e-3))
    assert str(exc.value).startswith(f"{substep} substep at t=0.001: CG stalled")
    assert isinstance(exc.value.__cause__, ConvergenceError)


def test_substep_solves_start_from_the_old_value_and_report_their_count(
        monkeypatch):
    starts, counts = [], []
    cg_solve = mchks.solver.cg_solve

    def recording(apply_op, b, x0=None, rel_tol=1e-10):
        starts.append(None if x0 is None else x0.copy())
        u, iters = cg_solve(apply_op, b, x0=x0, rel_tol=rel_tol)
        counts.append(iters)
        return u, iters

    monkeypatch.setattr(mchks.solver, "cg_solve", recording)
    # n, c and phi_a away from zero, so a zero start differs from each
    st0 = spheroid_state(Grid2D(8, 8, 6.4, 6.4), n0=0.8, c0=0.3)
    _, report = step(st0, FH, SolverConfig(dt=1e-3, t_end=1e-3))
    assert len(starts) == 3
    for x0, old in zip(starts, (st0.n, st0.c, st0.phi_a)):
        assert x0 is not None and np.array_equal(x0.reshape(old.shape), old)
    assert [report.linear_iters[k] for k in ("n", "c", "phi_a")] == counts
    assert all(k > 0 for k in counts)


def test_resolvent_failure_names_time_and_substep(monkeypatch):
    def stalled(self, r, eps, *rest):
        raise ConvergenceError("Flory-Huggins resolvent stalled, worst residual 1e-3")

    monkeypatch.setattr(FloryHuggins, "resolvent", stalled)
    st0 = spheroid_state(Grid2D(8, 8, 6.4, 6.4))
    with pytest.raises(ConvergenceError) as exc:
        step(st0, FH, SolverConfig(dt=1e-3, t_end=1e-3))
    msg = str(exc.value)
    assert msg.startswith("Cahn-Hilliard substep at t=0.001: ")
    assert "worst residual" in msg


def test_newton_cap_names_time_and_residual(monkeypatch):
    monkeypatch.setattr(mchks.solver, "NEWTON_MAX", 1)
    st0 = spheroid_state(Grid2D(16, 16, 12.8, 12.8))
    with pytest.raises(NewtonDivergence,
                       match=r"^phase-field Newton stalled at t=0\.001, "
                             r"residual \d\.\d{3}e") as exc:
        step(st0, FH, SolverConfig(dt=1e-3, t_end=1e-3))
    assert exc.value.residual > 0.0


def test_run_determinism():
    grid = Grid2D(16, 16, 12.8, 12.8)
    cfg = SolverConfig(dt=1e-3, t_end=0.01)
    records1, _, final1 = run_records(spheroid_state(grid), FH, cfg)
    records2, _, final2 = run_records(spheroid_state(grid), FH, cfg)
    e1 = [r.energy for r in records1]
    e2 = [r.energy for r in records2]
    assert e1 == e2
    assert np.array_equal(final1.phi, final2.phi)


def test_forcing_hook_reaches_every_equation():
    grid = Grid2D(8, 8, 4.0, 4.0)
    st = uniform_state(grid, 0.0, 0.0, 1.0, 0.0)
    params = ModelParams(potential=FloryHuggins(1.0, 3.0), m=0.0)
    from mchks.solver import Forcing

    cfg = SolverConfig(dt=1e-3, t_end=1e-3,
                       forcing=Forcing(
                           phi=lambda x, y, t: np.ones_like(x),
                           phi_a=lambda x, y, t: np.ones_like(x),
                           n=lambda x, y, t: np.ones_like(x),
                           c=lambda x, y, t: np.ones_like(x)))
    st1, _ = step(st, params, cfg)
    for name in ("phi", "phi_a", "n", "c"):
        drift = np.max(np.abs(getattr(st1, name) - getattr(st, name)))
        assert drift > 1e-5, name
