import numpy as np
import pytest
import scipy.sparse.linalg as spla
from _mms import Manufactured
from _oracles import solve_uniform_ode, spheroid_state, uniform_state

import mchks.solver
from mchks.errors import ConvergenceError, InitialDataError
from mchks.fields import Grid2D, ScalarField, integrate
from mchks.potentials import FloryHuggins, RegularQuartic, YosidaRegularization
from mchks.solver import (
    SolverConfig,
    State,
    run,
    step,
    validate_initial_data,
)
from mchks.sources import ModelParams, h, positive_part, q_switch, theta

QUARTIC = ModelParams(potential=RegularQuartic(1.0), m=0.5)
FH = ModelParams(potential=FloryHuggins(1.0, 3.0), m=0.5)


def test_uniform_equilibrium_is_fixed_point():
    grid = Grid2D(8, 8, 4.0, 4.0)
    st0 = uniform_state(grid, 0.0, 0.0, 1.0, 0.0)
    params = ModelParams(potential=FloryHuggins(1.0, 3.0), m=0.0)
    st1, _ = step(st0, params, SolverConfig(dt=1e-3, t_end=1e-3))
    for name in ("phi", "phi_a", "n", "c"):
        drift = np.max(np.abs(getattr(st1, name).values
                              - getattr(st0, name).values))
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
        got = [st.phi.values[0, 0], st.phi_a.values[0, 0],
               st.n.values[0, 0], st.c.values[0, 0]]
        worst = max(worst, max(abs(g - r) for g, r in zip(got, ref)))
    assert worst < 2e-4  # first order in dt with a small constant


def test_conservative_flux_identities():
    grid = Grid2D(24, 24, 12.0, 12.0)
    st = spheroid_state(grid)
    params = FH
    cfg = SolverConfig(dt=1e-3, t_end=1.0, linear_tol=1e-12)
    for _ in range(20):
        old = st
        st, _ = step(st, params, cfg)
        # phi: mass change equals dt * integral of the discrete source
        prol = positive_part(q_switch(params, st.n.values) - params.delta_n) \
            * h(old.phi.values)
        src = integrate(ScalarField(grid, prol - params.m * st.phi.values))
        defect = integrate(st.phi) - integrate(old.phi) - cfg.dt * src
        assert abs(defect) < 1e-12
        # phi_a: logistic split source, chemotaxis and diffusion conservative
        th = theta(params, old.phi.values, old.c.values)
        decay = th * (params.kappa_inf * positive_part(old.phi_a.values)
                      - params.kappa0)
        src_a = integrate(ScalarField(grid, -decay * st.phi_a.values))
        defect = integrate(st.phi_a) - integrate(old.phi_a) - cfg.dt * src_a
        assert abs(defect) < 1e-12


def test_singular_minmax_short_run():
    grid = Grid2D(32, 32, 12.8, 12.8)
    st = spheroid_state(grid)
    cfg = SolverConfig(dt=1e-3, t_end=0.05, linear_tol=1e-12)
    res = run(st, FH, cfg)
    for rec in res.records:
        assert not any(rec.flags.values()), rec.flags
        assert rec.extrema["c"][0] >= -1e-10
        assert rec.extrema["c"][1] <= 1.0 + 1e-10
        assert rec.extrema["n"][0] >= -1e-10
        assert rec.extrema["n"][1] <= 1.0 + 1e-10


def test_energy_decrease_short_source_free_run():
    grid = Grid2D(32, 32, 2 * np.pi, 2 * np.pi)
    x, y = grid.centers()
    pot = RegularQuartic(1.0)
    params = ModelParams(potential=pot, m=0.0, delta_n=1.0, kappa0=0.0,
                         kappa_inf=0.0)
    st = State(
        0.0,
        ScalarField(grid, 0.5 + 0.3 * np.cos(np.pi * x / grid.lx)
                    * np.cos(np.pi * y / grid.ly)),
        ScalarField.constant(grid, 0.0),
        ScalarField.constant(grid, 0.2),
        ScalarField(grid, 0.5 + 0.2 * np.cos(np.pi * y / grid.ly)),
        ScalarField.constant(grid, 0.1),
    )
    cfg = SolverConfig(dt=1e-3, t_end=0.05, sources_off=True,
                       stabilization=pot.perturbation_lipschitz(),
                       newton_tol=1e-13, linear_tol=1e-13)
    res = run(st, params, cfg)
    energies = np.array([r.energy for r in res.records])
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
    assert np.max(np.abs(s_k.phi.values - s_d.phi.values)) < 1e-9


def test_report_counts_ch_krylov_iterations(monkeypatch):
    seen = {"calls": 0, "iters": 0}
    real = spla.bicgstab

    def counted(*args, callback=None, **kwargs):
        seen["calls"] += 1

        def count(xk):
            seen["iters"] += 1
            callback(xk)

        return real(*args, callback=count, **kwargs)

    monkeypatch.setattr(spla, "bicgstab", counted)
    grid = Grid2D(16, 16, 12.8, 12.8)
    _, rep = step(spheroid_state(grid), FH, SolverConfig(dt=1e-3, t_end=1e-3))
    assert rep.linear_iters["ch"] == seen["iters"] > seen["calls"] > 0


def test_ch_krylov_failure_warns_and_falls_back(monkeypatch):
    real = spla.bicgstab
    monkeypatch.setattr(
        spla, "bicgstab", lambda *a, **k: real(*a, **{**k, "maxiter": 1})
    )
    grid = Grid2D(16, 16, 12.8, 12.8)
    st = spheroid_state(grid)
    cfg = SolverConfig(dt=1e-3, t_end=1e-3)
    with pytest.warns(RuntimeWarning, match=r"t=0\.001 \(info=1\)"):
        s_f, rep = step(st, FH, cfg)
    assert rep.used_direct
    s_d, _ = step(st, FH, SolverConfig(dt=1e-3, t_end=1e-3,
                                       linear_solver="direct"))
    assert np.max(np.abs(s_f.phi.values - s_d.phi.values)) < 1e-9


def test_manufactured_spatial_convergence_quick():
    L = 2 * np.pi
    params = ModelParams(potential=RegularQuartic(1.0), m=0.5)
    mms = Manufactured(params, L)
    errs = []
    for nx, steps in ((16, 25), (32, 100)):
        grid = Grid2D(nx, nx, L, L)
        cfg = SolverConfig(dt=0.1 / steps, t_end=0.1, forcing=mms.forcing(),
                           linear_tol=1e-12, newton_tol=1e-12)
        res = run(mms.initial_state(grid), params, cfg, record_every=10**9)
        errs.append(mms.error_at(res.final_state))
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


def test_run_rejects_fractional_step_count():
    grid = Grid2D(8, 8, 4.0, 4.0)
    st = uniform_state(grid, 0.4, 0.1, 0.9, 0.2)
    with pytest.raises(ValueError):
        run(st, FH, SolverConfig(dt=3e-3, t_end=1e-2))


def test_step_solves_resolvent_once_per_newton_iterate(monkeypatch):
    calls = []
    resolvent = YosidaRegularization.resolvent

    def counted(self, r):
        calls.append(np.shape(r))
        return resolvent(self, r)

    monkeypatch.setattr(YosidaRegularization, "resolvent", counted)
    st0 = spheroid_state(Grid2D(16, 16, 12.8, 12.8))
    _, report = step(st0, FH, SolverConfig(dt=1e-3, t_end=1e-3))
    assert report.newton_iters >= 2
    assert len(calls) == report.newton_iters + 1


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


def test_resolvent_failure_names_time_and_substep(monkeypatch):
    def stalled(self, r, eps):
        raise ConvergenceError("Flory-Huggins resolvent stalled, worst residual 1e-3")

    monkeypatch.setattr(FloryHuggins, "resolvent", stalled)
    st0 = spheroid_state(Grid2D(8, 8, 6.4, 6.4))
    with pytest.raises(ConvergenceError) as exc:
        step(st0, FH, SolverConfig(dt=1e-3, t_end=1e-3))
    msg = str(exc.value)
    assert msg.startswith("Cahn-Hilliard substep at t=0.001: ")
    assert "worst residual" in msg


def test_run_determinism():
    grid = Grid2D(16, 16, 12.8, 12.8)
    cfg = SolverConfig(dt=1e-3, t_end=0.01)
    res1 = run(spheroid_state(grid), FH, cfg)
    res2 = run(spheroid_state(grid), FH, cfg)
    e1 = [r.energy for r in res1.records]
    e2 = [r.energy for r in res2.records]
    assert e1 == e2
    assert np.array_equal(res1.final_state.phi.values,
                          res2.final_state.phi.values)


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
        drift = np.max(np.abs(getattr(st1, name).values
                              - getattr(st, name).values))
        assert drift > 1e-5, name
