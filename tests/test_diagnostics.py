import math
from dataclasses import replace

import numpy as np
import pytest
from _oracles import (
    band_limited_state,
    run_records,
    run_states,
    spheroid_state,
    uniform_state,
)

from mchks import diagnostics
from mchks.diagnostics import (
    DiagnosticsTracker,
    energy,
    mass_corridor,
    separation_margins,
    twin_run_distance,
    weak_residual,
)
from mchks.errors import GridMismatch, RangeError
from mchks.fields import Grid2D, lap_array
from mchks.potentials import FloryHuggins, RegularQuartic
from mchks.solver import SolverConfig, step
from mchks.sources import ModelParams, TruncationPair, reaction_rates

GRID = Grid2D(16, 16, 4.0, 4.0)
FH = ModelParams(potential=FloryHuggins(1.0, 3.0), m=0.5)
QUARTIC = ModelParams(potential=RegularQuartic(1.0), m=0.5)


def test_energy_uniform_state_closed_form():
    # gradients vanish; phi_a = 1 makes the entropy term vanish exactly
    st = uniform_state(GRID, 0.4, 1.0, 0.7, 0.3)
    params = QUARTIC
    area = GRID.area
    expected = area * (
        params.potential.value(0.4)
        - params.chi_phi * 0.7 * 0.4
        - params.chi_a * 1.0 * 0.3
    )
    assert energy(st, params) == pytest.approx(expected, rel=1e-12)


def test_energy_entropy_uses_regularized_density():
    st = uniform_state(GRID, 0.4, 2.0, 0.7, 0.0)
    tp = TruncationPair(FH.eps)
    ent = diagnostics.entropy_integral(st, FH)
    assert ent == pytest.approx(GRID.area * tp.entropy(2.0), rel=1e-12)


def test_energy_shift_in_c_is_linear_coupling():
    st = uniform_state(GRID, 0.4, 0.7, 0.6, 0.2)
    shifted = uniform_state(GRID, 0.4, 0.7, 0.6, 0.5)
    de = energy(shifted, QUARTIC) - energy(st, QUARTIC)
    expected = -QUARTIC.chi_a * (float(np.sum(st.phi_a)) * GRID.cell_area) * 0.3
    assert de == pytest.approx(expected, rel=1e-12)


def test_zero_state_zero_energy():
    st = uniform_state(GRID, 0.0, 1.0, 0.0, 0.0)
    assert energy(st, QUARTIC) == pytest.approx(0.0, abs=1e-12)


# ----------------------------------------------------------------- minmax


def _observed(state, params):
    return DiagnosticsTracker(params, state).observe(state, 1e-3)


def test_minmax_flags_fire_and_clear():
    ok = uniform_state(GRID, 0.4, 0.1, 0.9, 0.2)
    assert not _observed(ok, FH).any_violation
    bad_c = uniform_state(GRID, 0.4, 0.1, 0.9, 0.2)
    bad_c.c[3, 3] = 1.2
    assert _observed(bad_c, FH).flag_c_max
    bad_n = uniform_state(GRID, 0.4, 0.1, 1.4, 0.2)
    assert _observed(bad_n, FH).flag_n_max
    # smooth mode is exempt from the n bounds
    assert not _observed(bad_n, QUARTIC).flag_n_max
    bad_a = uniform_state(GRID, 0.4, 0.0, 0.9, 0.2)
    bad_a.phi_a[0, 0] = -1e-6
    assert _observed(bad_a, FH).flag_phi_a_neg
    bad_a.phi_a[0, 0] = -1e-9  # within the eps-scaled tolerance
    assert not _observed(bad_a, FH).flag_phi_a_neg


# --------------------------------------------------------------- corridor


def test_corridor_endpoints():
    lo, hi = mass_corridor(0.3, 0.8, 1.0, 0.0)
    assert (lo, hi) == (0.3, 0.3)
    lo, hi = mass_corridor(0.3, 0.8, 1.0, 1e9)
    assert lo == pytest.approx(-0.8)
    assert hi == pytest.approx(0.8)


def test_corridor_derived_value():
    lo, hi = mass_corridor(0.3, 0.8, 1.0, 1.0)
    e = math.exp(-1.0)
    assert lo == pytest.approx(0.3 * e - 0.8 * (1 - e), abs=1e-12)
    assert hi == pytest.approx(0.3 * e + 0.8 * (1 - e), abs=1e-12)
    assert lo == pytest.approx(-0.39528, abs=1e-4)
    assert hi == pytest.approx(0.61604, abs=1e-4)


def test_corridor_needs_positive_rate():
    with pytest.raises(RangeError):
        mass_corridor(0.3, 0.8, 0.0, 1.0)


def test_tracker_respects_corridor_on_run():
    grid = Grid2D(24, 24, 12.0, 12.0)
    records, _, _ = run_records(spheroid_state(grid), FH,
                                SolverConfig(dt=1e-3, t_end=0.02))
    for rec in records:
        assert not rec.flag_corridor
        assert rec.corridor_lo - 1e-3 <= rec.phi_mean <= rec.corridor_hi + 1e-3


def test_step_corridor_follows_the_backward_euler_recursion():
    r = 1.0 / 1.1
    lo, hi = mass_corridor(0.3, 0.8, 1.0, 1.0, dt=0.1)
    assert lo == pytest.approx(0.3 * r**10 - 0.8 * (1 - r**10), abs=1e-12)
    assert hi == pytest.approx(0.3 * r**10 + 0.8 * (1 - r**10), abs=1e-12)
    assert mass_corridor(0.3, 0.0, 1.0, 1.0, dt=0.1)[0] > 0.3 * math.exp(-1.0)
    assert mass_corridor(0.3, 0.8, 1.0, 0.0, dt=0.1) == (0.3, 0.3)


def test_corridor_flag_on_a_run_without_proliferation():
    # n below delta_n: P = 0, so H = 0 and the mean follows the recursion
    st0 = uniform_state(GRID, 0.3, 0.05, 0.1, 0.0)
    cfg = SolverConfig(dt=1e-3, t_end=0.05)
    records, reports, final = run_records(st0, FH, cfg)
    assert records[-1].h_sup == 0.0
    assert not any(rec.flag_corridor for rec in records)
    # the continuous envelope exp(-m t) lies below this mean
    assert np.mean(final.phi) > mass_corridor(0.3, 0.0, FH.m, final.t)[1]
    residual_sum = sum(rep.newton_residual for rep in reports)
    for shift in (1e-6, -1e-6):
        moved = final.phi + shift
        rec = DiagnosticsTracker(FH, st0).observe(
            replace(final, phi=moved, convex=None), cfg.dt, residual_sum)
        assert rec.flag_corridor, shift


def test_observe_integrates_the_entropy_once(monkeypatch):
    st = spheroid_state(Grid2D(16, 16, 12.0, 12.0))
    calls = []
    entropy_integral = diagnostics.entropy_integral

    def counted(state, params):
        calls.append(state)
        return entropy_integral(state, params)

    monkeypatch.setattr(diagnostics, "entropy_integral", counted)
    rec = DiagnosticsTracker(FH, st).observe(st, 1e-3)
    assert len(calls) == 1
    assert rec.energy == energy(st, FH)
    assert rec.entropy == entropy_integral(st, FH)


# ---------------------------------------------------------- weak residual


def test_weak_residual_zero_at_equilibrium():
    st = uniform_state(GRID, 0.0, 0.0, 1.0, 0.0)
    params = ModelParams(potential=FloryHuggins(1.0, 3.0), m=0.0)
    st = diagnostics_state_with_mu(st, params)
    rep = weak_residual([st, st], params, dt=1e-3)
    assert rep["max"] < 1e-12


def diagnostics_state_with_mu(st, params):
    from mchks.solver import initialize_mu

    return initialize_mu(st, params)


def test_weak_residual_constant_mode_is_mass_balance():
    grid = Grid2D(24, 24, 12.0, 12.0)
    st0 = spheroid_state(grid)
    from mchks.solver import initialize_mu
    st0 = initialize_mu(st0, FH)
    st1, _ = step(st0, FH, SolverConfig(dt=1e-3, t_end=1e-3))
    rep = weak_residual([st0, st1], FH, dt=1e-3)
    # v = const: the conservative gradient pairing vanishes identically, so
    # the assembled residual equals the plain mass-balance defect
    from mchks.sources import positive_part, source_c

    direct = (
        (float(np.sum(st1.c)) * grid.cell_area
         - float(np.sum(st0.c)) * grid.cell_area) / 1e-3
        - FH.chi_a * float(np.sum(positive_part(st1.phi_a))) * grid.cell_area
        - float(np.sum(source_c(FH, st1.phi, st1.phi_a, st1.n, st1.c)))
        * grid.cell_area
    )
    assert rep["c"][0] == pytest.approx(direct, rel=1e-10, abs=1e-14)


def test_weak_residual_pairs_the_truncated_chemotaxis_flux():
    # phi_a = 0 leaves only the chemotaxis flux in the phi_a equation, and
    # T_eps(0) = eps keeps it alive: the residual is chi_a <div(eps grad c), v>
    params = ModelParams(potential=FloryHuggins(1.0, 3.0), eps=1e-2, m=0.0)
    st = uniform_state(GRID, 0.5, 0.0, 0.5, 0.3)
    x, _ = GRID.centers()
    st.c = 0.3 + 0.2 * np.cos(np.pi * x / GRID.lx)
    rep = weak_residual([st, st], params, dt=1e-3)
    flux_div = params.eps * lap_array(st.c, GRID.dx, GRID.dy)
    expected = [
        params.chi_a * float(np.sum(flux_div * v)) * GRID.cell_area
        for v in diagnostics.default_test_battery(GRID)
    ]
    assert np.max(np.abs(expected)) > 1e-8
    np.testing.assert_allclose(rep["phi_a"], expected, rtol=1e-10, atol=1e-18)


def _grad_pairing(coef, u, v, grid):
    """int coef grad u . grad v from face differences, coef face-averaged."""
    cx = 0.5 * (coef[1:, :] + coef[:-1, :])
    cy = 0.5 * (coef[:, 1:] + coef[:, :-1])
    sx = np.sum(cx * np.diff(u, axis=0) * np.diff(v, axis=0)) / grid.dx**2
    sy = np.sum(cy * np.diff(u, axis=1) * np.diff(v, axis=1)) / grid.dy**2
    return float(sx + sy) * grid.cell_area


@pytest.mark.parametrize("params", [FH, QUARTIC], ids=["fh", "quartic"])
def test_weak_residual_matches_per_test_function_weak_forms(params):
    # reference: each weak form assembled test function by test function,
    # with the gradient pairings summed over faces
    grid = Grid2D(24, 24, 2 * np.pi, 2 * np.pi)
    cfg = SolverConfig(dt=1e-3, t_end=2e-3)
    s0, s1 = run_states(band_limited_state(grid), params, cfg)[-2:]
    rep = weak_residual([s0, s1], params, dt=cfg.dt)

    phi, phia, n, c, mu = s1.phi, s1.phi_a, s1.n, s1.c, s1.mu
    ones = np.ones_like(phi)
    mob_m = params.mobility_m(phi, phia, n) * ones
    mob_n = params.mobility_n(phia, c) * ones
    chem = np.clip(phia, params.eps, 1.0 / params.eps) * mob_n
    s_phi, s_a, r_n, r_c = reaction_rates(params, phi, phia, n, c)
    for i, vv in enumerate(diagnostics.default_test_battery(grid)):

        def dot(f):
            return float(np.sum(f * vv)) * grid.cell_area

        ref = {
            "phi": dot((phi - s0.phi) / cfg.dt - s_phi)
            + _grad_pairing(mob_m, mu - params.chi_phi * n, vv, grid),
            "mu": dot(mu - params.f_prime(phi)) - _grad_pairing(ones, phi, vv, grid),
            "phi_a": dot((phia - s0.phi_a) / cfg.dt - s_a)
            + _grad_pairing(mob_n, phia, vv, grid)
            - params.chi_a * _grad_pairing(chem, c, vv, grid),
            "n": dot((n - s0.n) / cfg.dt - r_n)
            + _grad_pairing(ones, n, vv, grid),
            "c": dot((c - s0.c) / cfg.dt - r_c)
            + _grad_pairing(ones, c, vv, grid),
        }
        for name, val in ref.items():
            scale = np.max(np.abs(rep[name]))
            assert rep[name][i] == pytest.approx(val, abs=1e-10 * scale)


def test_weak_residual_needs_two_states():
    st = uniform_state(GRID, 0.1, 0.1, 0.9, 0.1)
    with pytest.raises(ValueError):
        weak_residual([st], FH, dt=1e-3)


# ------------------------------------------------------------- twin runs


def test_twin_distance_identical_runs_vanish():
    grid = Grid2D(16, 16, 8.0, 8.0)
    states = run_states(spheroid_state(grid), FH,
                        SolverConfig(dt=2e-3, t_end=0.01))
    dist = twin_run_distance(states, states)
    assert dist.lhs_total == 0.0
    assert dist.rhs_total == 0.0
    assert math.isnan(dist.ratio)


def test_twin_distance_grid_mismatch():
    g1 = Grid2D(16, 16, 8.0, 8.0)
    g2 = Grid2D(16, 16, 4.0, 4.0)
    s1 = [spheroid_state(g1)]
    s2 = [spheroid_state(g2)]
    with pytest.raises(GridMismatch):
        twin_run_distance(s1, s2)
    with pytest.raises(GridMismatch):
        twin_run_distance(s1, [])


def test_twin_distance_small_perturbation_linear():
    grid = Grid2D(16, 16, 8.0, 8.0)
    base0 = spheroid_state(grid)
    cfg = SolverConfig(dt=2e-3, t_end=0.02)
    base = run_states(base0, FH, cfg, every=2)
    scales = {}
    for amp in (1e-2, 5e-3):
        pert0 = base0.copy()
        pert0.phi = base0.phi + amp * (
            0.3 + 0.5 * np.cos(np.pi * grid.centers()[0] / grid.lx))
        pert = run_states(pert0, FH, cfg, every=2)
        scales[amp] = twin_run_distance(base, pert).lhs_total / amp
    assert scales[1e-2] == pytest.approx(scales[5e-3], rel=0.05)


# -------------------------------------------------------------- tracking


def test_tracker_running_extremes_and_h():
    grid = Grid2D(24, 24, 12.0, 12.0)
    st = spheroid_state(grid)
    tracker = DiagnosticsTracker(FH, st)
    rec = tracker.observe(st, 1e-3)
    assert tracker.delta_star == np.min(st.phi)
    assert tracker.delta_upper == np.max(st.phi)
    assert (rec.phi_min, rec.phi_max) == (tracker.delta_star,
                                          tracker.delta_upper)
    assert rec.h_sup == tracker.h_sup > 0.0
    assert rec.entropy >= 0.0
    # the running extremes keep the widest phi range seen so far
    narrow = replace(st, phi=np.full_like(st.phi, 0.5))
    tracker.observe(narrow, 1e-3)
    assert tracker.delta_star == np.min(st.phi)
    assert tracker.delta_upper == np.max(st.phi)


def test_separation_margins_monitor():
    grid = Grid2D(24, 24, 12.0, 12.0)
    records, _, _ = run_records(spheroid_state(grid), FH,
                                SolverConfig(dt=1e-3, t_end=0.05), every=5)
    times, margins = separation_margins(records, 0.01, FH.potential)
    assert np.all(margins > 0.0)
    assert margins[-1] >= 0.5 * margins[0]
    with pytest.raises(ValueError):
        separation_margins(records, 1e9, FH.potential)
