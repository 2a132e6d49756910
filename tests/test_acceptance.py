"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Each test prints one pass line on success (visible with pytest -rA or -s);
a failed assertion is the fail line.  The expensive simulations are shared
module fixtures so the three criteria that read the singular spheroid run
pay for it once.
"""

import math
import time

import numpy as np
import pytest
from _mms import Manufactured
from _oracles import (
    band_limited_state,
    entropy_second,
    envelope_bruteforce,
    inequality_report,
    run_records,
    run_states,
    solve_uniform_ode,
    spheroid_state,
    uniform_state,
)

from mchks import diagnostics
from mchks.fields import Grid2D
from mchks.cli import cross_validate
from mchks.potentials import (
    DoubleObstacle,
    FloryHuggins,
    RegularQuartic,
    SingleWellLJ,
    YosidaRegularization,
)
from mchks.solver import SolverConfig, State, step
from mchks.sources import ModelParams, TruncationPair

VARIANTS = [
    RegularQuartic(c3=1.0),
    FloryHuggins(1.0, 3.0),
    DoubleObstacle(1.0),
    SingleWellLJ(0.6, 0.0),
]


def report(num, text):
    print(f"criterion {num:02d}: PASS - {text}")


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def spheroid_run():
    """Singular-mode spheroid, 64x64, dt = 1e-3, t_end = 1 (criteria 3/4/11)."""
    grid = Grid2D(64, 64, 12.8, 12.8)
    params = ModelParams(potential=FloryHuggins(1.0, 3.0), m=0.5)
    cfg = SolverConfig(dt=1e-3, t_end=1.0, linear_tol=1e-13, newton_tol=1e-11)
    tic = time.perf_counter()
    records, _, _ = run_records(spheroid_state(grid), params, cfg)
    elapsed = time.perf_counter() - tic
    return records, params, cfg, elapsed


@pytest.fixture(scope="module")
def fd_vs_spectral():
    """Three-level FD / spectral cross-validation (criterion 6)."""
    length = 2.0 * np.pi
    params = ModelParams(potential=RegularQuartic(1.0), m=0.5)
    t_end = 0.1

    def level(nx, k, dt):
        cfg = SolverConfig(dt=dt, t_end=t_end, linear_tol=1e-12,
                           newton_tol=1e-11)
        return max(cross_validate(
            band_limited_state(Grid2D(nx, nx, length, length)),
            params, cfg, k).values())

    tic = time.perf_counter()
    errors = [level(16, 4, 2e-3), level(32, 8, 1e-3), level(64, 16, 5e-4)]
    elapsed = time.perf_counter() - tic
    return errors, elapsed


# ------------------------------------------------------------- criterion 1


def test_criterion_01_truncation_entropy_identities():
    tic = time.perf_counter()
    rng = np.random.default_rng(42)
    n_samples = 10_000
    inv_e = math.exp(-1.0)
    cbars = (0.5, 1.0, 3.0)
    l_max = {c: math.exp(-(1.0 + c) / c) for c in cbars}
    checked = {c: 0 for c in cbars}
    for _ in range(n_samples):
        L = rng.uniform(1e-4, inv_e * 0.999)
        tp = TruncationPair(L)
        r = rng.uniform(-10.0, 10.0) if rng.random() < 0.5 else rng.uniform(
            -2.0 / L, 2.0 / L
        )
        assert abs(entropy_second(tp, r) * tp.truncate(r) - 1.0) <= 1e-14
        rep = inequality_report(tp, r)
        for name in ("lower_quadratic_bound", "moment_bound",
                     "absolute_value_bound", "positive_part_sign"):
            applicable, ok, slack = rep[name]
            if applicable:
                assert ok and slack >= 0.0, (name, r, L, slack)
        for cbar in cbars:
            if L < l_max[cbar]:
                applicable, ok, slack = inequality_report(tp, r, cbar=cbar)[
                    "positive_part_calibrated"
                ]
                assert applicable and ok and slack >= 0.0, (cbar, r, L, slack)
                checked[cbar] += 1
    assert all(count > 500 for count in checked.values())
    elapsed = time.perf_counter() - tic
    assert elapsed < 5.0
    report(1, f"10^4 samples, calibrated checks {checked}, {elapsed:.1f}s")


# ------------------------------------------------------------- criterion 2


def test_criterion_02_moreau_yosida_suite():
    tic = time.perf_counter()
    rng = np.random.default_rng(7)
    eps_cycle = (1e-1, 1e-2, 1e-3)

    for pot in VARIANTS:
        # envelope identity vs brute force, 10^3 samples per variant
        for i in range(1000):
            eps = eps_cycle[i % 3]
            reg = YosidaRegularization(pot, eps)
            r = float(rng.uniform(-2.0, 3.0))
            assert abs(reg.envelope(r) - envelope_bruteforce(pot, eps, r)) <= 1e-8

        for eps in eps_cycle:
            reg = YosidaRegularization(pot, eps)
            r = np.sort(rng.uniform(-3.0, 3.0, 400))
            y = reg.yosida(r)
            dy, dr = np.diff(y), np.diff(r)
            assert np.all(dy >= -1e-9)
            assert np.all(dy <= dr / eps * (1.0 + 1e-9) + 1e-12)
            if pot.convex_slope(np.zeros(1))[0] == 0.0:
                assert abs(reg.yosida(0.0)) <= 1e-10
            else:
                # Flory-Huggins: the convex slope graph provably misses
                # (0, 0); the true value is -resolvent(0)/eps < 0
                j0 = reg.resolvent(0.0)
                assert reg.yosida(0.0) == pytest.approx(-j0 / eps, rel=1e-9)
            lo, hi = pot.slope_domain
            interior = np.linspace(max(lo, 0.0) + 1e-3, min(hi, 1.0) - 1e-3, 101)
            # a resolvent error enters the Yosida value divided by eps; the
            # scalar solve stops at 1e-14, and the bound allows 1e-12
            assert np.all(
                np.abs(reg.yosida(interior))
                <= np.abs(pot.convex_slope(interior)) + 1e-12 / eps
            )

        # eps-consistency strictly improving (exact case exempt)
        lo, hi = pot.slope_domain
        sample = np.linspace(max(lo, 0.0) + 0.05, min(hi, 1.0) - 0.05, 41)
        exact = pot.convex_slope(sample)
        errs = [
            float(np.max(np.abs(YosidaRegularization(pot, e).yosida(sample)
                                - exact)))
            for e in eps_cycle
        ]
        if errs[0] > 1e-14:
            assert errs[0] > errs[1] > errs[2], (type(pot).__name__, errs)
        else:
            assert all(e <= 1e-14 for e in errs)

    elapsed = time.perf_counter() - tic
    assert elapsed < 30.0
    report(2, f"4 variants x 10^3 envelope samples vs brute force, "
              f"{elapsed:.1f}s")


# ------------------------------------------------------------- criterion 3


def test_criterion_03_minmax_principles(spheroid_run):
    records, params, cfg, elapsed = spheroid_run
    assert elapsed < 120.0
    c_min = min(r.c_min for r in records)
    c_max = max(r.c_max for r in records)
    n_min = min(r.n_min for r in records)
    n_max = max(r.n_max for r in records)
    phia_min = min(r.phi_a_min for r in records)
    assert c_min >= -1e-10
    assert c_max <= 1.0 + 1e-10
    assert n_min >= -1e-10
    assert n_max <= 1.0 + 1e-10
    assert phia_min >= -1e-8
    for rec in records:
        assert not any((rec.flag_c_min, rec.flag_c_max, rec.flag_n_min,
                        rec.flag_n_max, rec.flag_phi_a_neg))
    report(3, f"c in [{c_min:.2e}, {c_max:.10f}], n in [{n_min:.2e}, "
              f"{n_max:.10f}], min phi_a {phia_min:.2e}, run {elapsed:.0f}s")


# ------------------------------------------------------------- criterion 4


def test_criterion_04_mass_corridor(spheroid_run):
    records, params, cfg, _elapsed = spheroid_run
    y0 = records[0].phi_mean
    worst_slack = -math.inf
    for rec in records:
        lo, hi = diagnostics.mass_corridor(y0, rec.h_sup, params.m, rec.t)
        slack = cfg.dt * rec.h_sup
        assert lo - slack <= rec.phi_mean <= hi + slack, rec.t
        worst_slack = max(worst_slack,
                          max(lo - rec.phi_mean, rec.phi_mean - hi))
        assert not rec.flag_corridor
    report(4, f"phi mean inside the decay corridor at all "
              f"{len(records)} steps (worst overhang "
              f"{worst_slack:.2e} vs slack dt*H)")


# ------------------------------------------------------------- criterion 5


def test_criterion_05_energy_dissipation():
    length = 2.0 * np.pi
    grid = Grid2D(64, 64, length, length)
    x, y = grid.centers()
    pot = RegularQuartic(1.0)
    params = ModelParams(potential=pot, m=0.0, delta_n=1.0, kappa0=0.0,
                         kappa_inf=0.0)
    st = State(
        0.0,
        grid,
        0.5 + 0.3 * np.cos(np.pi * x / length) * np.cos(np.pi * y / length)
        + 0.15 * np.cos(2 * np.pi * x / length),
        np.zeros(grid.shape),
        np.full(grid.shape, 0.2),
        0.5 + 0.2 * np.cos(np.pi * y / length),
        np.full(grid.shape, 0.1),
    )
    cfg = SolverConfig(dt=1e-3, t_end=1.0, sources_off=True,
                       stabilization=pot.perturbation_lipschitz(),
                       newton_tol=1e-13, linear_tol=1e-13)
    records, _, _ = run_records(st, params, cfg)
    energies = np.array([r.energy for r in records])
    increases = np.diff(energies)
    bound = 1e-12 * np.abs(energies[:-1])
    assert np.all(increases <= bound)
    report(5, f"energy non-increasing over {len(energies) - 1} steps "
              f"(worst step change {increases.max():.2e})")


# ------------------------------------------------------------- criterion 6


def test_criterion_06_oracle_equivalence(fd_vs_spectral):
    errors, elapsed = fd_vs_spectral
    assert elapsed < 300.0
    assert errors[1] <= 5e-3  # the stated 32x32 / k=8 configuration
    assert errors[0] > errors[1] > errors[2]
    report(6, "cross-errors "
              + " > ".join(f"{e:.2e}" for e in errors)
              + f" (stated level {errors[1]:.2e} <= 5e-3), {elapsed:.0f}s")


# ------------------------------------------------------------- criterion 7


@pytest.mark.parametrize("mode", ["smooth", "singular"])
def test_criterion_07_uniform_state_ode_oracle(mode):
    pot = RegularQuartic(1.0) if mode == "smooth" else FloryHuggins(1.0, 3.0)
    params = ModelParams(potential=pot, m=0.5)
    y0 = (0.4, 0.3, 0.9, 0.1)
    exact = solve_uniform_ode(params, y0, 0.5)
    grid = Grid2D(4, 4, 2.0, 2.0)
    st = uniform_state(grid, *y0)
    dt = 1e-5
    cfg = SolverConfig(dt=dt, t_end=0.5)
    worst = 0.0
    for k in range(int(round(0.5 / dt))):
        st, _ = step(st, params, cfg)
        if (k + 1) % 10 == 0:
            ref = exact(st.t)
            got = (st.phi[0, 0], st.phi_a[0, 0], st.n[0, 0], st.c[0, 0])
            worst = max(worst, max(abs(g - r) for g, r in zip(got, ref)))
    assert worst <= 1e-6
    report(7, f"{mode} uniform trajectory matches adaptive ODE oracle to "
              f"{worst:.2e} (tolerance 1e-6)")


# ------------------------------------------------------------- criterion 8


def test_criterion_08_manufactured_convergence():
    length = 2.0 * np.pi
    params = ModelParams(potential=RegularQuartic(1.0), m=0.5)
    mms = Manufactured(params, length)

    def solve(nx, steps, t_end=0.1):
        grid = Grid2D(nx, nx, length, length)
        cfg = SolverConfig(dt=t_end / steps, t_end=t_end,
                           forcing=mms.forcing(), linear_tol=1e-12,
                           newton_tol=1e-12)
        return mms.error_at(
            run_states(mms.initial_state(grid), params, cfg, cfg.steps)[-1])

    # spatial orders with dt scaled as dx^2 so the O(dt) part refines along
    spatial = [solve(16, 25), solve(32, 100), solve(64, 400)]
    orders_space = [math.log2(spatial[i] / spatial[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders_space), orders_space

    # temporal order from consecutive error differences at fixed grid
    temporal = [solve(48, 10), solve(48, 20), solve(48, 40)]
    diffs = (temporal[0] - temporal[1], temporal[1] - temporal[2])
    order_time = math.log2(diffs[0] / diffs[1])
    assert order_time >= 0.9, (temporal, order_time)
    report(8, f"spatial orders {orders_space[0]:.2f}, {orders_space[1]:.2f} "
              f">= 1.9; temporal order {order_time:.2f} >= 0.9")


# ------------------------------------------------------------- criterion 9


def test_criterion_09_weak_residual_scaling():
    length = 2.0 * np.pi
    params = ModelParams(potential=RegularQuartic(1.0), m=0.5)

    def residuals(dt):
        st = band_limited_state(Grid2D(48, 48, length, length))
        cfg = SolverConfig(dt=dt, t_end=0.05, linear_tol=1e-12,
                           newton_tol=1e-12)
        return diagnostics.weak_residual(run_states(st, params, cfg)[-3:],
                                         params, dt)

    coarse = residuals(2e-3)
    fine = residuals(1e-3)
    factor = fine["max"] / coarse["max"]
    assert 0.35 <= factor <= 0.65, factor
    per_eq = {}
    for name in ("phi", "mu", "phi_a", "n", "c"):
        f = np.max(np.abs(fine[name])) / np.max(np.abs(coarse[name]))
        per_eq[name] = f
        assert 0.35 <= f <= 0.65, (name, f)
    report(9, "dt halving scales residuals by "
              + ", ".join(f"{k}={v:.2f}" for k, v in per_eq.items()))


# ------------------------------------------------------------ criterion 10


def test_criterion_10_continuous_dependence():
    from mchks.cli import twin_perturbation

    grid = Grid2D(32, 32, 12.8, 12.8)
    params = ModelParams(potential=FloryHuggins(1.0, 3.0), m=0.5)
    base0 = spheroid_state(grid, n0=0.95, c0=0.3)

    def states(state0, dt):
        cfg = SolverConfig(dt=dt, t_end=0.25, linear_tol=1e-12,
                           newton_tol=1e-11)
        every = max(1, int(round(0.25 / dt)) // 25)
        return run_states(state0, params, cfg, every)

    dt = 2e-3
    base = states(base0, dt)
    amps = (1e-2, 5e-3, 2.5e-3)
    lhs_per_amp = {}
    ratio_a1 = None
    for amp in amps:
        dist = diagnostics.twin_run_distance(
            base, states(twin_perturbation(base0, amp), dt)
        )
        lhs_per_amp[amp] = dist.lhs_total / amp
        if amp == amps[0]:
            ratio_a1 = dist.ratio
    s0 = lhs_per_amp[amps[0]]
    for amp in amps:
        assert abs(lhs_per_amp[amp] / s0 - 1.0) <= 0.25, lhs_per_amp

    base_h = states(base0, dt / 2)
    pert_h = states(twin_perturbation(base0, amps[0]), dt / 2)
    ratio_h = diagnostics.twin_run_distance(base_h, pert_h).ratio
    assert abs(ratio_h / ratio_a1 - 1.0) < 0.10
    report(10, f"lhs/amplitude spread {max(lhs_per_amp.values()) / s0 - 1.0:+.3f}"
               f" (<= 25%), K-hat {ratio_a1:.4f} -> {ratio_h:.4f} under dt/2 "
               f"({abs(ratio_h / ratio_a1 - 1.0):.2%} < 10%)")


# ------------------------------------------------------------ criterion 11


def test_criterion_11_separation_monitor(spheroid_run):
    records, params, _cfg, _elapsed = spheroid_run
    times, margins = diagnostics.separation_margins(records, 0.1,
                                                    params.potential)
    assert np.all(margins > 0.0)
    assert margins[-1] >= 0.5 * margins[0]
    report(11, f"separation margin {margins[0]:.4f} at t=0.1 -> "
               f"{margins[-1]:.4f} at t=1 (>= half, always positive)")
