import re
from types import SimpleNamespace

import numpy as np
import pytest
from _oracles import (
    band_limited_state,
    galerkin_energy,
    galerkin_rk45,
    nan_galerkin_rhs,
    solve_uniform_ode,
)

from mchks import galerkin
from mchks.cli import build_initial_state, parse_config
from mchks.errors import NonFiniteField
from mchks.fields import Grid2D
from mchks.galerkin import (
    EigenBasis,
    cross_errors,
    evaluate_on_grid,
    galerkin_rhs,
    initial_galerkin_state,
    integrate_galerkin,
    project,
    project_values,
    reconstruct,
)
from mchks.potentials import RegularQuartic
from mchks.sources import ModelParams, source_phi

PARAMS = ModelParams(potential=RegularQuartic(1.0), m=0.5)
FIELDS = ("phi", "phi_a", "n", "c")


def constant_fields(grid, values):
    return {name: np.full(grid.shape, float(val)) for name, val in values.items()}


def band_limited_fields(grid):
    state = band_limited_state(grid)
    return {name: getattr(state, name) for name in FIELDS}


def test_project_constant_hits_only_mean_mode():
    basis = EigenBasis(2.0, 1.0, 4)
    grid = Grid2D(8, 6, 2.0, 1.0)
    coeffs = project(basis, grid, np.ones(grid.shape))
    assert coeffs[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    off = np.abs(coeffs).sum() - abs(coeffs[0, 0])
    assert off < 1e-12


def test_project_mode_is_orthonormal():
    basis = EigenBasis(2.0, 1.0, 5)

    def mode(x, y):
        return (
            np.sqrt(2.0 / 2.0)
            * np.cos(np.pi * x / 2.0)
            * np.sqrt(2.0 / 1.0)
            * np.cos(2.0 * np.pi * y / 1.0)
        )

    grid = Grid2D(12, 8, 2.0, 1.0)
    coeffs = project(basis, grid, mode(*grid.centers()))
    assert coeffs[1, 2] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(coeffs).sum() - abs(coeffs[1, 2]) < 1e-11


def test_band_limited_roundtrip():
    basis = EigenBasis(3.0, 2.0, 6)

    def f(x, y):
        return (
            0.3
            + 0.2 * np.cos(np.pi * x / 3.0) * np.cos(np.pi * y / 2.0)
            + 0.1 * np.cos(2 * np.pi * x / 3.0)
        )

    grid = Grid2D(9, 7, 3.0, 2.0)
    coeffs = project(basis, grid, f(*grid.centers()))
    # the quadrature cells are the centres of an n_quad x n_quad grid
    x, y = Grid2D(basis.n_quad, basis.n_quad, 3.0, 2.0).centers()
    assert np.allclose(reconstruct(basis, coeffs), f(x, y), atol=1e-12)


def test_project_scalar_field_matches_callable():
    grid = Grid2D(64, 64, 2.0, 2.0)
    basis = EigenBasis(2.0, 2.0, 3)

    def f(x, y):
        return 0.5 + 0.25 * np.cos(np.pi * x / 2.0)

    # the orthonormal modes of f: 0.5 sqrt(4) psi_00 + 0.25 sqrt(2) psi_10
    exact = np.zeros((4, 4))
    exact[0, 0], exact[1, 0] = 1.0, 0.25 * np.sqrt(2.0)
    sampled = project(basis, grid, f(*grid.centers()))
    # the midpoint sum of a band-limited field is exact to round-off
    assert np.allclose(sampled, exact, atol=1e-14)


@pytest.mark.parametrize("nx, ny, lx, ly, k", [
    (17, 23, 2.0, 3.5, 16),
    (64, 48, 12.8, 9.6, 8),
    (64, 64, 2 * np.pi, 2 * np.pi, 16),
    (10, 10, 3.0, 1.5, 4),
])
def test_project_inverts_evaluate_on_grid(nx, ny, lx, ly, k):
    grid = Grid2D(nx, ny, lx, ly)
    basis = EigenBasis(lx, ly, k)
    a = np.random.default_rng(nx * ny + k).standard_normal((k + 1, k + 1))
    values = evaluate_on_grid(basis, a, grid)
    back = project(basis, grid, values)
    assert np.max(np.abs(back - a)) <= 1e-13
    if (nx, ny) == (basis.n_quad, basis.n_quad):
        # on the quadrature cells the FD grid reads the same cosine table
        assert np.array_equal(reconstruct(basis, a), values)
        assert np.array_equal(project_values(basis, values), back)


def test_project_needs_more_cells_than_modes():
    grid = Grid2D(8, 12, 1.0, 1.5)
    x, _ = grid.centers()
    field = np.cos(np.pi * x)
    project(EigenBasis(1.0, 1.5, 7), grid, field)
    with pytest.raises(ValueError, match="8x12"):
        project(EigenBasis(1.0, 1.5, 8), grid, field)


def test_grid_must_cover_the_basis_rectangle():
    # cos(pi x / 2) on [0, 2]^2 read as a field on the unit square would
    # return 0.707 in mode (1, 0)
    basis = EigenBasis(1.0, 1.0, 4)
    grid = Grid2D(16, 16, 2.0, 2.0)
    x, _ = grid.centers()
    field = np.cos(np.pi * x / 2)
    coeffs = np.zeros((5, 5))
    fd = SimpleNamespace(grid=grid, **{n: field for n in ("phi", "phi_a", "n", "c")})
    gs = SimpleNamespace(**{n: coeffs for n in ("phi", "phi_a", "n", "c")})
    for call in (lambda: project(basis, grid, field),
                 lambda: evaluate_on_grid(basis, coeffs, grid),
                 lambda: cross_errors(fd, gs, basis)):
        with pytest.raises(ValueError, match=r"2 x 2 .* 1 x 1"):
            call()
    # a relative difference of 1e-12 still counts as the same rectangle
    near = Grid2D(16, 16, 1.0 + 5e-13, 1.0)
    assert evaluate_on_grid(basis, coeffs, near).shape == (16, 16)


def test_alpha_starts_at_zero_and_orders():
    basis = EigenBasis(2.0, 1.0, 3)
    assert basis.alpha[0, 0] == 0.0
    assert basis.alpha[1, 0] == pytest.approx((np.pi / 2.0) ** 2)
    assert np.all(basis.alpha >= 0.0)


def test_mean_channel_carries_source_mean():
    basis = EigenBasis(2.0, 1.0, 0)
    grid = Grid2D(4, 4, 2.0, 1.0)
    g0 = initial_galerkin_state(basis, grid, constant_fields(
        grid, dict(phi=0.4, phi_a=0.3, n=0.9, c=0.1)))
    derivs = galerkin_rhs((g0.phi, g0.phi_a, g0.n, g0.c), PARAMS, basis)
    area = 2.0 * 1.0
    expected = source_phi(PARAMS, 0.4, 0.9) * np.sqrt(area)
    assert derivs[0][0, 0] == pytest.approx(expected, rel=1e-12)


def test_zero_state_zero_sources_is_stationary():
    params = ModelParams(potential=RegularQuartic(1.0), m=0.0, delta_n=1.0,
                         kappa0=0.0, kappa_inf=0.0)
    basis = EigenBasis(1.0, 1.0, 2)
    zero = np.zeros((3, 3))
    coeffs = (zero, zero, zero, zero)
    derivs = galerkin_rhs(coeffs, params, basis)
    # n picks up its structural supply term unless sources vanish identically;
    # with phi = phi_a = 0 that supply is (1 - q(0)) * 1 = 1, so check phi/phi_a
    assert np.allclose(derivs[0], 0.0, atol=1e-14)
    assert np.allclose(derivs[1], 0.0, atol=1e-14)


def test_k0_reduction_matches_scalar_ode():
    basis = EigenBasis(2.0, 1.0, 0)
    y0 = dict(phi=0.4, phi_a=0.3, n=0.9, c=0.1)
    grid = Grid2D(4, 4, 2.0, 1.0)
    g0 = initial_galerkin_state(basis, grid, constant_fields(grid, y0))
    final = integrate_galerkin(g0, PARAMS, basis, 0.5)[-1]
    exact = solve_uniform_ode(PARAMS, list(y0.values()), 0.5)(0.5)
    root = np.sqrt(2.0)
    got = [final.phi[0, 0], final.phi_a[0, 0], final.n[0, 0], final.c[0, 0]]
    assert np.allclose(np.array(got) / root, exact, atol=1e-8)


def test_initial_projection_matches_data():
    L = 2 * np.pi
    basis = EigenBasis(L, L, 4)
    grid = Grid2D(16, 16, L, L)
    g0 = initial_galerkin_state(basis, grid, band_limited_fields(grid))
    quad = band_limited_state(Grid2D(basis.n_quad, basis.n_quad, L, L))
    assert np.allclose(reconstruct(basis, g0.phi), quad.phi, atol=1e-10)


def test_spectral_self_consistency_under_k_doubling():
    L = 2 * np.pi
    grid = Grid2D(48, 48, L, L)
    finals = {}
    for k in (2, 4, 8, 16):
        basis = EigenBasis(L, L, k)
        g0 = initial_galerkin_state(basis, grid, band_limited_fields(grid))
        gs = integrate_galerkin(g0, PARAMS, basis, 0.02)[-1]
        finals[k] = evaluate_on_grid(basis, gs.phi, grid)
    diffs = [
        np.sqrt(np.mean((finals[2] - finals[4]) ** 2)),
        np.sqrt(np.mean((finals[4] - finals[8]) ** 2)),
        np.sqrt(np.mean((finals[8] - finals[16]) ** 2)),
    ]
    assert diffs[0] > diffs[1] > diffs[2]


def test_energy_lyapunov_zero_sources():
    L = 2 * np.pi
    params = ModelParams(potential=RegularQuartic(1.0), m=0.0, delta_n=1.0,
                         kappa0=0.0, kappa_inf=0.0)
    basis = EigenBasis(L, L, 6)
    grid = Grid2D(16, 16, L, L)
    g0 = initial_galerkin_state(basis, grid, band_limited_fields(grid))
    times = np.linspace(0.0, 0.05, 11)
    states = integrate_galerkin(g0, params, basis, 0.05, t_eval=times)
    assert [s.t for s in states] == list(times)
    energies = [galerkin_energy(basis, s, params) for s in states]
    assert np.all(np.diff(energies) <= 1e-7 * max(abs(e) for e in energies))


def test_non_finite_stage_names_eps_k_and_t(monkeypatch):
    # 30 finite evaluations are 7 steps of four stages and two of the 8th
    monkeypatch.setattr(galerkin, "galerkin_rhs", nan_galerkin_rhs(30))
    L = 2 * np.pi
    basis = EigenBasis(L, L, 4)
    grid = Grid2D(16, 16, L, L)
    g0 = initial_galerkin_state(basis, grid, band_limited_fields(grid))
    with pytest.raises(NonFiniteField) as exc:
        integrate_galerkin(g0, PARAMS, basis, 0.1)
    msg = str(exc.value)
    assert f"eps = {PARAMS.eps:g}" in msg
    assert "k = 4" in msg
    assert re.search(r"t = 0\.035 of 0\.1", msg)


def _etd_error(g0, params, basis, t_end, ref):
    gs = integrate_galerkin(g0, params, basis, t_end)[-1]
    return max(np.sqrt(np.mean((getattr(gs, f) - getattr(ref, f)) ** 2))
               for f in FIELDS)


def test_etd_oracle_matches_tight_rk45(monkeypatch):
    # criterion-06 data and the compare-quartic-64 data (default 64^2 grid,
    # quartic), both at k = 16: within 1e-8 RMS per field of RK45 at
    # rtol = 1e-12 (1.5e-9 measured on the latter)
    L = 2 * np.pi
    quartic = parse_config("", overrides=["params.potential=quartic"])
    cases = [(band_limited_state(Grid2D(64, 64, L, L)), PARAMS, 0.1),
             (build_initial_state(quartic), quartic.params, 0.25)]
    for state, params, t_end in cases:
        basis = EigenBasis(state.grid.lx, state.grid.ly, 16)
        g0 = initial_galerkin_state(
            basis, state.grid, {name: getattr(state, name) for name in FIELDS})
        ref = galerkin_rk45(g0, params, basis, t_end)
        err = _etd_error(g0, params, basis, t_end, ref)
        assert err <= 1e-8
    # on the compare-quartic-64 data half the step cuts the error at least
    # 4x (7x measured; the order is not cleanly 4 there)
    monkeypatch.setattr(galerkin, "ETD_STEP", galerkin.ETD_STEP / 2)
    assert _etd_error(g0, params, basis, t_end, ref) <= err / 4


def test_mean_channel_respects_mass_corridor():
    # the (0,0) coefficient of phi carries the spatial mean, whose decay
    # corridor must hold along the integrated trajectory
    from mchks.diagnostics import mass_corridor
    from mchks.sources import proliferation

    L = 2 * np.pi
    basis = EigenBasis(L, L, 6)
    grid = Grid2D(16, 16, L, L)
    g0 = initial_galerkin_state(basis, grid, band_limited_fields(grid))
    times = np.linspace(0.0, 0.2, 9)
    states = integrate_galerkin(g0, PARAMS, basis, 0.2, t_eval=times)
    assert [s.t for s in states] == list(times)
    area = L * L
    y0 = g0.phi[0, 0] / np.sqrt(area)
    h_sup = 0.0
    for s in states:
        phi_q = reconstruct(basis, s.phi)
        n_q = reconstruct(basis, s.n)
        h_sup = max(h_sup, float(np.max(np.abs(
            proliferation(PARAMS, phi_q, n_q)))))
        if s.t == 0.0:
            continue
        lo, hi = mass_corridor(y0, h_sup, PARAMS.m, s.t)
        y = s.phi[0, 0] / np.sqrt(area)
        assert lo - 1e-9 <= y <= hi + 1e-9


def test_separation_monitor_single_well_variant():
    # the single-well potential repels phi only from 1: the margin is
    # 1 - delta_upper
    from mchks.diagnostics import separation_margins
    from mchks.solver import SolverConfig
    from mchks.potentials import SingleWellLJ
    from _oracles import run_records, spheroid_state

    grid = Grid2D(16, 16, 8.0, 8.0)
    params = ModelParams(potential=SingleWellLJ(0.6, 0.0), m=0.5)
    st = spheroid_state(grid, phi_lo=0.02, phi_hi=0.8)
    records, _, _ = run_records(st, params, SolverConfig(dt=1e-3, t_end=0.02),
                                every=4)
    times, margins = separation_margins(records, 0.0, params.potential)
    assert np.all(margins > 0.0)
