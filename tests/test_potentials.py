import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from mchks.errors import DomainError
from mchks.potentials import (
    DoubleObstacle,
    FloryHuggins,
    RegularQuartic,
    SingleWellLJ,
    YosidaRegularization,
    growth_constant,
)

ALL_VARIANTS = [
    RegularQuartic(c3=4.0),
    FloryHuggins(c1=1.0, c2=2.0),
    DoubleObstacle(c3=1.0),
    SingleWellLJ(r_star=0.6, kappa=0.0),
]


from _oracles import envelope_bruteforce


# ---------------------------------------------------------------- values


def test_flory_huggins_boundary_limit_zero():
    fh = FloryHuggins(c1=1.0, c2=2.0)
    assert fh.value(0.0) == pytest.approx(0.0, abs=1e-14)
    assert fh.value(1.0) == pytest.approx(0.0, abs=1e-14)


def test_quartic_double_well_root():
    q = RegularQuartic(c3=4.0)
    assert q.value(1.0) == 0.0
    assert q.value(0.0) == 0.0


def test_flory_huggins_midpoint_value():
    fh = FloryHuggins(c1=1.0, c2=2.0)
    expected = 0.5 * math.log(0.5) + 0.25  # -0.09657359027997264
    assert fh.value(0.5) == pytest.approx(expected, abs=1e-14)


def test_double_obstacle_outside_domain_is_inf():
    dob = DoubleObstacle(c3=1.0)
    assert dob.value(1.2) == math.inf
    assert dob.value(-0.1) == math.inf


def test_single_well_outside_domain_is_inf():
    sw = SingleWellLJ(r_star=0.6)
    assert sw.value(-0.2) == math.inf
    assert sw.value(1.0) == math.inf


def test_quartic_derivative_symmetry():
    assert RegularQuartic(c3=4.0).derivative(0.5) == pytest.approx(0.0, abs=1e-14)


def test_flory_huggins_derivative_midpoint():
    assert FloryHuggins(1.0, 2.0).derivative(0.5) == pytest.approx(0.0, abs=1e-14)


def test_single_well_derivative_value():
    # convex slope 0.4/0.5 = 0.8, cubic slope -0.25 - 0.2 - 0.4 = -0.85
    sw = SingleWellLJ(r_star=0.6, kappa=0.0)
    assert sw.derivative(0.5) == pytest.approx(-0.05, abs=1e-12)


def test_derivative_domain_errors():
    for pot in ALL_VARIANTS:
        if not pot.singular:
            continue
        with pytest.raises(DomainError):
            pot.derivative(-0.5)
        with pytest.raises(DomainError):
            pot.derivative(1.5)


def test_double_obstacle_derivative_is_perturbation_only():
    dob = DoubleObstacle(c3=1.0)
    r = np.linspace(0.05, 0.95, 11)
    assert np.allclose(dob.derivative(r), 1.0 - 2.0 * r)


# ----------------------------------------------------- split and smoothness


@pytest.mark.parametrize("pot", ALL_VARIANTS, ids=lambda p: type(p).__name__)
def test_decomposition_reconstructs_value(pot):
    if isinstance(pot, RegularQuartic):
        r = np.linspace(-3.0, 3.0, 301)
    elif isinstance(pot, SingleWellLJ):
        r = np.linspace(0.0, 0.999, 301)
    else:
        r = np.linspace(0.0, 1.0, 301)
    direct = pot.convex_value(r) + pot.concave_value(r)
    assert np.allclose(pot.value(r), direct, rtol=0, atol=1e-14)


@pytest.mark.parametrize("pot", ALL_VARIANTS, ids=lambda p: type(p).__name__)
def test_derivative_matches_finite_difference(pot):
    lo, hi = pot.slope_domain
    lo, hi = max(lo, 0.02), min(hi, 0.98)
    r = np.linspace(lo, hi, 25)
    if isinstance(pot, DoubleObstacle):
        # minimal convex section is 0 inside the obstacle interval, so the
        # reported derivative is the perturbation slope only; F is smooth
        # there, so the FD check applies directly too
        pass
    h = 1e-6
    fd = (pot.value(r + h) - pot.value(r - h)) / (2 * h)
    assert np.allclose(pot.derivative(r), fd, rtol=0, atol=5e-7)


def test_single_well_truncation_matches_cubic_inside():
    sw = SingleWellLJ(r_star=0.6, kappa=0.3)
    r = np.linspace(0.0, 1.0, 41)
    cubic = -(r**3) / 3.0 - 0.5 * 0.4 * r**2 - 0.4 * r + 0.3
    assert np.allclose(sw.concave_value(r), cubic, atol=1e-14)


def test_single_well_truncation_c1_and_lipschitz():
    sw = SingleWellLJ(r_star=0.6)
    # continuity of value and slope at the seams
    for seam in (0.0, 1.0):
        below = sw.concave_slope(seam - 1e-9)
        above = sw.concave_slope(seam + 1e-9)
        assert below == pytest.approx(above, abs=1e-7)
    # slope is globally Lipschitz with the declared constant and nonincreasing
    r = np.linspace(-5.0, 5.0, 2001)
    slopes = np.diff(sw.concave_slope(r)) / np.diff(r)
    assert np.all(slopes <= 1e-12)
    assert np.max(np.abs(slopes)) <= sw.perturbation_lipschitz() + 1e-9


def test_quartic_growth_constant_is_finite():
    c = growth_constant(RegularQuartic(c3=4.0))
    assert np.isfinite(c)
    # sanity: the sampled ratio never exceeds the fitted constant
    q = RegularQuartic(c3=4.0)
    r = np.linspace(-10, 10, 5001)
    assert np.all(np.abs(q.derivative(r)) <= c * (q.value(r) + 1.0) + 1e-9)


# ------------------------------------------------------------- resolvent


def test_resolvent_fixed_point_at_zero():
    for pot in ALL_VARIANTS:
        reg = YosidaRegularization(pot, eps=0.1)
        if pot.zero_in_convex_graph:
            assert reg.resolvent(0.0) == pytest.approx(0.0, abs=1e-12)


def test_resolvent_projection_double_obstacle():
    reg = YosidaRegularization(DoubleObstacle(c3=1.0), eps=0.1)
    assert reg.resolvent(1.5) == pytest.approx(1.0, abs=1e-14)
    assert reg.resolvent(-0.5) == pytest.approx(0.0, abs=1e-14)
    assert reg.resolvent(0.3) == pytest.approx(0.3, abs=1e-14)


def test_resolvent_flory_huggins_midpoint_fixed():
    reg = YosidaRegularization(FloryHuggins(1.0, 2.0), eps=0.01)
    assert reg.resolvent(0.5) == pytest.approx(0.5, abs=1e-12)


def test_resolvent_solves_inclusion():
    # plug the resolvent back into x + eps*slope(x) = r on generic points
    for pot in ALL_VARIANTS:
        reg = YosidaRegularization(pot, eps=0.05)
        r = np.array([-2.0, -0.3, 0.2, 0.5, 0.9, 1.4, 3.0])
        j = reg.resolvent(r)
        lo, hi = pot.slope_domain
        interior = (j > lo) & (j < hi)
        res = j[interior] + 0.05 * pot.convex_slope(j[interior]) - r[interior]
        assert np.max(np.abs(res)) < 1e-10


def test_yosida_values_double_obstacle():
    reg = YosidaRegularization(DoubleObstacle(c3=1.0), eps=0.1)
    assert reg.yosida(1.5) == pytest.approx(5.0, abs=1e-12)
    assert reg.yosida(0.5) == 0.0


def test_yosida_zero_at_zero_for_normalized_graphs():
    for pot in ALL_VARIANTS:
        reg = YosidaRegularization(pot, eps=0.1)
        if pot.zero_in_convex_graph:
            assert reg.yosida(0.0) == pytest.approx(0.0, abs=1e-11)


def test_yosida_flory_huggins_origin_value():
    # The Flory-Huggins convex slope has empty subdifferential at 0, so the
    # Yosida approximation cannot vanish there; it equals -J(0)/eps < 0.
    reg = YosidaRegularization(FloryHuggins(1.0, 2.0), eps=0.1)
    j0 = reg.resolvent(0.0)
    assert 0.0 < j0 < 0.5
    assert reg.yosida(0.0) == pytest.approx(-j0 / 0.1, abs=1e-10)


@pytest.mark.parametrize("pot", ALL_VARIANTS, ids=lambda p: type(p).__name__)
def test_yosida_monotone_and_lipschitz(pot):
    rng = np.random.default_rng(7)
    for eps in (0.1, 0.01):
        reg = YosidaRegularization(pot, eps=eps)
        r = np.sort(rng.uniform(-4.0, 4.0, size=400))
        y = reg.yosida(r)
        dy = np.diff(y)
        dr = np.diff(r)
        assert np.all(dy >= -1e-10)
        assert np.all(dy <= dr / eps + 1e-8 * np.maximum(1, np.abs(y[1:])))


@pytest.mark.parametrize("pot", ALL_VARIANTS, ids=lambda p: type(p).__name__)
def test_yosida_bounded_by_minimal_section(pot):
    lo, hi = pot.slope_domain
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    r = np.linspace(lo + 1e-3, hi - 1e-3, 101)
    reg = YosidaRegularization(pot, eps=0.05)
    assert np.all(np.abs(reg.yosida(r)) <= np.abs(pot.convex_slope(r)) + 1e-12)


@pytest.mark.parametrize("pot", ALL_VARIANTS, ids=lambda p: type(p).__name__)
def test_yosida_consistency_as_eps_decreases(pot):
    lo, hi = pot.slope_domain
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    r = np.linspace(lo + 0.05, hi - 0.05, 41)
    exact = pot.convex_slope(r)
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        reg = YosidaRegularization(pot, eps=eps)
        errs.append(np.max(np.abs(reg.yosida(r) - exact)))
    # strictly improving unless already exact (double obstacle interior)
    if errs[0] < 1e-14:
        assert all(e < 1e-14 for e in errs)
    else:
        assert errs[0] > errs[1] > errs[2]


def test_yosida_derivative_matches_finite_difference():
    for pot in ALL_VARIANTS:
        reg = YosidaRegularization(pot, eps=0.05)
        r = np.linspace(-1.5, 2.5, 37)
        h = 1e-6
        fd = (reg.yosida(r + h) - reg.yosida(r - h)) / (2 * h)
        ok = np.abs(reg.yosida_derivative(r) - fd) < 1e-4 * (1 + np.abs(fd))
        # graph corners give one-sided derivatives; allow isolated mismatches
        assert ok.sum() >= len(r) - 3


# -------------------------------------------------------------- envelope


def test_envelope_values_double_obstacle():
    reg = YosidaRegularization(DoubleObstacle(c3=1.0), eps=0.1)
    assert reg.envelope(0.5) == 0.0
    assert reg.envelope(1.5) == pytest.approx(1.25, abs=1e-13)


@pytest.mark.parametrize("pot", ALL_VARIANTS, ids=lambda p: type(p).__name__)
def test_envelope_identity_matches_bruteforce(pot):
    rng = np.random.default_rng(11)
    for eps in (0.1, 0.01):
        reg = YosidaRegularization(pot, eps=eps)
        for r in rng.uniform(-2.0, 3.0, size=24):
            brute = envelope_bruteforce(pot, eps, float(r))
            assert reg.envelope(float(r)) == pytest.approx(brute, abs=1e-8)


@pytest.mark.parametrize("pot", ALL_VARIANTS, ids=lambda p: type(p).__name__)
def test_envelope_below_convex_part(pot):
    reg = YosidaRegularization(pot, eps=0.05)
    lo, hi = pot.slope_domain
    r = np.linspace(max(lo, 0.0), min(hi, 1.0) - 1e-9, 51)
    env = reg.envelope(r)
    assert np.all(env >= -1e-14)
    assert np.all(env <= pot.convex_value(r) + 1e-12)


def test_yosida_envelope_bound_constant_is_finite():
    # |yosida| <= (C/eps)(envelope + 1) with a fitted constant C
    r = np.linspace(-3.0, 4.0, 301)
    for pot in ALL_VARIANTS:
        for eps in (0.1, 0.01):
            reg = YosidaRegularization(pot, eps=eps)
            c_fit = np.max(eps * np.abs(reg.yosida(r)) / (reg.envelope(r) + 1.0))
            assert np.isfinite(c_fit)
            assert c_fit <= 10.0


@pytest.mark.parametrize("eps", [0.1, 1e-3])
@pytest.mark.parametrize("pot", ALL_VARIANTS, ids=lambda p: type(p).__name__)
def test_slope_and_curvature_matches_separate_calls(pot, eps):
    reg = YosidaRegularization(pot, eps=eps)
    r = np.linspace(-2.0, 3.0, 2001)
    slope, curv = reg.slope_and_curvature(r)
    assert np.array_equal(slope, reg.yosida(r))
    assert np.array_equal(curv, reg.yosida_derivative(r))


@pytest.mark.parametrize("eps", [0.05, 0.02, 0.01, 1e-3, 1e-4])
def test_flory_huggins_resolvent_converges_on_dense_sweep(eps):
    # Plain Newton in logit coordinates swings between the flat tails of the
    # sigmoid at some of these points; every one must converge.
    pot = FloryHuggins(c1=1.0, c2=3.0)
    r = np.linspace(-0.5, 1.5, 400001)
    j = YosidaRegularization(pot, eps=eps).resolvent(r)
    assert np.all((j >= 0.0) & (j <= 1.0))
    # bisection reference on sigmoid(u) + a u = r, to round-off
    a = 0.5 * eps * pot.c1
    rs = r[::10]
    lo, hi = (rs - 1.0) / a, rs / a
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        above = expit(mid) + a * mid - rs > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    assert np.max(np.abs(j[::10] - expit(0.5 * (lo + hi)))) <= 1e-11


def test_flory_huggins_resolvent_warm_start_sweeps(monkeypatch):
    # Started from logit(r), the resolvent of a spheroid profile takes a few
    # sweeps; from the midpoint of its bracket it took 19 at eps = 1e-3.
    import mchks.potentials as potentials
    from mchks.cli import build_initial_state, parse_config

    config = parse_config("[grid]\nnx = 128\nny = 128\n")
    phi = build_initial_state(config).phi.values
    calls = []
    expit_ = potentials.expit

    def counted(u):
        calls.append(1)
        return expit_(u)

    monkeypatch.setattr(potentials, "expit", counted)
    FloryHuggins(c1=1.0, c2=3.0).resolvent(phi, 1e-3)
    assert len(calls) <= 5


@pytest.mark.parametrize("eps", [0.05, 1e-3, 1e-4])
def test_flory_huggins_resolvent_edge_inputs(eps):
    pot = FloryHuggins(c1=1.0, c2=3.0)
    r = np.array([0.0, 1.0, -1e6, 1e6, 5e-324, 1.0 - 1e-16])
    j = pot.resolvent(r, eps)
    assert np.all(np.isfinite(j))
    assert np.all((j >= 0.0) & (j <= 1.0))
    # r - j lies in eps * dbeta(j): in logit form, j = sigmoid((r - j) / a)
    a = 0.5 * eps * pot.c1
    assert np.max(np.abs(expit((r - j) / a) - j)) <= 1e-9


def test_flory_huggins_resolvent_is_elementwise():
    pot = FloryHuggins(c1=1.0, c2=3.0)
    r = np.concatenate([
        np.linspace(-0.5, 1.5, 201),
        [0.0, 1.0, -1e6, 1e6, 5e-324, 1.0 - 1e-16],
    ])
    for eps in (0.05, 1e-3):
        j = pot.resolvent(r, eps)
        alone = np.array([pot.resolvent(r[i:i + 1], eps)[0]
                          for i in range(r.size)])
        assert np.array_equal(j, alone)


# ------------------------------------------------------ property sampling


@settings(max_examples=60, deadline=None)
@given(
    r1=st.floats(-4, 4),
    r2=st.floats(-4, 4),
    eps=st.sampled_from([0.3, 0.1, 0.03]),
)
def test_yosida_lipschitz_property(r1, r2, eps):
    reg = YosidaRegularization(FloryHuggins(1.0, 3.0), eps=eps)
    y1, y2 = reg.yosida(r1), reg.yosida(r2)
    if r1 > r2:
        r1, r2, y1, y2 = r2, r1, y2, y1
    assert y2 - y1 >= -1e-9
    assert abs(y2 - y1) <= abs(r2 - r1) / eps + 1e-9
