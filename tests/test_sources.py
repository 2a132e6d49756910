import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from _oracles import scalar_rhs

from mchks.errors import BoundsViolation, ValidationError
from mchks.potentials import FloryHuggins, RegularQuartic
from mchks.sources import (
    ConstantMobility,
    EndothelialProduct,
    KozenyCarman,
    ModelParams,
    h,
    nutrient_split,
    p_switch,
    proliferation,
    reaction_rates,
    signal_split,
    source_c,
    source_n,
    source_phi,
    source_phi_a,
    theta,
)

SMOOTH = ModelParams(potential=RegularQuartic(c3=1.0), chi_phi=0.01)
SINGULAR = ModelParams(potential=FloryHuggins(1.0, 3.0), chi_phi=0.01)


def test_h_is_a_clamp():
    assert h(0.5) == 0.5
    assert h(-2.0) == 0.0
    assert h(3.0) == 1.0


def test_mode_is_derived_from_potential():
    assert not SMOOTH.singular
    assert SINGULAR.singular


def test_chi_validation():
    with pytest.raises(ValidationError):
        ModelParams(chi_a=1.5)
    with pytest.raises(ValidationError):
        ModelParams(potential=FloryHuggins(1.0, 3.0), chi_phi=0.0)
    # smooth mode allows chi_phi = 0
    ModelParams(potential=RegularQuartic(), chi_phi=0.0)


# ----------------------------------------------------------------- S_phi


def test_source_phi_zero_at_zero():
    assert source_phi(SINGULAR, 0.0, 0.7) == 0.0


def test_source_phi_singular_example():
    p = ModelParams(
        potential=FloryHuggins(1.0, 3.0), delta_n=0.2, m=1.0, chi_phi=0.01
    )
    assert source_phi(p, 1.0, 1.0) == pytest.approx(-0.2, abs=1e-15)


def test_source_phi_smooth_saturates():
    p = ModelParams(potential=RegularQuartic(), delta_n=0.2, m=0.0)
    assert source_phi(p, 0.5, 5.0) == pytest.approx(0.4, abs=1e-15)


# ----------------------------------------------------------------- S_a


def test_source_phi_a_zero_phase():
    assert source_phi_a(SINGULAR, 0.3, 0.0, 0.5) == 0.0


def test_source_phi_a_detachment_only():
    p = ModelParams(zeta=0.1, kappa0=1.0, kappa_inf=1.0, delta_a=0.5)
    # phi = 1 kills the (c - delta_a)+ branch via 1 - h(phi) = 0
    assert source_phi_a(p, 1.0, 0.5, 0.4) == pytest.approx(0.025, abs=1e-15)


def test_source_phi_a_carrying_capacity():
    p = ModelParams(kappa0=2.0, kappa_inf=4.0)
    assert source_phi_a(p, 0.2, 0.5, 0.7) == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(phi=st.floats(-10, 10), c=st.floats(0, 1))
def test_theta_bounds(phi, c):
    val = theta(SINGULAR, phi, c)
    assert SINGULAR.zeta - 1e-15 <= val <= 1.0 + SINGULAR.zeta + 1e-15


# ----------------------------------------------------------------- S_n


def test_source_n_singular_examples():
    assert source_n(SINGULAR, 1.0, 0.0, 1.0) == pytest.approx(-1.0)
    assert source_n(SINGULAR, 0.0, 1.0, 0.0) == pytest.approx(2.0)


def test_source_n_smooth_saturation():
    assert source_n(SMOOTH, 0.0, 0.0, 1.0) == pytest.approx(0.0)


# ----------------------------------------------------------------- S_c


def test_source_c_consumption_branches():
    p = ModelParams(delta_n=0.2)
    assert source_c(p, 0.5, 2.0, 1.0, 1.0) == pytest.approx(-2.0)
    assert source_c(p, 1.0, 0.0, 0.0, 0.0) == pytest.approx(0.2)
    assert source_c(p, 0.0, 2.0, 1.0, 0.5) == pytest.approx(-1.0)


# ------------------------------------------------------- implicit splits


@settings(max_examples=150, deadline=None)
@given(phi=st.floats(0, 1), phi_a=st.floats(0, 1), n=st.floats(0, 1),
       chi_phi=st.floats(1e-3, 0.999), chi_a=st.floats(1e-3, 0.999),
       delta_n=st.floats(0, 1))
def test_splits_give_m_matrix_bounds(phi, phi_a, n, chi_phi, chi_a, delta_n):
    # gain >= 0 and production + gain <= loss: the implicit n (singular
    # mode) and c updates then keep 0 <= u <= 1
    params = ModelParams(potential=FloryHuggins(1.0, 3.0), chi_phi=chi_phi,
                         chi_a=chi_a, delta_n=delta_n)
    for production, (gain, loss) in (
        (chi_phi * p_switch(params, phi), nutrient_split(params, phi, phi_a)),
        (chi_a * phi_a, signal_split(params, phi, phi_a, n)),
    ):
        assert gain >= 0.0
        assert production + gain <= loss


# ----------------------------------------------------- growth-bound fits


def test_growth_bounds_on_random_physical_inputs():
    rng = np.random.default_rng(0)
    n_samples = 100_000
    phi = rng.uniform(-2.0, 2.0, n_samples)
    phi_a = rng.uniform(-2.0, 4.0, n_samples)
    n = rng.uniform(0.0, 1.0, n_samples)
    c = rng.uniform(0.0, 1.0, n_samples)
    for params in (SMOOTH, SINGULAR):
        prol = proliferation(params, phi, n)
        assert np.all(np.abs(prol) <= 1.0 + 1e-12)  # C1 = 1 uniformly

        th = theta(params, phi, c)
        assert np.all((params.zeta <= th) & (th <= 1.0 + params.zeta))

        sn = source_n(params, phi, phi_a, n)
        c2 = np.max(np.abs(sn) / (np.abs(phi) + np.maximum(phi_a, 0) + 1.0))
        assert c2 <= 2.0 + 1e-12

        sc = source_c(params, phi, phi_a, n, c)
        c3 = np.max(np.abs(sc) / (np.maximum(phi_a, 0) + np.abs(n) + 1.0))
        assert c3 <= 1.0 + 1e-12


def test_modes_coincide_on_physical_range():
    # with n in [0,1] (where h(n) = n) and phi >= 0 the switches agree,
    # so the smooth/singular variants of every source coincide
    rng = np.random.default_rng(1)
    phi = rng.uniform(0.0, 1.0, 500)
    phi_a = rng.uniform(-1.0, 2.0, 500)
    n = rng.uniform(0.0, 1.0, 500)
    c = rng.uniform(0.0, 1.0, 500)
    assert np.allclose(
        source_phi(SMOOTH, phi, n), source_phi(SINGULAR, phi, n), atol=1e-14
    )
    assert np.allclose(
        source_n(SMOOTH, phi, phi_a, n), source_n(SINGULAR, phi, phi_a, n),
        atol=1e-14,
    )
    assert np.allclose(
        source_c(SMOOTH, phi, phi_a, n, c), source_c(SINGULAR, phi, phi_a, n, c),
        atol=1e-14,
    )
    assert np.allclose(
        source_phi_a(SMOOTH, phi, phi_a, c), source_phi_a(SINGULAR, phi, phi_a, c),
        atol=1e-14,
    )


@pytest.mark.parametrize("params", [SMOOTH, SINGULAR], ids=["quartic", "fh"])
def test_reaction_rates_match_uniform_ode_oracle(params):
    # the uniform reduction has no gradients, so its right-hand side is
    # exactly the reaction part of the four evolution equations
    rng = np.random.default_rng(7)
    phi = rng.uniform(-0.2, 1.2, 64)
    phi_a = rng.uniform(-0.2, 1.5, 64)
    n = rng.uniform(-0.2, 1.2, 64)
    c = rng.uniform(-0.2, 1.2, 64)
    rates = np.array(reaction_rates(params, phi, phi_a, n, c))
    rhs = scalar_rhs(params)
    oracle = np.array(
        [rhs(0.0, y) for y in zip(phi, phi_a, n, c)], dtype=float
    ).T
    np.testing.assert_allclose(rates, oracle, rtol=1e-13, atol=1e-15)


# -------------------------------------------------------------- mobility


def test_constant_mobility():
    mob = ConstantMobility(1.0)
    assert mob(0.3, 0.2, 0.5) == 1.0
    assert mob.bounds == (1.0, 1.0)


def test_kozeny_carman_example():
    mob = KozenyCarman(b_phi=1.0, lam=1.0, m0=0.0, m_up=1.0)
    # phi^(2-2lam) = 1, (1-phi)^2 = 0.25, (1-phi-phi_a)^2 = 0.25
    assert mob(0.5, 0.0, 0.3) == pytest.approx(0.0625, abs=1e-15)


def test_kozeny_carman_refuses_a_nonpositive_scale():
    for b_phi in (0.0, -1.0):
        with pytest.raises(ValueError, match="^mobility must be positive$"):
            KozenyCarman(b_phi=b_phi)
    KozenyCarman(b_phi=1.0, lam=-2.0, m0=0.0)  # lam and m0 stay free


def test_kozeny_carman_degeneracy_warns():
    mob = KozenyCarman(b_phi=1.0, lam=1.0, m0=1e-3, m_up=1.0)
    with pytest.warns(BoundsViolation):
        val = mob(0.5, 0.5, 0.3)
    assert val == pytest.approx(0.0, abs=1e-15)


def test_endothelial_product_bounds():
    mob = EndothelialProduct(m0=0.5, m_up=1.0)
    rng = np.random.default_rng(2)
    phi_a = rng.uniform(-1.0, 10.0, 1000)
    c = rng.uniform(-1.0, 2.0, 1000)
    vals = mob(phi_a, c)
    assert np.all((mob.m0 <= vals) & (vals <= mob.m_up))
