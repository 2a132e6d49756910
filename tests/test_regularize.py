import math
from functools import partial

import numpy as np
import pytest
from _oracles import entropy_prime, entropy_second, inequality_report
from hypothesis import given, settings
from hypothesis import strategies as st

from mchks.errors import RangeError
from mchks.sources import TruncationPair


def test_truncate_clamps():
    tp = TruncationPair(0.1)
    assert tp.truncate(5.0) == 5.0
    assert tp.truncate(-1.0) == 0.1
    assert tp.truncate(100.0) == 10.0


def test_entropy_normalization_at_one():
    tp = TruncationPair(0.1)
    assert tp.entropy(1.0) == pytest.approx(0.0, abs=1e-15)
    assert entropy_prime(tp, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_entropy_values_at_e():
    tp = TruncationPair(0.01)
    assert entropy_prime(tp, math.e) == pytest.approx(1.0, abs=1e-14)
    assert tp.entropy(math.e) == pytest.approx(1.0, abs=1e-14)


def test_second_derivative_times_truncation_is_one():
    tp = TruncationPair(0.1)
    for r in (-3.0, 0.05, 1.0, 7.0, 20.0):
        assert entropy_second(tp, r) * tp.truncate(r) == pytest.approx(1.0, abs=1e-14)


def test_entropy_piecewise_continuity():
    tp = TruncationPair(0.2)
    for seam in (0.2, 5.0):
        for f in (tp.entropy, partial(entropy_prime, tp),
                  partial(entropy_second, tp)):
            assert f(seam - 1e-10) == pytest.approx(f(seam + 1e-10), abs=1e-8)


def test_entropy_derivatives_match_finite_differences():
    tp = TruncationPair(0.15)
    r = np.concatenate([np.linspace(-2, 0.1, 13), np.linspace(0.3, 10, 17)])
    h = 1e-6
    fd1 = (tp.entropy(r + h) - tp.entropy(r - h)) / (2 * h)
    fd2 = (entropy_prime(tp, r + h) - entropy_prime(tp, r - h)) / (2 * h)
    assert np.allclose(entropy_prime(tp, r), fd1, atol=1e-7)
    assert np.allclose(entropy_second(tp, r), fd2, atol=1e-6)


def test_pair_needs_l_between_zero_and_one():
    for L in (0.0, 1.0, 2.0):
        with pytest.raises(ValueError):
            TruncationPair(L)
    assert TruncationPair(0.25).M == 4.0


def test_lower_quadratic_bound_example():
    tp = TruncationPair(0.1)
    # at r = -1: (1 - 0.01)/0.2 + (log 0.1 - 1)(-1) + 1 = 9.252585...
    expected = 0.99 / 0.2 + (1.0 - math.log(0.1)) + 1.0
    assert tp.entropy(-1.0) == pytest.approx(expected, abs=1e-12)
    report = inequality_report(tp, -1.0)
    app, ok, slack = report["lower_quadratic_bound"]
    assert app and ok
    assert slack == pytest.approx(expected - 5.0, abs=1e-12)


def test_moment_bound_trivial_at_one():
    tp = TruncationPair(0.1)
    app, ok, slack = inequality_report(tp, 1.0)["moment_bound"]
    assert app and ok
    assert slack == pytest.approx(1.0, abs=1e-14)


def test_positive_part_sign_at_zero():
    tp = TruncationPair(0.1)
    app, ok, slack = inequality_report(tp, 0.0)["positive_part_sign"]
    assert app and ok
    assert slack == pytest.approx(0.5 / math.e, abs=1e-15)


def test_range_error_outside_inv_e():
    tp = TruncationPair(0.5)  # L > 1/e
    with pytest.raises(RangeError):
        inequality_report(tp, 0.0)


def test_calibrated_bound_l_range():
    # cbar = 1 requires L < exp(-2) ~ 0.1353
    tp_ok = TruncationPair(0.1)
    inequality_report(tp_ok, 2.0, cbar=1.0)
    tp_bad = TruncationPair(0.2)
    with pytest.raises(RangeError):
        inequality_report(tp_bad, 2.0, cbar=1.0)


@pytest.mark.parametrize("cbar", [0.5, 1.0, 3.0])
def test_calibrated_bound_holds_on_samples(cbar):
    l_max = math.exp(-(1.0 + cbar) / cbar)
    rng = np.random.default_rng(3)
    for _ in range(200):
        L = rng.uniform(1e-4, 0.999 * l_max)
        tp = TruncationPair(L)
        r = rng.uniform(-10.0, 10.0)
        app, ok, slack = inequality_report(tp, r, cbar=cbar)[
            "positive_part_calibrated"
        ]
        assert app and ok, (L, r, slack)


@settings(max_examples=150, deadline=None)
@given(
    r=st.floats(-20.0, 20.0),
    L=st.floats(1e-4, 0.36, exclude_max=True),
)
def test_inequalities_hold_randomly(r, L):
    tp = TruncationPair(L)
    assert tp.entropy(r) >= 0.0
    assert entropy_second(tp, r) > 0.0
    assert entropy_second(tp, r) * tp.truncate(r) == pytest.approx(1.0, abs=1e-14)
    report = inequality_report(tp, r)
    for name, (applicable, ok, slack) in report.items():
        if applicable:
            assert ok, (name, slack)
            assert slack >= 0.0


def test_chain_rule_identity_pointwise():
    # T(r) * E''(r) = 1 implies the gradient identity
    # T(r(s)) d/ds E'(r(s)) = d/ds r(s) along any differentiable path
    tp = TruncationPair(0.05)
    s = np.linspace(0.0, 1.0, 200)
    r = 2.0 * np.sin(3 * s) - 0.3  # crosses both truncation thresholds
    h = 1e-6
    lhs = tp.truncate(r) * (
        entropy_prime(tp, r + h * np.cos(3 * s) * 6) - entropy_prime(tp, r)
    ) / h
    rhs = 6 * np.cos(3 * s)
    # compare where the path is away from the truncation seams
    seam = (np.abs(r - 0.05) > 1e-3) & (np.abs(r - 20.0) > 1e-3)
    assert np.allclose(lhs[seam], rhs[seam], rtol=1e-4, atol=1e-4)
