"""Shared independent oracles and scenario builders for the test suite."""

import math

import numpy as np
from scipy.integrate import solve_ivp

from mchks.diagnostics import DiagnosticsTracker
from mchks.errors import RangeError
from mchks.fields import Grid2D
from mchks.galerkin import GalerkinState, galerkin_rhs, gradient, reconstruct
from mchks.potentials import elementwise
from mchks.solver import State, run
from mchks.sources import (
    p_switch,
    source_c,
    source_n,
    source_phi,
    source_phi_a,
)


def scalar_rhs(params):
    """Right-hand sides of the spatially uniform reduction (gradients vanish)."""

    def rhs(t, y):
        phi, phia, n, c = y
        return [
            source_phi(params, phi, n),
            source_phi_a(params, phi, phia, c),
            params.chi_phi * p_switch(params, phi)
            + source_n(params, phi, phia, n),
            params.chi_a * max(phia, 0.0) + source_c(params, phi, phia, n, c),
        ]

    return rhs


def solve_uniform_ode(params, y0, t_end, rtol=1e-10, atol=1e-12):
    """Adaptive scalar integration; returns a dense interpolant."""
    sol = solve_ivp(
        scalar_rhs(params), (0.0, t_end), list(y0), rtol=rtol, atol=atol,
        dense_output=True,
    )
    assert sol.success
    return sol.sol


def galerkin_rk45(g0, params, basis, t_end, rtol=1e-12, atol=1e-14):
    """The Galerkin system by adaptive RK45 to tight tolerance: a reference
    for the ETDRK4 oracle (final state only)."""
    shape = g0.phi.shape

    def rhs(t, y):
        derivs = galerkin_rhs(y.reshape((4, *shape)), params, basis)
        return np.concatenate([d.ravel() for d in derivs])

    y0 = np.concatenate([a.ravel() for a in (g0.phi, g0.phi_a, g0.n, g0.c)])
    sol = solve_ivp(rhs, (g0.t, t_end), y0, rtol=rtol, atol=atol)
    assert sol.success
    return GalerkinState(t_end, *sol.y[:, -1].reshape((4, *shape)))


def nan_galerkin_rhs(finite_calls):
    """``galerkin_rhs`` that returns NaN from evaluation finite_calls + 1
    on: a Galerkin integration that blows up."""
    calls = 0

    def rhs(coeffs, params, basis):
        nonlocal calls
        calls += 1
        derivs = galerkin_rhs(coeffs, params, basis)
        if calls <= finite_calls:
            return derivs
        return tuple(np.full_like(d, np.nan) for d in derivs)

    return rhs


def galerkin_energy(basis, gstate, params):
    """Free energy of a Galerkin state, assembled on the quadrature grid
    with spectral gradients."""
    *_, w = basis.quad
    phi_q = reconstruct(basis, gstate.phi)
    phia_q = reconstruct(basis, gstate.phi_a)
    n_q = reconstruct(basis, gstate.n)
    c_q = reconstruct(basis, gstate.c)
    entropy = params.truncation.entropy(phia_q)
    e = float(np.sum(params.f_density(phi_q) + entropy)) * w
    for coeffs in (gstate.phi, gstate.n, gstate.c):
        gx, gy = gradient(basis, coeffs)
        e += 0.5 * float(np.sum(gx * gx + gy * gy)) * w
    e -= params.chi_phi * float(np.sum(n_q * phi_q)) * w
    e -= params.chi_a * float(np.sum(phia_q * c_q)) * w
    return e


@elementwise
def entropy_prime(pair, r):
    """E' of the entropy density of a ``TruncationPair``."""
    L, M = pair.L, pair.M
    rc = np.clip(r, L, M)
    core = np.log(rc)
    low = r / L + math.log(L) - 1.0
    high = r / M + math.log(M) - 1.0
    return np.where(r <= L, low, np.where(r >= M, high, core))


@elementwise
def entropy_second(pair, r):
    """E'' of the entropy density of a ``TruncationPair``."""
    return 1.0 / np.clip(r, pair.L, pair.M)


def inequality_report(pair, r, cbar=None):
    """Evaluate the pointwise entropy bounds of a ``TruncationPair`` at r.

    Returns a dict mapping check names to (applicable, satisfied, slack).
    ``cbar`` enables the calibrated positive-part bound, whose validity
    range for L is (0, exp(-(1+cbar)/cbar)).
    """
    L = pair.L
    if not 0.0 < L < 1.0 / math.e:
        raise RangeError("entropy bounds need L in (0, 1/e)")
    r = float(r)
    e_val = pair.entropy(r)
    e_prime = entropy_prime(pair, r)
    rp2 = max(r, 0.0) ** 2

    report = {}

    # quadratic lower bound below zero
    if r <= 0.0:
        slack = e_val - r * r / (2.0 * L)
        report["lower_quadratic_bound"] = (True, slack >= 0.0, slack)
    else:
        report["lower_quadratic_bound"] = (False, True, math.nan)

    # first-moment bound r E' <= 2 E + 1
    slack = 2.0 * e_val + 1.0 - r * e_prime
    report["moment_bound"] = (True, slack >= 0.0, slack)

    slack = e_val + math.e - 1.0 - abs(r)
    report["absolute_value_bound"] = (True, slack >= 0.0, slack)

    slack = rp2 * e_prime + 0.5 / math.e
    report["positive_part_sign"] = (True, slack >= 0.0, slack)

    if cbar is not None:
        if cbar <= 0.0:
            raise RangeError("cbar must be positive")
        l_max = math.exp(-(1.0 + cbar) / cbar)
        if not L < l_max:
            raise RangeError(f"calibrated bound needs L < {l_max:.6g}, got {L}")
        const = max(
            math.exp(-2.0 * (1.0 + cbar) / cbar)
            * (cbar + 4.0 / (27.0 * cbar * cbar)),
            math.exp(2.0 / cbar),
        )
        slack = cbar * (rp2 * e_prime + 0.5 / math.e) + const - rp2
        report["positive_part_calibrated"] = (True, slack >= 0.0, slack)

    return report


def uniform_state(grid: Grid2D, phi, phi_a, n, c) -> State:
    return State(
        0.0,
        grid,
        np.full(grid.shape, float(phi)),
        np.zeros(grid.shape),
        np.full(grid.shape, float(phi_a)),
        np.full(grid.shape, float(n)),
        np.full(grid.shape, float(c)),
    )


def band_limited_ic(length):
    """Low-mode initial data staying on the smooth branches of every source."""
    L = length
    return {
        "phi": lambda x, y: 0.45
        + 0.10 * np.cos(np.pi * x / L) * np.cos(np.pi * y / L)
        + 0.05 * np.cos(2 * np.pi * x / L),
        "phi_a": lambda x, y: 0.40 + 0.10 * np.cos(np.pi * y / L),
        "n": lambda x, y: 0.60 + 0.15 * np.cos(np.pi * x / L),
        "c": lambda x, y: 0.40
        + 0.10 * np.cos(np.pi * x / L) * np.cos(np.pi * y / L),
    }


def band_limited_state(grid: Grid2D) -> State:
    ic = band_limited_ic(grid.lx)
    x, y = grid.centers()
    return State(
        0.0,
        grid,
        ic["phi"](x, y),
        np.zeros(grid.shape),
        ic["phi_a"](x, y),
        ic["n"](x, y),
        ic["c"](x, y),
    )


def spheroid_state(grid: Grid2D, phi_lo=0.05, phi_hi=0.95, phi_a0=0.05,
                   n0=1.0, c0=0.0, radius_frac=0.25, width=1.0) -> State:
    x, y = grid.centers()
    r = np.sqrt((x - grid.lx / 2) ** 2 + (y - grid.ly / 2) ** 2)
    prof = 0.5 * (1.0 + np.tanh((radius_frac * min(grid.lx, grid.ly) - r) / width))
    return State(
        0.0,
        grid,
        phi_lo + (phi_hi - phi_lo) * prof,
        np.zeros(grid.shape),
        np.full(grid.shape, float(phi_a0)),
        np.full(grid.shape, float(n0)),
        np.full(grid.shape, float(c0)),
    )


def run_states(initial, params, cfg, every=1):
    """Every ``every``-th state of a run plus the first and last, copied."""
    return [state.copy() for k, (state, _) in enumerate(run(initial, params, cfg))
            if k % every == 0 or k == cfg.steps]


def run_records(initial, params, cfg, every=1):
    """(records, reports, final state) of a run: a diagnostics record of
    every ``every``-th state plus the first and last, observed as
    ``mchks run`` observes them, and the report of every step."""
    tracker = DiagnosticsTracker(params, initial)
    records, reports, residual_sum = [], [], 0.0
    for k, (state, report) in enumerate(run(initial, params, cfg)):
        if report is not None:
            reports.append(report)
            residual_sum += report.newton_residual
        if k % every == 0 or k == cfg.steps:
            records.append(tracker.observe(state, cfg.dt, residual_sum))
    return records, reports, state


def envelope_bruteforce(pot, eps, r, n=4001, stages=3):
    """Independent oracle for the Moreau envelope: staged grid minimization
    of (t - r)^2 / (2 eps) + convex_value(t) over the proper domain
    (endpoints with finite values included, repeatedly refined around the
    running argmin so boundary-hugging minimizers are resolved)."""
    if pot.singular:
        lo, hi = pot.slope_domain
    else:
        lo, hi = min(0.0, r) - 1.0, max(0.0, r) + 1.0

    def q(t):
        return (t - r) ** 2 / (2.0 * eps) + pot.convex_value(t)

    best = np.inf
    for _ in range(stages):
        grid = np.linspace(lo, hi, n)
        vals = q(grid)
        i = int(np.argmin(vals))
        best = min(best, float(vals[i]))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, n - 1)]
    return best
