"""Runtime monitors for every quantity the analysis controls.

The free energy assembled here uses the same face-difference gradient form
as the solver's implicit substeps, so on source-free stabilized runs the
recorded energy is non-increasing to solver tolerance, not merely to O(dt).
Confinement flags, the mass corridor, the entropy integral, separation
margins, weak-formulation residuals and the twin-run continuous-dependence
metric all live here; nothing in this module mutates a state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import GridMismatch, RangeError
from .fields import (
    cosine_mode,
    div_mob_grad_array,
    dual_norm,
    grad_sq_integral_array,
)
from .sources import ModelParams, proliferation, reaction_rates

# Confinement tolerances: c and n are exact M-matrix solves, phi_a only
# satisfies an eps-scaled bound on its negative part.
MINMAX_TOL = 1e-10
PHIA_NEG_TOL_PER_EPS = 1e-5


def entropy_integral(state, params: ModelParams) -> float:
    vals = params.truncation.entropy(state.phi_a)
    return float(np.sum(vals)) * state.grid.cell_area


def energy(state, params: ModelParams, *, f_density=None, entropy=None) -> float:
    """Free energy with the regularized potential and entropy accounting.

    E = int F_eps(phi) + E_eps(phi_a) + |grad phi|^2/2 + |grad n|^2/2
        - chi_phi n phi + |grad c|^2/2 - chi_a phi_a c

    ``f_density`` is params.f_density(phi) and ``entropy`` is
    entropy_integral(state, params) when the caller already has them.
    """
    g = state.grid
    if f_density is None:
        f_density = params.f_density(state.phi)
    if entropy is None:
        entropy = entropy_integral(state, params)
    e = float(np.sum(f_density)) * g.cell_area
    e += entropy
    e += 0.5 * grad_sq_integral_array(state.phi, g.dx, g.dy)
    e += 0.5 * grad_sq_integral_array(state.n, g.dx, g.dy)
    e += 0.5 * grad_sq_integral_array(state.c, g.dx, g.dy)
    e -= params.chi_phi * (float(np.sum(state.n * state.phi)) * g.cell_area)
    e -= params.chi_a * (float(np.sum(state.phi_a * state.c)) * g.cell_area)
    return e


def mass_corridor(y0: float, H: float, m: float, t: float, dt: float = 0.0):
    """Two-sided decay envelope for the tumor mass mean.

    With dt = 0 it is the envelope of the continuous equation, decay
    exp(-m t).  With dt > 0 it is the corridor of the backward-Euler mean
    recursion y_k = (y_{k-1} + dt mean(P)) / (1 + m dt), |mean(P)| <= H,
    after k = t / dt steps: decay r^k with r = 1 / (1 + m dt), which lies
    above exp(-m t).
    """
    if m <= 0:
        raise RangeError("corridor bounds need a positive apoptosis rate")
    if dt:
        decay = (1.0 + m * dt) ** -round(t / dt)
    else:
        decay = math.exp(-m * t)
    band = (1.0 - decay) * H / m
    return (y0 * decay - band, y0 * decay + band)


# --------------------------------------------------------------- records


@dataclass
class DiagnosticsRecord:
    """One record; the fields before ``h_sup`` are the ``diagnostics.csv``
    columns, in order.  A flag is True where its confinement bound or the
    mass corridor is broken."""

    t: float
    energy: float
    phi_mean: float
    phi_a_mean: float
    n_mean: float
    c_mean: float
    phi_min: float
    phi_max: float
    mu_min: float
    mu_max: float
    phi_a_min: float
    phi_a_max: float
    n_min: float
    n_max: float
    c_min: float
    c_max: float
    corridor_lo: float
    corridor_hi: float
    entropy: float
    flag_c_min: bool
    flag_c_max: bool
    flag_n_min: bool
    flag_n_max: bool
    flag_phi_a_neg: bool
    flag_corridor: bool
    h_sup: float

    @property
    def any_violation(self):
        return any(getattr(self, f.name) for f in fields(self)
                   if f.name.startswith("flag_"))


class DiagnosticsTracker:
    """Accumulates run-level quantities: the corridor sup bound H and the
    running phi extremes that scale the corridor's round-off slack."""

    def __init__(self, params: ModelParams, initial_state):
        self.params = params
        self.t0 = initial_state.t
        self.y0 = float(np.mean(initial_state.phi))
        self.h_sup = 0.0
        self.delta_star = math.inf
        self.delta_upper = -math.inf

    def observe(self, state, dt: float, residual_sum: float = 0.0) -> DiagnosticsRecord:
        """The record of ``state``, reached from the initial state in steps
        of dt; ``residual_sum`` is the sum of ``StepReport.newton_residual``
        over those steps.

        The corridor flag compares the phi mean with the scheme's own
        corridor (``mass_corridor`` with dt), widened by
        - dt * H, because the step samples P at (phi_old, n_new) and H only
          at recorded states;
        - dt * residual_sum, how far the Newton stopping test lets the mean
          move off the recursion (|mean(res)| <= rms(res) each step);
        - one unit of round-off of the largest |phi| per step, the rounding
          of the stored phi.
        """
        params = self.params
        prol = proliferation(params, state.phi, state.n)
        self.h_sup = max(self.h_sup, float(np.max(np.abs(prol))))

        ext = {}
        for name in ("phi", "mu", "phi_a", "n", "c"):
            vals = getattr(state, name)
            ext[f"{name}_min"] = float(np.min(vals))
            ext[f"{name}_max"] = float(np.max(vals))
        self.delta_star = min(self.delta_star, ext["phi_min"])
        self.delta_upper = max(self.delta_upper, ext["phi_max"])

        y = float(np.mean(state.phi))
        if params.m > 0:
            lo, hi = mass_corridor(self.y0, self.h_sup, params.m,
                                   state.t - self.t0, dt)
            steps = round((state.t - self.t0) / dt)
            phi_abs = max(abs(self.delta_star), abs(self.delta_upper))
            slack = (dt * (self.h_sup + residual_sum)
                     + steps * np.finfo(float).eps * phi_abs)
            off_corridor = bool(y < lo - slack or y > hi + slack)
        else:
            lo = hi = math.nan
            off_corridor = False

        # the step's last evaluation at this phi, when the state carries it
        f_density = params.f_density(state.phi, state.convex)
        entropy = entropy_integral(state, params)

        return DiagnosticsRecord(
            t=state.t,
            energy=energy(state, params, f_density=f_density, entropy=entropy),
            phi_mean=y,
            phi_a_mean=float(np.mean(state.phi_a)),
            n_mean=float(np.mean(state.n)),
            c_mean=float(np.mean(state.c)),
            **ext,
            corridor_lo=lo,
            corridor_hi=hi,
            entropy=entropy,
            flag_c_min=ext["c_min"] < -MINMAX_TOL,
            flag_c_max=ext["c_max"] > 1.0 + MINMAX_TOL,
            # smooth-mode n is exempt from the n bounds
            flag_n_min=params.singular and ext["n_min"] < -MINMAX_TOL,
            flag_n_max=params.singular and ext["n_max"] > 1.0 + MINMAX_TOL,
            flag_phi_a_neg=ext["phi_a_min"] < -PHIA_NEG_TOL_PER_EPS * params.eps,
            flag_corridor=off_corridor,
            h_sup=self.h_sup,
        )


def separation_margins(records, t0: float, potential):
    """Post-transient separation monitor.

    Restarts the running min/max of phi at the first record with t >= t0 and
    returns (times, margins), the margin being the distance of that range
    from the ends of ``potential.slope_domain`` that repel phi
    (``Potential.repelling_ends``); it is inf when no end repels.
    """
    post = [r for r in records if r.t >= t0]
    if not post:
        raise ValueError("no records after the transient")
    lower, upper = potential.slope_domain
    repelling = potential.repelling_ends
    lo, hi = math.inf, -math.inf
    times, margins = [], []
    for r in post:
        lo = min(lo, r.phi_min)
        hi = max(hi, r.phi_max)
        times.append(r.t)
        margins.append(min(lo - lower if lower in repelling else math.inf,
                           upper - hi if upper in repelling else math.inf))
    return np.array(times), np.array(margins)


# --------------------------------------------------------- weak residuals


def default_test_battery(grid):
    """The constant plus the six lowest cosine modes."""
    modes = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]
    return [cosine_mode(grid, i, j) for i, j in modes]


def weak_residual(states, params: ModelParams, dt: float):
    """Weak-formulation residuals over a window of consecutive states.

    For each pair of consecutive states each of the five equations (phi
    evolution, chemical potential relation, endothelial evolution, nutrient,
    signal) is assembled once in strong form, with a backward difference
    quotient in time and all nonlinearities at the new state, and paired
    with the whole test battery in one product.  The phi_a equation carries
    the truncated flux chi_a T_eps(phi_a) b_n grad c of the step and the
    spectral oracle; the reaction terms come from ``reaction_rates``.
    Divergences use the solver's conservative face form, so the reported
    defect measures the time-stepping and lagging error, O(dt) on smooth
    runs.

    Returns a dict mapping equation names to (battery-size,) arrays of
    residuals for the last pair, plus "max" with the overall maximum over
    all pairs.
    """
    if len(states) < 2:
        raise ValueError("need at least two consecutive states")
    grid = states[0].grid
    battery = np.stack([v.ravel() for v in default_test_battery(grid)])
    tests = battery * grid.cell_area

    def div(coef, u):
        return div_mob_grad_array(coef, u, grid.dx, grid.dy)

    overall = 0.0
    out = {}
    for s0, s1 in zip(states[:-1], states[1:]):
        phi1, phia1, n1, c1, mu1 = s1.phi, s1.phi_a, s1.n, s1.c, s1.mu
        mob_m = params.mobility_m(phi1, phia1, n1)
        mob_n = params.mobility_n(phia1, c1)
        ones = np.ones_like(phi1)
        chem_coef = params.truncation.truncate(phia1) * mob_n
        s_phi, s_a, r_n, r_c = reaction_rates(params, phi1, phia1, n1, c1)
        strong = {
            "phi": (phi1 - s0.phi) / dt
            - div(mob_m, mu1 - params.chi_phi * n1)
            - s_phi,
            "mu": mu1 - params.f_prime(phi1) + div(ones, phi1),
            "phi_a": (phia1 - s0.phi_a) / dt
            - div(mob_n, phia1)
            + params.chi_a * div(chem_coef, c1)
            - s_a,
            "n": (n1 - s0.n) / dt - div(ones, n1) - r_n,
            "c": (c1 - s0.c) / dt - div(ones, c1) - r_c,
        }
        paired = tests @ np.stack([f.ravel() for f in strong.values()]).T
        out = dict(zip(strong, paired.T))
        overall = max(overall, float(np.max(np.abs(paired))))
    out["max"] = overall
    return out


# ------------------------------------------------------------- twin runs


@dataclass
class TwinDistance:
    components_lhs: dict
    components_rhs: dict
    lhs_total: float
    rhs_total: float
    ratio: float


def twin_run_distance(states1, states2) -> TwinDistance:
    """Continuous-dependence metric between two sampled trajectories.

    Assembles the dual-norm / L2 / V-norm groups of the stability estimate
    for the differences of the two runs and the corresponding initial-data
    norms, returning the empirical stability ratio lhs/rhs.
    """
    if len(states1) != len(states2):
        raise GridMismatch("trajectories have different lengths")
    if not states1 or states1[0].grid != states2[0].grid:
        raise GridMismatch("trajectories live on different grids")
    times = np.array([s.t for s in states1])
    if not np.allclose(times, [s.t for s in states2], atol=1e-12):
        raise GridMismatch("trajectories sampled at different times")

    grid = states1[0].grid
    diffs = {name: [getattr(s1, name) - getattr(s2, name)
                    for s1, s2 in zip(states1, states2)]
             for name in ("phi", "phi_a", "n", "c")}
    dual, mean_abs, l2_sq, grad_sq = {}, {}, {}, {}
    for name, ds in diffs.items():
        l2_sq[name] = np.array([np.sum(d * d) * grid.cell_area for d in ds])
        if name in ("phi", "phi_a"):
            dual[name] = np.array([dual_norm(grid, d) for d in ds])
            mean_abs[name] = np.array([abs(float(np.mean(d))) for d in ds])
        else:
            grad_sq[name] = np.array(
                [grad_sq_integral_array(d, grid.dx, grid.dy) for d in ds])
    l2 = {name: np.sqrt(sq) for name, sq in l2_sq.items()}

    def sup(series):
        return float(np.max(series))

    def time_l2(series_sq):
        return math.sqrt(float(np.trapezoid(series_sq, times)))

    lhs = {
        "phi_dual_sup": sup(dual["phi"]),
        "phi_mean_sup": sup(mean_abs["phi"]),
        "phi_a_dual_sup_l2": max(sup(dual["phi_a"]), time_l2(l2["phi_a"] ** 2)),
        "phi_a_mean_sup": sup(mean_abs["phi_a"]),
        "n_linf_l2v": max(sup(l2["n"]), time_l2(l2_sq["n"] + grad_sq["n"])),
        "c_linf_l2v": max(sup(l2["c"]), time_l2(l2_sq["c"] + grad_sq["c"])),
    }

    # the initial-data norms are the first samples of the series above
    rhs = {
        "phi0_dual": float(dual["phi"][0]),
        "phi0_mean": float(mean_abs["phi"][0]),
        "phi_a0_dual": float(dual["phi_a"][0]),
        "phi_a0_mean": float(mean_abs["phi_a"][0]),
        "n0_l2": float(l2["n"][0]),
        "c0_l2": float(l2["c"][0]),
    }
    lhs_total = float(sum(lhs.values()))
    rhs_total = float(sum(rhs.values()))
    ratio = lhs_total / rhs_total if rhs_total > 0 else math.nan
    return TwinDistance(lhs, rhs, lhs_total, rhs_total, ratio)
