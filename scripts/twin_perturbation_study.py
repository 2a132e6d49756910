#!/usr/bin/env python3
"""Continuous-dependence study: twin runs across perturbation amplitudes.

For each amplitude the initial data are perturbed by a fixed band-limited
pattern and the stability-estimate norm groups of the trajectory difference
are reported; in the linear-response regime the total scales linearly with
the amplitude and the empirical ratio is amplitude-independent.
"""

import argparse
import sys

from mchks.cli import build_initial_state, parse_config, twin_perturbation
from mchks.diagnostics import twin_run_distance
from mchks.solver import run

BASE = """
[grid]
nx = 32
ny = 32
[solver]
dt = 2e-3
t_end = 0.25
linear_tol = 1e-12
[initial]
preset = spheroid
n0 = 0.95
c0 = 0.3
"""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--amplitudes", type=float, nargs="+",
                    default=[1e-2, 5e-3, 2.5e-3])
    ap.add_argument("--set", action="append", default=[],
                    metavar="SECTION.KEY=VALUE")
    args = ap.parse_args()

    config = parse_config(BASE, overrides=args.set)
    base0 = build_initial_state(config)
    every = max(1, int(round(config.solver.t_end / config.solver.dt)) // 25)

    def states(state0):
        out = []
        run(state0, config.params, config.solver, record_every=10**9,
            on_state=lambda s: out.append(s.copy()), state_every=every)
        return out

    base = states(base0)
    print(f"{'amplitude':>10} {'lhs total':>12} {'rhs total':>12} "
          f"{'ratio':>8} {'lhs/amp':>10}")
    for amp in args.amplitudes:
        dist = twin_run_distance(
            base, states(twin_perturbation(base0, amp)), config.params
        )
        print(f"{amp:10.2e} {dist.lhs_total:12.5e} {dist.rhs_total:12.5e} "
              f"{dist.ratio:8.4f} {dist.lhs_total / amp:10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
