#!/usr/bin/env python3
"""Three-level cross-validation of the FD solver against the spectral oracle.

Each level runs `mchks.cli.cross_validate`, the sequence behind `mchks
compare`: both solvers start from the same band-limited fields.  The FD grid
and time step are refined while the mode count doubles, and the reported L2
errors must shrink monotonically.
"""

import argparse
import sys
import time

import numpy as np

from mchks.cli import cross_validate
from mchks.fields import Grid2D
from mchks.potentials import RegularQuartic
from mchks.solver import SolverConfig, State
from mchks.sources import ModelParams


def band_limited_state(grid):
    """Low-mode fields on the smooth branches of every source."""
    x, y = grid.centers()
    cx, cy = np.cos(np.pi * x / grid.lx), np.cos(np.pi * y / grid.ly)
    c2x = np.cos(2 * np.pi * x / grid.lx)
    return State(
        0.0,
        grid,
        0.45 + 0.10 * cx * cy + 0.05 * c2x,
        np.zeros(grid.shape),
        0.40 + 0.10 * cy,
        0.60 + 0.15 * cx,
        0.40 + 0.10 * cx * cy,
    )


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--t-end", type=float, default=0.1)
    ap.add_argument("--levels", type=int, default=3)
    args = ap.parse_args()

    L = 2.0 * np.pi
    params = ModelParams(potential=RegularQuartic(1.0), m=0.5)

    print(f"{'nx':>4} {'k':>3} {'dt':>9} {'phi':>10} {'phi_a':>10} "
          f"{'n':>10} {'c':>10} {'seconds':>8}")
    prev = np.inf
    monotone = True
    for level in range(args.levels):
        nx = 16 * 2**level
        k = 4 * 2**level
        dt = 2e-3 / 2**level
        tic = time.perf_counter()
        cfg = SolverConfig(dt=dt, t_end=args.t_end, linear_tol=1e-12)
        errs = list(cross_validate(band_limited_state(Grid2D(nx, nx, L, L)),
                                   params, cfg, k).values())
        print(f"{nx:4d} {k:3d} {dt:9.1e} "
              + " ".join(f"{e:10.3e}" for e in errs)
              + f" {time.perf_counter() - tic:8.1f}")
        worst = max(errs)
        monotone &= worst < prev
        prev = worst
    print(f"monotone decrease: {monotone}")
    return 0 if monotone else 1


if __name__ == "__main__":
    sys.exit(main())
