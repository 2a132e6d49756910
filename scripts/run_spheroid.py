#!/usr/bin/env python3
"""Run the default singular spheroid scenario and print milestone records.

Writes the manifest, the diagnostics CSV and the field snapshots under --out
(the same files as `mchks run`; snapshots every `output.snapshot_every`
steps, or every tenth of the horizon when the config leaves that at 0), then
prints a compact table (every tenth of the horizon) with confinement
extrema, the mass-corridor position and the separation margins.
"""

import argparse
import sys

from mchks.cli import parse_config, write_run
from mchks.diagnostics import separation_margins


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--config", help="config file (defaults used when absent)")
    ap.add_argument("--out", default="out_spheroid")
    ap.add_argument("--set", action="append", default=[],
                    metavar="SECTION.KEY=VALUE")
    args = ap.parse_args()

    text = ""
    if args.config:
        with open(args.config) as fh:
            text = fh.read()
    overrides = [f"output.dir={args.out}", *args.set]
    config = parse_config(text, overrides=overrides)
    if not config.output["snapshot_every"]:
        steps = round(config.solver.t_end / config.solver.dt)
        overrides.append(f"output.snapshot_every={max(1, steps // 10)}")
        config = parse_config(text, overrides=overrides)

    result, csv_path = write_run(config)

    stride = max(1, (len(result.records) - 1) // 10)
    print(f"{'t':>6} {'energy':>12} {'mean phi':>9} {'phi range':>19} "
          f"{'n range':>19} {'flags':>5}")
    for rec in result.records[::stride]:
        pl, ph = rec.extrema["phi"]
        nl, nh = rec.extrema["n"]
        print(f"{rec.t:6.2f} {rec.energy:12.5f} {rec.phi_mean:9.5f} "
              f"[{pl:8.5f},{ph:8.5f}] [{nl:8.5f},{nh:8.5f}] "
              f"{sum(rec.flags.values()):5d}")

    times, margins = separation_margins(result.records,
                                        t0=0.1 * config.solver.t_end)
    print(f"\nseparation margin: {margins[0]:.4f} -> {margins[-1]:.4f}")
    print(f"diagnostics written to {csv_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
