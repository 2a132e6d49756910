"""Check that the correctness gate passes good output and fires on bad output.

    python3 perfbench/check_gate.py           # check, exit 1 on a miss
    python3 perfbench/check_gate.py --write   # re-record reference.json

Runs one invocation of every workload at the default seed and checks:
- it passes the gate against the stored reference;
- the same run with `linear_solver = direct` also passes, so the reference
  tolerance admits a legitimate change of solver;
- every reference column perturbed by twice its tolerance makes the gate
  fire, and once end to end through a whole invocation;
- a non-zero exit status, a reported violation flag and a cross-error above
  the threshold each make the gate fire.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import gate
from run import DEFAULT_SEED, HERE, WORKLOADS, invoke, load_reference

TIMEOUT_S = 170.0


def _with_solver(workload, **solver):
    config = dict(workload.config, solver=dict(workload.config["solver"], **solver))
    return dataclasses.replace(workload, config=config)


def _perturbed(workload, reference, col, factor):
    tol = gate.reference_tolerance(workload.config["solver"], workload.steps, col,
                                   workload.config["params"]["eps"])
    return dict(reference, **{col: reference[col] + factor * tol
                              * max(1.0, abs(reference[col]))})


def write_reference():
    stored = {}
    for name, workload in WORKLOADS.items():
        if workload.subcommand != "run":
            continue
        inv = invoke(workload, DEFAULT_SEED, "plain", TIMEOUT_S)
        if inv.failures:
            raise SystemExit(f"{name}: {inv.failures}")
        stored[name] = {c: inv.final_row[c] for c in gate.REFERENCE_COLUMNS}
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true")
    if parser.parse_args(argv).write:
        write_reference()
        return 0

    misses = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'MISS'} {what}")
        if not ok:
            misses.append(what)

    for name, workload in WORKLOADS.items():
        reference = load_reference(workload, DEFAULT_SEED)
        inv = invoke(workload, DEFAULT_SEED, "plain", TIMEOUT_S, reference)
        expect(not inv.failures, f"{name}: passes the gate {inv.failures}")
        if reference is None:
            expect(gate.check_compare(inv.stdout.replace(
                "cross-error max: ", "cross-error max: 6e-03 was ")) != [],
                f"{name}: fires on a cross-error above the threshold")
            continue
        direct = invoke(_with_solver(workload, linear_solver="direct"),
                        DEFAULT_SEED, "plain", TIMEOUT_S, reference)
        expect(not direct.failures,
               f"{name}: linear_solver=direct passes {direct.failures}")
        for col in gate.REFERENCE_COLUMNS:
            args = (workload.config["solver"], workload.steps,
                    workload.config["params"]["eps"])
            bad = _perturbed(workload, reference, col, 2.0)
            near = _perturbed(workload, reference, col, 0.5)
            expect(gate.check_reference(inv.final_row, bad, *args) != []
                   and gate.check_reference(inv.final_row, near, *args) == [],
                   f"{name}: fires on {col} perturbed by 2x, not 0.5x, "
                   "its tolerance")
        flagged = inv.stdout.replace("violation flags: 0", "violation flags: 1")
        expect(any("violation" in f for f in
                   gate.check_run("/nonexistent", flagged, workload, None)),
               f"{name}: fires on a reported violation flag")
    expect(gate.check_exit(3) != [], "fires on exit status 3")
    uniform = WORKLOADS["uniform-fh-4x4"]
    bad = _perturbed(uniform, load_reference(uniform, DEFAULT_SEED), "energy", 2.0)
    inv = invoke(uniform, DEFAULT_SEED, "plain", TIMEOUT_S, bad)
    expect(any(f.startswith("energy") for f in inv.failures),
           f"uniform-fh-4x4: a whole invocation fails on a perturbed reference "
           f"{inv.failures}")
    print(f"{len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
