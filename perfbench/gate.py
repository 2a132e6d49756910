"""Correctness gate applied to every benchmark invocation.

An invocation fails if
- its exit status is not 0;
- `run` reports a violation flag, or a bound the flags stand for is broken
  in `diagnostics.csv` (checked again here from the columns);
- `run` wrote the wrong number of rows or snapshots, or its last `phi`
  snapshot disagrees with the last CSV row;
- the final `diagnostics.csv` row misses the stored reference (see
  reference.json, recorded for the default seed) by more than
  `reference_tolerance`;
- the `compare` cross-error is above its threshold.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import math
import os
import re
import struct
from array import array

# columns compared against the reference: energy, means and extrema
REFERENCE_COLUMNS = [
    "energy", "phi_mean", "phi_a_mean", "n_mean", "c_mean",
    "phi_min", "phi_max", "mu_min", "mu_max", "phi_a_min", "phi_a_max",
    "n_min", "n_max", "c_min", "c_max", "entropy",
]
FLAG_COLUMNS = ["flag_c_min", "flag_c_max", "flag_n_min", "flag_n_max",
                "flag_phi_a_neg", "flag_corridor"]
# the program's own confinement tolerances (mchks.diagnostics)
MINMAX_TOL = 1e-10
PHIA_NEG_TOL_PER_EPS = 1e-5
COMPARE_THRESHOLD = 5e-3
# how far round-off may carry a per-step solver error: a change of linear
# solver or preconditioner moves the final row by far less than this
_STEP_ERROR_GROWTH = 100.0

_CROSS_RE = re.compile(r"^cross-error (\w+): (\S+)", re.M)


def reference_tolerance(solver, steps, column, eps):
    """Allowed |got - ref| / max(1, |ref|) for one reference column.

    Each step may carry an error of the Newton and linear tolerances; it
    adds up over the steps.  `mu` is the Yosida slope of `phi`, whose
    Lipschitz constant is 1/eps, so its columns get that factor.
    """
    per_step = max(solver["newton_tol"], solver["linear_tol"])
    tol = _STEP_ERROR_GROWTH * steps * per_step
    return tol / eps if column.startswith("mu_") else tol


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_exit(rc):
    return [] if rc == 0 else [f"exit status {rc}"]


def check_run(out_dir, stdout, workload, reference):
    """Gate for `mchks run`; reference is the stored final row or None."""
    fails = []
    if "records with violation flags: 0" not in stdout:
        fails.append("run reports records with violation flags")
    path = os.path.join(out_dir, "diagnostics.csv")
    if not os.path.exists(path):
        return fails + ["diagnostics.csv missing"]
    rows = read_csv(path)
    cfg = workload.config
    dt, steps = cfg["solver"]["dt"], workload.steps
    every = cfg["output"]["diagnostics_every"]
    expected_rows = 1 + steps // every + (1 if steps % every else 0)
    if len(rows) != expected_rows:
        fails.append(f"{len(rows)} CSV rows, expected {expected_rows}")
    if not rows:
        return fails
    eps = cfg["params"]["eps"]
    for row in rows:
        bad = [k for k, v in row.items() if not math.isfinite(v)
               and not k.startswith("corridor")]
        bad += [k for k in FLAG_COLUMNS if row[k] != 0.0]
        if row["c_min"] < -MINMAX_TOL or row["c_max"] > 1.0 + MINMAX_TOL:
            bad.append("c outside [0, 1]")
        if row["n_min"] < -MINMAX_TOL or row["n_max"] > 1.0 + MINMAX_TOL:
            bad.append("n outside [0, 1]")
        if row["phi_a_min"] < -PHIA_NEG_TOL_PER_EPS * eps:
            bad.append("phi_a below its eps bound")
        if bad:
            fails.append(f"t={row['t']:.6g}: {', '.join(bad)}")
            break
    last = rows[-1]
    if abs(last["t"] - steps * dt) > 1e-9 * steps * dt:
        fails.append(f"final t {last['t']!r}, expected {steps * dt!r}")
    snap_every = cfg["output"].get("snapshot_every", 0)
    if snap_every:
        fails += _check_snapshots(out_dir, steps, snap_every, last)
    if reference is not None:
        fails += check_reference(last, reference, cfg["solver"], steps, eps)
    return fails


def check_reference(last, reference, solver, steps, eps):
    fails = []
    for col in REFERENCE_COLUMNS:
        ref = reference[col]
        tol = reference_tolerance(solver, steps, col, eps)
        err = abs(last[col] - ref) / max(1.0, abs(ref))
        if not err <= tol:
            fails.append(f"{col} = {last[col]!r}, reference {ref!r} "
                         f"(relative error {err:.3e} > {tol:.3e})")
    return fails


def _check_snapshots(out_dir, steps, every, last):
    names = sorted(f for f in os.listdir(out_dir) if f.startswith("snap_"))
    kept = [k for k in range(0, steps + 1) if k % every == 0 or k == steps]
    expected = [f"snap_{k:08d}_{f}.bin" for k in kept
                for f in ("c", "mu", "n", "phi", "phi_a")]
    if names != sorted(expected):
        return [f"snapshots {names}, expected {sorted(expected)}"]
    with open(os.path.join(out_dir, f"snap_{steps:08d}_phi.bin"), "rb") as fh:
        blob = fh.read()
    if blob[:6] != b"MCHKS1":
        return ["final phi snapshot has a bad magic"]
    nx, ny, _lx, _ly = struct.unpack_from("<qqdd", blob, 6)
    (name_len,) = struct.unpack_from("<I", blob, 38)
    (t,) = struct.unpack_from("<d", blob, 42 + name_len)
    values = array("d")
    values.frombytes(blob[50 + name_len:])
    fails = []
    if len(values) != nx * ny or t != last["t"]:
        fails.append(f"final phi snapshot holds {len(values)} values at t={t!r}")
    elif (min(values) != last["phi_min"] or max(values) != last["phi_max"]
          or abs(math.fsum(values) / len(values) - last["phi_mean"]) > 1e-12):
        fails.append("final phi snapshot disagrees with the last CSV row")
    return fails


def check_compare(stdout):
    errors = dict(_CROSS_RE.findall(stdout))
    fields = ("phi", "phi_a", "n", "c", "max")
    if any(f not in errors for f in fields):
        return ["compare printed no cross-error for every field"]
    worst = float(errors["max"])
    if not worst <= COMPARE_THRESHOLD:
        return [f"cross-error {worst:.3e} above threshold {COMPARE_THRESHOLD:.1e}"]
    if worst != max(float(errors[f]) for f in fields[:-1]):
        return ["cross-error max is not the largest field error"]
    return []
