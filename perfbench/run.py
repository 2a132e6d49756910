"""mchks benchmark: closed-loop `mchks` invocations, each in a fresh interpreter.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the one holding `src/mchks`).  Each run
probes the environment once (which also warms the import caches), then
starts one invocation after the other for S seconds.  Every
invocation writes into a fresh temporary directory under `.bench_tmp/`,
passes the correctness gate (gate.py) or counts as failed, and is removed.

--trace 0 prints the end-to-end metrics (minimum or median over
invocations, see end_to_end).
--trace 1 alternates untraced and traced invocations and prints the
per-layer metrics from the spans of the traced ones (layers.py).
--workload all runs every workload in turn.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
from layers import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"
DEADLINE_S = 170.0  # a run must end within 180 s
DEFAULT_SEED = 1234  # initial.seed default of mchks; reference.json uses it


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: dict  # section -> key -> value, written as the config file
    seeded: bool  # initial.seed follows --seed
    extra: tuple = ()

    @property
    def steps(self):
        s = self.config["solver"]
        return round(s["t_end"] / s["dt"])


# Defaults of mchks that the gate reads are spelled out here.
_SOLVER = {"newton_tol": 1e-10, "linear_tol": 1e-10, "dt": 1e-3}
_PARAMS = {"eps": 1e-3}

WORKLOADS = {w.name: w for w in [
    # The user's scenario with every check and output on, at a size where
    # observe/dual_norm cost as much as the step itself.
    Workload("spheroid-fh-128", "run", {
        "grid": {"nx": 128, "ny": 128},
        "params": dict(_PARAMS),
        "solver": dict(_SOLVER, t_end=0.01),
        "initial": {"preset": "random-perturbation", "amplitude": 0.02},
        "output": {"diagnostics_every": 1, "snapshot_every": 10},
    }, seeded=True),
    # Per-call overhead: 4x4 uniform state of acceptance criterion 7,
    # resolvent-heavy, no dual norm, no real Krylov work.
    Workload("uniform-fh-4x4", "run", {
        "grid": {"nx": 4, "ny": 4, "lx": 2.0, "ly": 2.0},
        "params": dict(_PARAMS),
        "solver": dict(_SOLVER, dt=1e-5, t_end=0.005),
        "initial": {"preset": "uniform", "phi0": 0.4, "phi_a0": 0.3,
                    "n0": 0.9, "c0": 0.1},
        "output": {"diagnostics_every": 100, "snapshot_every": 0},
    }, seeded=False),
    # FD-vs-spectral cross-check on the quartic potential (criterion 6):
    # step-only FD run plus the Galerkin oracle, no resolvent.
    Workload("compare-quartic-64", "compare", {
        "params": dict(_PARAMS, potential="quartic"),
        "solver": dict(_SOLVER, t_end=0.25),
        "initial": {},
        "output": {},
    }, seeded=False, extra=("--modes", "16")),
]}


def config_text(workload, seed, out_dir):
    sections = {k: dict(v) for k, v in workload.config.items()}
    if workload.seeded:
        sections["initial"]["seed"] = seed
    sections["output"]["dir"] = out_dir
    lines = []
    for sec, keys in sections.items():
        lines.append(f"[{sec}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
    return "\n".join(lines) + "\n"


def child_env(tmp):
    env = {k: v for k, v in os.environ.items()
           if k not in ("MCHKS_THREADS", "PYTHONPATH")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", TMPDIR=tmp)
    return env


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Invocation:
    mode: str
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    output_bytes: int = 0
    failures: list = field(default_factory=list)
    spans: dict | None = None
    stdout: str = ""
    final_row: dict | None = None


def _spawn(argv, tmp, timeout):
    """Start argv in tmp; returns (rc, wall_s, rusage, t_spawn).  Kills the
    child if it outlives timeout and always reaps it."""
    with open(os.path.join(tmp, "stdout.txt"), "wb") as out, \
            open(os.path.join(tmp, "stderr.txt"), "wb") as err:
        t0 = _now()
        proc = subprocess.Popen(argv, cwd=tmp, stdout=out, stderr=err,
                                env=child_env(tmp))
        fd = os.pidfd_open(proc.pid)
        try:
            if not select.select([fd], [], [], max(timeout, 0.0))[0]:
                os.kill(proc.pid, signal.SIGKILL)
        finally:
            os.close(fd)
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t1 - t0, usage, t0


def invoke(workload, seed, mode, timeout, reference=None):
    """One gated invocation of `mchks <subcommand>` in a fresh interpreter."""
    TMP.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP)
    try:
        out_dir = os.path.join(tmp, "out")
        cfg_path = os.path.join(tmp, "bench.cfg")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            fh.write(config_text(workload, seed, out_dir))
        report_path = os.path.join(tmp, "report.json")
        argv = [sys.executable, str(HERE / "child.py"), str(SRC), report_path,
                mode, workload.subcommand, "-c", cfg_path, *workload.extra]
        rc, wall, usage, t0 = _spawn(argv, tmp, timeout)
        inv = Invocation(mode, wall)
        inv.cpu_s = usage.ru_utime + usage.ru_stime
        inv.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(os.path.join(tmp, "stdout.txt"), encoding="utf-8",
                  errors="replace") as fh:
            inv.stdout = fh.read()
        inv.failures = gate.check_exit(rc)
        if not inv.failures:
            try:
                with open(report_path, encoding="utf-8") as fh:
                    inv.setup_s = json.load(fh)["setup_mark"] - t0
                if mode == "trace":
                    with open(report_path + ".spans", encoding="utf-8") as fh:
                        inv.spans = json.load(fh)
            except (OSError, KeyError, ValueError) as exc:
                inv.failures.append(f"no timing report: {exc}")
            if workload.subcommand == "run":
                inv.failures += gate.check_run(out_dir, inv.stdout, workload,
                                               reference)
                csv_path = os.path.join(out_dir, "diagnostics.csv")
                if os.path.exists(csv_path):
                    inv.final_row = gate.read_csv(csv_path)[-1]
            else:
                inv.failures += gate.check_compare(inv.stdout)
        inv.output_bytes = sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, files in os.walk(out_dir) for f in files)
        return inv
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass


def load_reference(workload, seed):
    """Stored final row for this workload, if it applies to this seed."""
    if workload.subcommand != "run" or (workload.seeded and seed != DEFAULT_SEED):
        return None
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload.name]


def environment(probe_env):
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return dict(probe_env, git_commit=commit, src_sha256=src_hash.hexdigest())


def probe(deadline):
    """Import mchks once in a child: warms the caches, fingerprints the
    environment and fails fast when the checkout holds no program."""
    if not (SRC / "mchks" / "cli.py").is_file():
        raise SystemExit(f"error: no mchks package under {SRC}")
    TMP.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="probe-", dir=TMP)
    try:
        report = os.path.join(tmp, "report.json")
        rc, _, _, _ = _spawn([sys.executable, str(HERE / "child.py"), str(SRC),
                              report, "probe"], tmp, deadline - _now())
        if rc != 0:
            with open(os.path.join(tmp, "stderr.txt"), encoding="utf-8",
                      errors="replace") as fh:
                sys.stderr.write(fh.read())
            raise SystemExit(f"error: importing mchks failed (exit {rc})")
        with open(report, encoding="utf-8") as fh:
            return environment(json.load(fh)["env"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def end_to_end(ok, steps):
    """Summary over the invocations that passed the gate.

    The host's speed switches between a fast and a slow state every few
    seconds, and the share of slow time in a run varies from run to run.
    The fastest invocation is the one least slowed by other tenants, so the
    compute times report the minimum; set-up time and memory the median.
    """
    per_step = [(i.wall_s - i.setup_s) * 1e3 / steps for i in ok]
    return {
        "wall_s": (min(i.wall_s for i in ok), "s", len(ok)),
        "setup_s": (statistics.median([i.setup_s for i in ok]), "s", len(ok)),
        "ms_per_step": (min(per_step), "ms", len(ok)),
        "cpu_s": (min(i.cpu_s for i in ok), "s", len(ok)),
        "peak_rss_mb": (statistics.median([i.peak_rss_mb for i in ok]), "MB",
                        len(ok)),
    }


def bench(workload, seed, seconds, trace, start):
    """Closed loop: one invocation at a time for `seconds`.  No invocation
    starts that would be expected to end past `seconds`, so a run lasts
    about as long as asked whatever one invocation takes."""
    deadline = start + DEADLINE_S
    reference = load_reference(workload, seed)
    modes = ["plain", "trace"] if trace else ["plain"]
    invs = []
    t0 = _now()
    while True:
        mode = modes[len(invs) % len(modes)]
        invs.append(invoke(workload, seed, mode, deadline - _now(), reference))
        now = _now()
        if now >= deadline:
            break
        typical = statistics.median(i.wall_s for i in invs)
        if now - t0 + typical > seconds and len(invs) >= len(modes):
            break
    return invs


def report(workload, seed, trace, invs):
    attempted, failed = len(invs), sum(1 for i in invs if i.failures)
    print(f"workload {workload.name} seed {seed}: {attempted} invocations, "
          f"{failed} failed")
    for i in invs:
        for msg in i.failures:
            print(f"  FAIL ({i.mode}): {msg}")
    plain = [i for i in invs if i.mode == "plain" and not i.failures]
    traced = [i for i in invs if i.mode == "trace" and not i.failures]
    if not plain or (trace and not traced):
        return None
    table = end_to_end(plain, workload.steps)
    if trace:
        table = layer_metrics(
            [i.spans for i in traced], [i.wall_s for i in traced],
            [i.wall_s for i in plain], [i.output_bytes for i in plain],
            workload.steps)
    shown = dict(table, fail_ratio=(failed / attempted, "ratio", attempted))
    width = max(len(k) for k in shown)
    for name, (value, unit, n) in shown.items():
        text = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<{width}}  {text:>12} {unit:<6} n={n}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in table.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = _now()
    env = probe(start + DEADLINE_S)
    print("env " + json.dumps(env, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        workload = WORKLOADS[name]
        invs = bench(workload, args.seed, args.seconds, args.trace,
                     _now() if args.workload == "all" else start)
        result = report(workload, args.seed, args.trace, invs)
        if result is None:
            print(f"error: no invocation of {name} passed the gate",
                  file=sys.stderr)
            status = 1
            continue
        print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
