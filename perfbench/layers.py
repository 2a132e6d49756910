"""Per-layer metrics from the spans of traced invocations.

A layer's self time is its span's duration minus the time its direct child
spans cover.  Counts are taken at the same boundaries as the spans, so each
ratio is measured where the work happens.  A metric built on a name that the
program no longer has is null; a metric of a layer that exists but did no
work on a workload is 0.
"""

from __future__ import annotations

import bisect
import statistics
from collections import defaultdict

# metric -> (unit, span names it is built on)
PER_LAYER = {
    "potentials.resolvent_calls_per_step": ("count", ["potentials.resolvent"]),
    "potentials.resolvent_ms_per_step": ("ms", ["potentials.resolvent"]),
    "potentials.resolvent_share": ("ratio", ["potentials.resolvent"]),
    "potentials.resolvent_unique_ratio": ("ratio", ["potentials.resolvent", "solver.step"]),
    "potentials.resolvent_ns_per_point": ("ns", ["potentials.resolvent"]),
    "fields.dual_norm_ms_p50": ("ms", ["fields.dual_norm"]),
    "fields.dual_norm_calls_per_record": ("count", ["fields.dual_norm", "diagnostics.observe"]),
    "fields.inv_laplacian_cg_iters": ("count", ["fields.inv_neumann_laplacian", "fields.cg_solve"]),
    "diagnostics.observe_ms_p50": ("ms", ["diagnostics.observe"]),
    "diagnostics.observe_share": ("ratio", ["diagnostics.observe"]),
    "diagnostics.energy_ms": ("ms", ["diagnostics.energy"]),
    "solver.step_ms_p50": ("ms", ["solver.step"]),
    "solver.step_ms_p90": ("ms", ["solver.step"]),
    "solver.step_self_ms": ("ms", ["solver.step"]),
    "solver.newton_iters_per_step": ("count", ["solver.step"]),
    "solver.ch_solves_per_step": ("count", ["solver.ch_jacobian"]),
    "solver.ch_krylov_iters_per_solve": ("count", ["solver.bicgstab"]),
    "solver.ch_report_iters_per_solve": ("count", ["solver.bicgstab", "solver.step"]),
    "solver.ch_krylov_ms_per_step": ("ms", ["solver.bicgstab"]),
    "solver.ch_krylov_success_ratio": ("ratio", ["solver.bicgstab"]),
    "solver.ch_direct_fallbacks": ("count", ["solver.ch_direct"]),
    "solver.cg_iters_n": ("count", ["solver.helmholtz", "fields.cg_solve", "solver.step"]),
    "solver.cg_iters_c": ("count", ["solver.helmholtz", "fields.cg_solve", "solver.step"]),
    "solver.cg_iters_phi_a": ("count", ["solver.helmholtz", "fields.cg_solve", "solver.step"]),
    "solver.cg_ms_per_step": ("ms", ["fields.cg_solve", "solver.step"]),
    "galerkin.integrate_ms": ("ms", ["galerkin.integrate"]),
    "galerkin.rhs_calls": ("count", ["galerkin.rhs"]),
    "galerkin.rhs_ms_per_call": ("ms", ["galerkin.rhs"]),
    "cli.parse_config_ms": ("ms", ["cli.parse_config"]),
    "cli.record_row_ms": ("ms", ["cli.record_row"]),
    "cli.snapshot_ms": ("ms", ["cli.write_snapshot"]),
    "cli.output_bytes": ("B", []),
    "trace.overhead_ratio": ("ratio", []),
}

_MS = 1e-6


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=10)[8]


def _div(a, b):
    return a / b if b else 0.0


class _Run:
    """Spans of one traced invocation, indexed by name and parent."""

    def __init__(self, dump):
        self.spans = dump["spans"]
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for span in self.spans:
            self.by_name[span[2]].append(span)
            self.children[span[1]].append(span)

    def dur(self, name):
        return [s[4] - s[3] for s in self.by_name[name]]

    def name_of(self, span_id):
        return self.spans[span_id][2] if span_id >= 0 else None


def layer_metrics(dumps, walls_traced, walls_plain, output_bytes, steps):
    """Per-layer (value, unit, samples) over the traced invocations of a run.

    dumps: span dumps, one per traced invocation; walls_traced/walls_plain:
    wall seconds of traced and untraced invocations; steps: FD steps per
    invocation.
    """
    runs = [_Run(d) for d in dumps]
    missing = {name for d in dumps for name in d["missing"]}
    n_inv = len(runs)
    total_steps = n_inv * steps
    wall_ns = sum(walls_traced) * 1e9

    def pooled(name):
        return [x for r in runs for x in r.dur(name)]

    def count(name):
        return sum(len(r.by_name[name]) for r in runs)

    resolvent = [s for r in runs for s in r.by_name["potentials.resolvent"]]
    res_ns = sum(s[4] - s[3] for s in resolvent)
    res_points = sum(s[5][0] for s in resolvent)

    step_ns, step_self, newton, ch_reported = [], [], [], 0
    cg = {"n": [], "c": [], "phi_a": []}
    cg_step_ns = 0
    inv_lap_iters = []
    unique, windowed = 0, 0
    for r in runs:
        for st in r.by_name["solver.step"]:
            d = st[4] - st[3]
            step_ns.append(d)
            kids = r.children[st[0]]
            step_self.append(d - sum(k[4] - k[3] for k in kids))
            if st[5] is not None:
                newton.append(st[5][0])
                ch_reported += st[5][1]
            helm = [k for k in kids if k[2] == "solver.helmholtz"]
            for field, h in zip(("n", "c"), helm):
                for k in r.children[h[0]]:
                    if k[2] == "fields.cg_solve":
                        cg[field].append(k[5])
                        cg_step_ns += k[4] - k[3]
            for k in kids:
                if k[2] == "fields.cg_solve":
                    cg["phi_a"].append(k[5])
                    cg_step_ns += k[4] - k[3]
        for k in r.by_name["fields.cg_solve"]:
            if r.name_of(k[1]) == "fields.inv_neumann_laplacian":
                inv_lap_iters.append(k[5])
        # one window per step plus the record that follows it
        starts = sorted(s[3] for s in r.by_name["solver.step"])
        windows = defaultdict(list)
        for s in r.by_name["potentials.resolvent"]:
            windows[bisect.bisect_right(starts, s[3])].append(s[5][1])
        unique += sum(len(set(w)) for w in windows.values())
        windowed += sum(len(w) for w in windows.values())

    krylov = [s for r in runs for s in r.by_name["solver.bicgstab"]]
    krylov_iters = sum(s[5][0] for s in krylov)
    krylov_ok = sum(1 for s in krylov if s[5][1] == 0)
    observe = pooled("diagnostics.observe")
    rhs = pooled("galerkin.rhs")

    values = {
        "potentials.resolvent_calls_per_step": _div(len(resolvent), total_steps),
        "potentials.resolvent_ms_per_step": _div(res_ns * _MS, total_steps),
        "potentials.resolvent_share": _div(res_ns, wall_ns),
        "potentials.resolvent_unique_ratio": _div(unique, windowed),
        "potentials.resolvent_ns_per_point": _div(res_ns, res_points),
        "fields.dual_norm_ms_p50": _median(pooled("fields.dual_norm")) * _MS,
        "fields.dual_norm_calls_per_record": _div(count("fields.dual_norm"),
                                                  len(observe)),
        "fields.inv_laplacian_cg_iters": _mean(inv_lap_iters),
        "diagnostics.observe_ms_p50": _median(observe) * _MS,
        "diagnostics.observe_share": _div(sum(observe), wall_ns),
        "diagnostics.energy_ms": _median(pooled("diagnostics.energy")) * _MS,
        "solver.step_ms_p50": _median(step_ns) * _MS,
        "solver.step_ms_p90": _p90(step_ns) * _MS,
        "solver.step_self_ms": _median(step_self) * _MS,
        "solver.newton_iters_per_step": _mean(newton),
        "solver.ch_solves_per_step": _div(count("solver.ch_jacobian"), total_steps),
        "solver.ch_krylov_iters_per_solve": _div(krylov_iters, len(krylov)),
        "solver.ch_report_iters_per_solve": _div(ch_reported, len(krylov)),
        "solver.ch_krylov_ms_per_step": _div(
            sum(s[4] - s[3] for s in krylov) * _MS, total_steps),
        "solver.ch_krylov_success_ratio": _div(krylov_ok, len(krylov)),
        "solver.ch_direct_fallbacks": _div(count("solver.ch_direct"), n_inv),
        "solver.cg_iters_n": _mean(cg["n"]),
        "solver.cg_iters_c": _mean(cg["c"]),
        "solver.cg_iters_phi_a": _mean(cg["phi_a"]),
        "solver.cg_ms_per_step": _div(cg_step_ns * _MS, total_steps),
        "galerkin.integrate_ms": _div(sum(pooled("galerkin.integrate")) * _MS, n_inv),
        "galerkin.rhs_calls": _div(len(rhs), n_inv),
        "galerkin.rhs_ms_per_call": _mean(rhs) * _MS,
        "cli.parse_config_ms": _median(pooled("cli.parse_config")) * _MS,
        "cli.record_row_ms": _mean(pooled("cli.record_row")) * _MS,
        "cli.snapshot_ms": _mean(pooled("cli.write_snapshot")) * _MS,
        "cli.output_bytes": _median(output_bytes),
        "trace.overhead_ratio": _median(walls_traced) / _median(walls_plain) - 1.0,
    }
    return {name: (None if missing.intersection(needs) else values[name], unit, n_inv)
            for name, (unit, needs) in PER_LAYER.items()}
