"""Span recorder installed from outside the program, in the traced child.

Each wrapped callable records one span: an id, the id of the span open when
it was called (its parent), a name, start and end in perf_counter_ns, and an
optional attribute value.  All spans of one invocation share its run id.
Spans stay in memory and are written out once, when the child ends.

Wrappers are installed where callers look the names up: `mchks.solver`
imports `cg_solve` by name, so `mchks.solver.cg_solve` is patched as well as
`mchks.fields.cg_solve`.  A name that no longer exists (after a refactor) is
listed in `missing` and the metrics built on it are reported as null.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import time

_clock = time.perf_counter_ns


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, parent, name, start_ns, end_ns, attr]
        self.stack = []
        self.missing = []
        self._wrapped = {}  # id(original) -> wrapper, so shared objects wrap once

    def wrap_fn(self, fn, name, attr_in=None, attr_out=None):
        """Return fn wrapped in a span; attr_in/attr_out derive the span attribute
        from the call arguments (before the clock starts) or from the result."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attr = attr_in(args, kwargs) if attr_in else None
            span = [len(spans), stack[-1][0] if stack else -1, name, 0, 0, attr]
            spans.append(span)
            stack.append(span)
            span[3] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[4] = _clock()
                stack.pop()
            if attr_out:
                span[5] = attr_out(out)
            return out

        return wrapper

    def patch(self, sites, name, adapt=None, **kw):
        """Wrap the callable found at each "module:attr.path" site.

        Sites holding the same object share one wrapper; `adapt`, if given,
        is applied to the original inside the span.  A name that no site
        resolves is recorded as missing.
        """
        found = False
        for site in sites:
            resolved = _resolve(site)
            if resolved is None:
                continue
            owner, attr, original = resolved
            key = id(original)
            if key not in self._wrapped:
                fn = adapt(original) if adapt else original
                self._wrapped[key] = self.wrap_fn(fn, name, **kw)
            setattr(owner, attr, self._wrapped[key])
            found = True
        if not found:
            self.missing.append(name)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "missing": self.missing}, fh, separators=(",", ":"))


def _resolve(site):
    module_name, _, path = site.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, parts[-1], None)
    if not callable(original):
        return None
    return owner, parts[-1], original


def _array_digest(args, kwargs):
    """(size, digest) of the resolvent's input, to count repeated inputs."""
    import numpy as np

    r = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    a = np.ascontiguousarray(r, dtype=float)
    return [int(a.size), hashlib.blake2b(a.tobytes(), digest_size=12).hexdigest()]


def _step_attr(out):
    """(Newton iterations, StepReport.linear_iters["ch"]) from step's result."""
    report = out[1]
    return [report.newton_iters, report.linear_iters.get("ch", 0)]


def _cg_iters(out):
    return int(out[1])


def install(tracer: Tracer):
    """Wrap the entry points of cli, solver, potentials, fields, diagnostics
    and galerkin that the per-layer metrics are built on."""
    t = tracer
    t.patch(["mchks.cli:parse_config"], "cli.parse_config")
    t.patch(["mchks.cli:run", "mchks.solver:run"], "solver.run")
    t.patch(["mchks.solver:step"], "solver.step", attr_out=_step_attr)
    t.patch(["mchks.solver:_helmholtz_solve"], "solver.helmholtz")
    t.patch(["mchks.solver:cg_solve", "mchks.fields:cg_solve"], "fields.cg_solve",
            attr_out=_cg_iters)
    t.patch(["mchks.solver:_solve_ch_jacobian"], "solver.ch_jacobian")
    t.patch(["mchks.solver:_solve_ch_direct"], "solver.ch_direct")
    counter = _IterationCounter()
    # BiCGStab as the solver looks it up
    t.patch(["mchks.solver:spla.bicgstab"], "solver.bicgstab",
            adapt=counter.adapt, attr_out=counter.attr)
    t.patch(["mchks.potentials:YosidaRegularization.resolvent"],
            "potentials.resolvent", attr_in=_array_digest)
    t.patch(["mchks.diagnostics:DiagnosticsTracker.observe"], "diagnostics.observe")
    t.patch(["mchks.diagnostics:energy"], "diagnostics.energy")
    t.patch(["mchks.diagnostics:dual_norm", "mchks.fields:dual_norm"],
            "fields.dual_norm")
    t.patch(["mchks.fields:inv_neumann_laplacian"], "fields.inv_neumann_laplacian")
    t.patch(["mchks.cli:integrate_galerkin", "mchks.galerkin:integrate_galerkin"],
            "galerkin.integrate")
    t.patch(["mchks.galerkin:galerkin_rhs"], "galerkin.rhs")
    t.patch(["mchks.cli:record_to_row"], "cli.record_row")
    t.patch(["mchks.cli:write_snapshot", "mchks.fields:write_snapshot"],
            "cli.write_snapshot")


class _IterationCounter:
    """Injects a counting `callback` into an iterative solver call; the span
    attribute is [iterations, info]."""

    def __init__(self):
        self.count = 0

    def adapt(self, solve):
        @functools.wraps(solve)
        def counted(*args, **kwargs):
            user_cb = kwargs.get("callback")
            self.count = 0

            def callback(xk):
                self.count += 1
                if user_cb is not None:
                    user_cb(xk)

            kwargs["callback"] = callback
            return solve(*args, **kwargs)

        return counted

    def attr(self, out):
        return [self.count, int(out[1])]

