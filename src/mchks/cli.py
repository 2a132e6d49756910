"""Config parsing, scenario presets and the command line interface.

Subcommands: ``run`` (simulate, writing diagnostics CSV, snapshots and a
manifest), ``verify`` (the configured initial data and model against the
hypothesis table ``run`` applies, no simulation), ``compare`` (FD vs
spectral cross-validation on the same band-limited data) and ``twin``
(perturbed twin runs with the continuous-dependence metric).  Configuration
lives in a sectioned key=value text file; command line ``--set`` flags only
override config keys, so a config plus a seed fully determines a run.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import ParseError, ValidationError
from .fields import Grid2D, write_snapshot
from .galerkin import (
    EigenBasis,
    cross_errors,
    evaluate_on_grid,
    initial_galerkin_state,
    integrate_galerkin,
)
from .potentials import (
    DoubleObstacle,
    FloryHuggins,
    RegularQuartic,
    SingleWellLJ,
)
from .solver import SolverConfig, State, hypotheses, run, validate_initial_data
from .sources import ConstantMobility, EndothelialProduct, KozenyCarman, ModelParams


def _scalar_fields(cls):
    """Schema entries (type, default) of a config dataclass's scalar fields,
    in field order; fields without a scalar default are left out."""
    return {
        f.name: (type(f.default), f.default)
        for f in dataclasses.fields(cls)
        if isinstance(f.default, (bool, int, float, str))
    }


_PARAM_SCALARS = _scalar_fields(ModelParams)

# variant table: slot -> name -> (class, {config key: constructor argument});
# a slot defaults to its first variant, and each key takes its type and
# default from the class field it feeds
_VARIANTS = {
    "potential": {
        "flory_huggins": (FloryHuggins, {"c1": "c1", "c2": "c2"}),
        "quartic": (RegularQuartic, {"c3": "c3"}),
        "double_obstacle": (DoubleObstacle, {"c3": "c3"}),
        "single_well": (SingleWellLJ, {"r_star": "r_star", "lj_shift": "kappa"}),
    },
    "mobility_m": {
        "constant": (ConstantMobility, {"mobility_m_value": "value"}),
        "kozeny_carman": (KozenyCarman, {"mobility_m_b": "b_phi",
                                         "mobility_m_lambda": "lam"}),
    },
    "mobility_n": {
        "constant": (ConstantMobility, {"mobility_n_value": "value"}),
        "endothelial": (EndothelialProduct, {"mobility_n_m0": "m0",
                                             "mobility_n_mup": "m_up"}),
    },
}


def _variant_schema():
    schema = {}
    for slot, variants in _VARIANTS.items():
        schema[slot] = (str, next(iter(variants)))
        for cls, args in variants.values():
            fields = _scalar_fields(cls)
            for key, arg in args.items():
                schema.setdefault(key, fields[arg])
    return schema


# schema: section -> key -> (type, default); the scalar model and solver
# defaults live on ModelParams, SolverConfig and the variant classes
_SCHEMA = {
    "grid": {
        "nx": (int, 64),
        "ny": (int, 64),
        "lx": (float, 12.8),
        "ly": (float, 12.8),
    },
    "params": {**_PARAM_SCALARS, **_variant_schema()},
    "solver": _scalar_fields(SolverConfig),
    "initial": {
        "preset": (str, "spheroid"),
        "phi0": (float, 0.3),
        "phi_lo": (float, 0.05),
        "phi_hi": (float, 0.95),
        "radius_frac": (float, 0.25),
        "width": (float, 1.0),
        "phi_a0": (float, 0.05),
        "n0": (float, 1.0),
        "c0": (float, 0.0),
        "amplitude": (float, 0.0),
        "seed": (int, 1234),
    },
    "output": {
        "dir": (str, "out"),
        "snapshot_every": (int, 0),
        "diagnostics_every": (int, 1),
    },
}

# the record's fields are the diagnostics.csv columns, h_sup apart
CSV_COLUMNS = [f.name for f in dataclasses.fields(diagnostics.DiagnosticsRecord)
               if f.name != "h_sup"]


@dataclass
class RunConfig:
    grid: Grid2D
    params: ModelParams
    solver: SolverConfig
    values: dict  # resolved schema values, section -> key -> value

    @property
    def initial(self):
        return self.values["initial"]

    @property
    def output(self):
        return self.values["output"]


def _convert(raw, typ, line, key):
    try:
        if typ is bool:
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        value = typ(raw)
    except ValueError:
        raise ParseError(line, key, f"cannot parse {raw!r} as {typ.__name__}")
    if typ is float and not math.isfinite(value):
        raise ParseError(line, key, f"{raw!r} is not a finite number")
    return value


def parse_config(text: str, overrides=None) -> RunConfig:
    """Parse sectioned key=value config text into a validated RunConfig."""
    values = {sec: {} for sec in _SCHEMA}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ParseError(lineno, section, "unknown section")
            continue
        if "=" not in line:
            raise ParseError(lineno, line, "expected key = value")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if section is None:
            raise ParseError(lineno, key, "key outside any section")
        if key not in _SCHEMA[section]:
            raise ParseError(lineno, key, f"unknown key in [{section}]")
        if key in values[section]:
            raise ParseError(lineno, key, "duplicate key")
        typ, _default = _SCHEMA[section][key]
        values[section][key] = _convert(raw, typ, lineno, key)

    for sec, keys in _SCHEMA.items():
        for key, (typ, default) in keys.items():
            values[sec].setdefault(key, default)

    for spec in overrides or []:
        target, sep, raw = spec.partition("=")
        if not sep:
            raise ParseError(0, target, "expected SECTION.KEY=VALUE")
        sec, _, key = (part.strip() for part in target.partition("."))
        if sec not in _SCHEMA or key not in _SCHEMA[sec]:
            raise ParseError(0, target, "unknown override key")
        typ, _default = _SCHEMA[sec][key]
        values[sec][key] = _convert(raw.strip(), typ, 0, key)

    return _build_config(values)


def _build_config(values) -> RunConfig:
    g = values["grid"]
    try:
        grid = Grid2D(g["nx"], g["ny"], g["lx"], g["ly"])
    except ValueError as exc:
        raise ValidationError(str(exc))

    p = values["params"]
    try:
        variants = {slot: _build_variant(slot, p) for slot in _VARIANTS}
    except ValueError as exc:
        raise ValidationError(str(exc))
    params = ModelParams(**{key: p[key] for key in _PARAM_SCALARS}, **variants)

    try:
        solver = SolverConfig(**values["solver"])
    except ValueError as exc:
        raise ValidationError(str(exc))

    preset = values["initial"]["preset"]
    if preset not in ("spheroid", "uniform", "random-perturbation"):
        raise ValidationError(f"unknown initial preset {preset!r}")
    if values["initial"]["seed"] < 0:
        raise ValidationError("initial.seed must be nonnegative")
    if not values["output"]["dir"]:
        raise ValidationError("output.dir must not be empty")
    if values["output"]["diagnostics_every"] < 1:
        raise ValidationError("output.diagnostics_every must be at least 1")
    if values["output"]["snapshot_every"] < 0:
        raise ValidationError("output.snapshot_every must be nonnegative")
    return RunConfig(grid, params, solver, values)


def _build_variant(slot, p):
    if p[slot] not in _VARIANTS[slot]:
        raise ValidationError(f"unknown {slot} {p[slot]!r}")
    cls, args = _VARIANTS[slot][p[slot]]
    return cls(**{arg: p[key] for key, arg in args.items()})


# ----------------------------------------------------------------- presets


def build_initial_state(config: RunConfig) -> State:
    """The configured initial state; inadmissible data are a
    ValidationError, so every subcommand refuses them before it solves."""
    state = _preset_state(config)
    _check_admissible(state, config.params)
    return state


def _preset_state(config: RunConfig) -> State:
    """The configured initial state, unchecked."""
    grid = config.grid
    init = config.initial
    preset = init["preset"]
    if preset == "uniform":
        phi = np.full(grid.shape, init["phi0"])
    else:
        x, y = grid.centers()
        r = np.sqrt((x - grid.lx / 2.0) ** 2 + (y - grid.ly / 2.0) ** 2)
        r0 = init["radius_frac"] * min(grid.lx, grid.ly)
        profile = 0.5 * (1.0 + np.tanh((r0 - r) / init["width"]))
        phi = init["phi_lo"] + (init["phi_hi"] - init["phi_lo"]) * profile
    if preset == "random-perturbation" and init["amplitude"] > 0:
        rng = np.random.default_rng(init["seed"])
        bump = rng.uniform(-1.0, 1.0, grid.shape)
        phi = phi + init["amplitude"] * bump
    return State(
        0.0,
        grid,
        phi,
        np.zeros(grid.shape),
        np.full(grid.shape, init["phi_a0"]),
        np.full(grid.shape, init["n0"]),
        np.full(grid.shape, init["c0"]),
    )


def _check_admissible(state: State, params: ModelParams):
    """``validate_initial_data`` without its warnings, which run() repeats."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        validate_initial_data(state, params)


def twin_perturbation(state: State, amplitude: float) -> State:
    """Deterministic band-limited perturbation of all four evolved fields.

    The patterns carry both a mean shift and low-mode structure so every
    norm group of the continuous-dependence estimate is exercised.  Any
    admissible base stays admissible for 0 < amplitude <= 1: the phi_a
    pattern is nonnegative and the n pattern nonpositive, and c is pulled
    by the fraction ``amplitude`` toward a target inside [0, 1], so c stays
    in [0, 1] even where the base sits on a bound.  Amplitude 0 is refused:
    both sides of the stability estimate would vanish.
    """
    if not 0.0 < amplitude <= 1.0:
        raise ValidationError(
            f"twin perturbation amplitude {amplitude} outside (0, 1]"
        )
    grid = state.grid
    x, y = grid.centers()
    cx = np.cos(np.pi * x / grid.lx)
    cy = np.cos(np.pi * y / grid.ly)
    c2x = np.cos(2.0 * np.pi * x / grid.lx)
    pat_phi = 0.3 + 0.5 * cx * cy + 0.2 * c2x
    pat_phia = 0.4 + 0.4 * cy  # >= 0 pointwise
    pat_n = -(0.3 + 0.35 * cx * cy + 0.2 * c2x)  # <= 0 pointwise
    target_c = 0.5 + 0.4 * cx * cy  # in [0.1, 0.9]
    out = state.copy()
    out.phi = state.phi + amplitude * pat_phi
    out.phi_a = state.phi_a + amplitude * pat_phia
    out.n = state.n + amplitude * pat_n
    out.c = state.c + amplitude * (target_c - state.c)
    return out


def band_limited_initial(state: State, k: int):
    """Project an FD state onto k modes: the start of `compare`.

    Returns (FD initial state on the state's grid, Galerkin initial state,
    basis): both solvers then start from the same band-limited fields,
    which needs 0 <= k < min(nx, ny).  A constant field is kept exactly on
    both sides (its expansion evaluates to within an ulp of it, and an ulp
    above 1 fails the range checks).
    """
    grid = state.grid
    if not 0 <= k < min(grid.nx, grid.ny):
        raise ValidationError(f"--modes {k} outside [0, {min(grid.nx, grid.ny)})")
    basis = EigenBasis(grid.lx, grid.ly, k)
    fields = {name: getattr(state, name) for name in ("phi", "phi_a", "n", "c")}
    g0 = initial_galerkin_state(basis, grid, fields)

    def on_grid(name):
        values = fields[name]
        if np.all(values == values.flat[0]):
            return values.copy()
        return evaluate_on_grid(basis, getattr(g0, name), grid)

    fd0 = State(
        0.0,
        grid,
        on_grid("phi"),
        np.zeros(grid.shape),
        on_grid("phi_a"),
        on_grid("n"),
        on_grid("c"),
    )
    return fd0, g0, basis


# ------------------------------------------------------------------ output


def _fmt(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return format(x, ".17g")


def record_to_row(rec: diagnostics.DiagnosticsRecord) -> str:
    return ",".join(_fmt(getattr(rec, column)) for column in CSV_COLUMNS)


def _manifest_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)  # str of a float is its shortest round-trip form


def serialize_config(config: RunConfig) -> str:
    """Deterministic echo of the resolved configuration (the run manifest).

    Every schema key is written with its resolved value, in schema order, so
    the manifest is itself a config that parses back to the same run.
    """
    sections = []
    for sec, keys in _SCHEMA.items():
        lines = [f"[{sec}]"]
        lines += [f"{key} = {_manifest_value(config.values[sec][key])}"
                  for key in keys]
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"


# ------------------------------------------------------------ subcommands


def _load_config(args) -> RunConfig:
    """The config file args.config (the empty config when None) with the
    --set overrides."""
    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(0, args.config,
                             f"cannot read config ({exc.strerror})")
    return parse_config(text, overrides=args.set or [])


def write_run(config: RunConfig):
    """Run the configured scenario and write its output under output.dir.

    Writes manifest.txt, diagnostics.csv (a row every
    output.diagnostics_every steps and at the first and last states) and the
    five field snapshots on the same rule with output.snapshot_every (none
    when 0); returns (records, step reports, csv path).  Inadmissible
    initial data are a ValidationError before anything is written.
    """
    state0 = build_initial_state(config)
    out_dir = config.output["dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))

    csv_path = os.path.join(out_dir, "diagnostics.csv")
    diag_every = config.output["diagnostics_every"]
    snap_every = config.output["snapshot_every"]
    dt, steps = config.solver.dt, config.solver.steps
    tracker = diagnostics.DiagnosticsTracker(config.params, state0)
    records, reports, residual_sum = [], [], 0.0

    with open(csv_path, "w", encoding="utf-8") as csv_fh:
        csv_fh.write(",".join(CSV_COLUMNS) + "\n")
        for k, (state, report) in enumerate(
                run(state0, config.params, config.solver)):
            if report is not None:
                reports.append(report)
                residual_sum += report.newton_residual
            if k % diag_every == 0 or k == steps:
                records.append(tracker.observe(state, dt, residual_sum))
                csv_fh.write(record_to_row(records[-1]) + "\n")
            if snap_every and (k % snap_every == 0 or k == steps):
                for name in ("phi", "mu", "phi_a", "n", "c"):
                    path = os.path.join(out_dir, f"snap_{k:08d}_{name}.bin")
                    write_snapshot(path, state.grid, getattr(state, name), name, state.t)
    return records, reports, csv_path


def solver_summary(reports) -> str:
    """One line on the Cahn-Hilliard solver over a run's StepReports: Newton
    iterations per step, Krylov iterations per Newton correction, steps that
    used sparse LU and the worst accepted Newton residual."""
    steps = len(reports)
    newton = sum(r.newton_iters for r in reports)
    krylov = sum(r.linear_iters.get("ch", 0) for r in reports)
    direct = sum(r.used_direct for r in reports)
    worst = max((r.newton_residual for r in reports), default=0.0)
    return (f"solver: {steps} steps, {newton / max(steps, 1):.3f} Newton "
            f"iterations per step, {krylov / max(newton, 1):.3f} CH Krylov "
            f"iterations per solve, {direct} sparse-LU steps, worst Newton "
            f"residual {worst:.3e}")


def cmd_run(args) -> int:
    config = _load_config(args)
    records, reports, csv_path = write_run(config)
    violations = sum(r.any_violation for r in records)
    t0 = 0.1 * config.solver.t_end
    _, margins = diagnostics.separation_margins(records, t0,
                                                config.params.potential)
    print(f"completed {len(records)} records -> {csv_path}")
    print(f"separation margin: {margins[0]:.4f} -> {margins[-1]:.4f} "
          f"(t >= {t0:g})")
    print(f"records with violation flags: {violations}")
    print(solver_summary(reports))
    return 0 if violations == 0 else 1


def cmd_verify(args) -> int:
    config = _load_config(args)
    failed = 0
    for hyp in hypotheses(_preset_state(config), config.params):
        print(f"PASS {hyp.name}" if hyp.holds
              else f"FAIL {hyp.name}: {hyp.message}")
        failed += not hyp.holds
    return 0 if failed == 0 else 1


def cross_validate(state: State, params: ModelParams, solver: SolverConfig,
                   k: int):
    """Start the spectral oracle and the FD solver from the projection of
    ``state`` onto k modes (``band_limited_initial``), integrate both to
    solver.t_end and return their RMS cross-errors per field.  A projection
    that leaves the admissible set (it can overshoot the potential's domain)
    is a ValidationError before either solver starts."""
    fd0, g0, basis = band_limited_initial(state, k)
    _check_admissible(fd0, params)
    # the oracle first: a non-finite oracle stops before the FD cost
    gs = integrate_galerkin(g0, params, basis, solver.t_end)[-1]
    for fd, _ in run(fd0, params, solver):
        pass
    return cross_errors(fd, gs, basis)


def cmd_compare(args) -> int:
    config = _load_config(args)
    errors = cross_validate(build_initial_state(config), config.params,
                            config.solver, args.modes)
    worst = 0.0
    for name, err in errors.items():
        print(f"cross-error {name}: {err:.6e}")
        worst = max(worst, err)
    print(f"cross-error max: {worst:.6e} (threshold {args.threshold:.3e})")
    return 0 if worst <= args.threshold else 1


def cmd_twin(args) -> int:
    config = _load_config(args)
    base0 = build_initial_state(config)
    # every amplitude is validated before the first solve
    perturbed = [twin_perturbation(base0, amp) for amp in args.perturb]
    params, solver = config.params, config.solver
    every = max(1, solver.steps // 50)

    def job(state0):
        """Every every-th state of the run, the first and the last."""
        return [state.copy()
                for k, (state, _) in enumerate(run(state0, params, solver))
                if k % every == 0 or k == solver.steps]

    base = job(base0)
    for amp, pert0 in zip(args.perturb, perturbed):
        dist = diagnostics.twin_run_distance(base, job(pert0))
        print(f"perturbation: {amp:g}")
        for name, val in dist.components_lhs.items():
            print(f"lhs {name}: {val:.6e}")
        for name, val in dist.components_rhs.items():
            print(f"rhs {name}: {val:.6e}")
        print(f"stability ratio: {dist.ratio:.6f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mchks",
        description="multiphase Cahn-Hilliard / Keller-Segel tumor growth "
        "simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a configured scenario")
    p_run.add_argument("-c", "--config", required=True)
    p_run.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser(
        "verify", help="check the config against the analysis' hypotheses")
    p_verify.add_argument("-c", "--config")
    p_verify.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_verify.set_defaults(fn=cmd_verify)

    p_cmp = sub.add_parser("compare", help="FD vs spectral cross-validation")
    p_cmp.add_argument("-c", "--config", required=True)
    p_cmp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_cmp.add_argument("--modes", type=int, default=16)
    p_cmp.add_argument("--threshold", type=float, default=5e-3)
    p_cmp.set_defaults(fn=cmd_compare)

    p_twin = sub.add_parser("twin", help="twin runs with perturbed data")
    p_twin.add_argument("-c", "--config", required=True)
    p_twin.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_twin.add_argument("--perturb", type=float, nargs="+", default=[1e-3])
    p_twin.set_defaults(fn=cmd_twin)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver-level failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
