"""Config parsing, scenario presets and the command line interface.

Subcommands: ``run`` (simulate, writing diagnostics CSV, snapshots and a
manifest), ``verify`` (property battery, no simulation), ``compare`` (FD vs
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
from dataclasses import dataclass

import numpy as np

from . import diagnostics, selfcheck
from .errors import ParseError, ValidationError
from .fields import Grid2D, ScalarField, write_snapshot
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
from .solver import RunSinks, SolverConfig, State, run
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

# schema: section -> key -> (type, default); the scalar model and solver
# defaults live on ModelParams and SolverConfig
_SCHEMA = {
    "grid": {
        "nx": (int, 64),
        "ny": (int, 64),
        "lx": (float, 12.8),
        "ly": (float, 12.8),
    },
    "params": {
        **_PARAM_SCALARS,
        "potential": (str, "flory_huggins"),
        "c1": (float, 1.0),
        "c2": (float, 3.0),
        "c3": (float, 1.0),
        "r_star": (float, 0.6),
        "lj_shift": (float, 0.0),
        "mobility_m": (str, "constant"),
        "mobility_m_value": (float, 1.0),
        "mobility_m_b": (float, 1.0),
        "mobility_m_lambda": (float, 1.0),
        "mobility_n": (str, "constant"),
        "mobility_n_value": (float, 1.0),
        "mobility_n_m0": (float, 0.5),
        "mobility_n_mup": (float, 1.0),
    },
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

CSV_COLUMNS = [
    "t", "energy",
    "phi_mean", "phi_a_mean", "n_mean", "c_mean",
    "phi_min", "phi_max", "mu_min", "mu_max", "phi_a_min", "phi_a_max",
    "n_min", "n_max", "c_min", "c_max",
    "corridor_lo", "corridor_hi", "entropy",
    "flag_c_min", "flag_c_max", "flag_n_min", "flag_n_max",
    "flag_phi_a_neg", "flag_corridor",
]


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

    @property
    def seed(self):
        return self.initial["seed"]


def _convert(raw, typ, line, key):
    try:
        if typ is bool:
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ParseError(line, key, f"cannot parse {raw!r} as {typ.__name__}")


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
        target, _, raw = spec.partition("=")
        sec, _, key = target.partition(".")
        if sec not in _SCHEMA or key not in _SCHEMA[sec]:
            raise ParseError(0, target, "unknown override key")
        typ, _default = _SCHEMA[sec][key]
        values[sec][key] = _convert(raw.strip(), typ, 0, key)

    return _build_config(values)


def default_config() -> RunConfig:
    return parse_config("")


def _build_config(values) -> RunConfig:
    g = values["grid"]
    try:
        grid = Grid2D(g["nx"], g["ny"], g["lx"], g["ly"])
    except ValueError as exc:
        raise ValidationError(str(exc))

    p = values["params"]
    try:
        potential = _build_potential(p)
        mobility_m = _build_mobility_m(p)
        mobility_n = _build_mobility_n(p)
    except ValueError as exc:
        raise ValidationError(str(exc))
    params = ModelParams(
        **{key: p[key] for key in _PARAM_SCALARS},
        potential=potential,
        mobility_m=mobility_m,
        mobility_n=mobility_n,
    )

    try:
        solver = SolverConfig(**values["solver"])
    except ValueError as exc:
        raise ValidationError(str(exc))

    preset = values["initial"]["preset"]
    if preset not in ("spheroid", "uniform", "random-perturbation"):
        raise ValidationError(f"unknown initial preset {preset!r}")
    return RunConfig(grid, params, solver, values)


def _build_potential(p):
    name = p["potential"]
    if name == "quartic":
        return RegularQuartic(c3=p["c3"])
    if name == "flory_huggins":
        return FloryHuggins(c1=p["c1"], c2=p["c2"])
    if name == "double_obstacle":
        return DoubleObstacle(c3=p["c3"])
    if name == "single_well":
        return SingleWellLJ(r_star=p["r_star"], kappa=p["lj_shift"])
    raise ValidationError(f"unknown potential {name!r}")


def _build_mobility_m(p):
    name = p["mobility_m"]
    if name == "constant":
        return ConstantMobility(p["mobility_m_value"])
    if name == "kozeny_carman":
        return KozenyCarman(b_phi=p["mobility_m_b"], lam=p["mobility_m_lambda"])
    raise ValidationError(f"unknown mobility_m {name!r}")


def _build_mobility_n(p):
    name = p["mobility_n"]
    if name == "constant":
        return ConstantMobility(p["mobility_n_value"])
    if name == "endothelial":
        return EndothelialProduct(m0=p["mobility_n_m0"], m_up=p["mobility_n_mup"])
    raise ValidationError(f"unknown mobility_n {name!r}")


# ----------------------------------------------------------------- presets


def build_initial_state(config: RunConfig) -> State:
    grid = config.grid
    init = config.initial
    preset = init["preset"]
    zero = ScalarField.constant(grid, 0.0)
    if preset == "uniform":
        phi = ScalarField.constant(grid, init["phi0"])
    else:
        x, y = grid.centers()
        r = np.sqrt((x - grid.lx / 2.0) ** 2 + (y - grid.ly / 2.0) ** 2)
        r0 = init["radius_frac"] * min(grid.lx, grid.ly)
        profile = 0.5 * (1.0 + np.tanh((r0 - r) / init["width"]))
        phi = ScalarField(
            grid, init["phi_lo"] + (init["phi_hi"] - init["phi_lo"]) * profile
        )
    if preset == "random-perturbation" and init["amplitude"] > 0:
        rng = np.random.default_rng(init["seed"])
        bump = rng.uniform(-1.0, 1.0, (grid.nx, grid.ny))
        phi = ScalarField(grid, phi.values + init["amplitude"] * bump)
    return State(
        0.0,
        phi,
        zero.copy(),
        ScalarField.constant(grid, init["phi_a0"]),
        ScalarField.constant(grid, init["n0"]),
        ScalarField.constant(grid, init["c0"]),
    )


def twin_perturbation(state: State, amplitude: float) -> State:
    """Deterministic band-limited perturbation of all four evolved fields.

    The patterns carry both a mean shift and low-mode structure so every
    norm group of the continuous-dependence estimate is exercised.  Any
    admissible base stays admissible for 0 <= amplitude <= 1: the phi_a
    pattern is nonnegative and the n pattern nonpositive, and c is pulled
    by the fraction ``amplitude`` toward a target inside [0, 1], so c stays
    in [0, 1] even where the base sits on a bound.
    """
    if not 0.0 <= amplitude <= 1.0:
        raise ValidationError(
            f"twin perturbation amplitude {amplitude} outside [0, 1]"
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
    out.phi = ScalarField(grid, state.phi.values + amplitude * pat_phi)
    out.phi_a = ScalarField(grid, state.phi_a.values + amplitude * pat_phia)
    out.n = ScalarField(grid, state.n.values + amplitude * pat_n)
    out.c = ScalarField(
        grid, state.c.values + amplitude * (target_c - state.c.values)
    )
    return out


def band_limited_initial(config: RunConfig, k: int):
    """Project the configured initial data onto k modes, for `compare`.

    Returns (FD initial state on the config grid, Galerkin initial state,
    basis): both solvers then start from the same band-limited fields.  A
    constant field is kept exactly on both sides (its expansion evaluates
    to within an ulp of it, and an ulp above 1 fails the range checks).
    """
    grid = config.grid
    basis = EigenBasis(grid.lx, grid.ly, k)
    base = build_initial_state(config)
    fields = {name: getattr(base, name) for name in ("phi", "phi_a", "n", "c")}
    g0 = initial_galerkin_state(basis, config.params, fields)

    def on_grid(name):
        if fields[name].is_constant():
            return fields[name].copy()
        return evaluate_on_grid(basis, getattr(g0, name), grid)

    fd0 = State(
        0.0,
        on_grid("phi"),
        ScalarField.constant(grid, 0.0),
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
    ext = rec.extrema
    cells = [
        rec.t, rec.energy,
        rec.phi_mean, rec.phi_a_mean, rec.n_mean, rec.c_mean,
        ext["phi"][0], ext["phi"][1], ext["mu"][0], ext["mu"][1],
        ext["phi_a"][0], ext["phi_a"][1],
        ext["n"][0], ext["n"][1], ext["c"][0], ext["c"][1],
        rec.corridor_lo, rec.corridor_hi, rec.entropy,
        rec.flags["c_min"], rec.flags["c_max"],
        rec.flags["n_min"], rec.flags["n_max"],
        rec.flags["phi_a_neg"], rec.flags["corridor"],
    ]
    return ",".join(_fmt(c) for c in cells)


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
    with open(args.config, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides=args.set or [])


def write_run(config: RunConfig):
    """Run the configured scenario and write its output under output.dir.

    Writes manifest.txt, diagnostics.csv (a row every
    output.diagnostics_every steps) and the five field snapshots every
    output.snapshot_every steps (none when 0); returns (RunResult, csv path).
    """
    out_dir = config.output["dir"]
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))

    csv_path = os.path.join(out_dir, "diagnostics.csv")
    state0 = build_initial_state(config)
    snap_every = config.output["snapshot_every"]

    with open(csv_path, "w", encoding="utf-8") as csv_fh:
        csv_fh.write(",".join(CSV_COLUMNS) + "\n")

        def on_record(rec):
            csv_fh.write(record_to_row(rec) + "\n")

        def on_state(state):
            step_id = int(round(state.t / config.solver.dt))
            for name in ("phi", "mu", "phi_a", "n", "c"):
                path = os.path.join(out_dir, f"snap_{step_id:08d}_{name}.bin")
                write_snapshot(path, getattr(state, name), name, state.t)

        sinks = RunSinks(
            on_record=on_record,
            on_state=on_state if snap_every else None,
            state_every=snap_every,
        )
        result = run(
            state0,
            config.params,
            config.solver,
            sinks=sinks,
            record_every=config.output["diagnostics_every"],
        )
    return result, csv_path


def cmd_run(args) -> int:
    result, csv_path = write_run(_load_config(args))
    violations = sum(r.any_violation for r in result.records)
    print(f"completed {len(result.records)} records -> {csv_path}")
    print(f"records with violation flags: {violations}")
    return 0 if violations == 0 else 1


def cmd_verify(_args) -> int:
    results = selfcheck.run_all()
    failed = 0
    for name, count, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name} ({count} cases)")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1


def cmd_compare(args) -> int:
    config = _load_config(args)
    k = args.modes
    fd0, g0, basis = band_limited_initial(config, k)
    params, solver = config.params, config.solver
    if params.singular and params.eps < 1e-2:
        raise ValidationError(
            "compare needs eps >= 1e-2 in singular mode (spectral oracle)"
        )

    fd = run(fd0, params, solver, record_every=10**9).final_state
    gs = integrate_galerkin(g0, params, basis, solver.t_end)[-1]

    worst = 0.0
    for name, err in cross_errors(fd, gs, basis).items():
        print(f"cross-error {name}: {err:.6e}")
        worst = max(worst, err)
    print(f"cross-error max: {worst:.6e} (threshold {args.threshold:.3e})")
    return 0 if worst <= args.threshold else 1


def cmd_twin(args) -> int:
    config = _load_config(args)
    base0 = build_initial_state(config)
    pert0 = twin_perturbation(base0, args.perturb)
    params, solver = config.params, config.solver
    every = max(1, int(round(solver.t_end / solver.dt)) // 50)

    def job(state0):
        return run(state0, params, solver, record_every=10**9,
                   keep_states=every).states

    states1 = job(base0)
    states2 = job(pert0)

    dist = diagnostics.twin_run_distance(states1, states2, params)
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

    p_verify = sub.add_parser("verify", help="run the property battery")
    p_verify.set_defaults(fn=cmd_verify)

    p_cmp = sub.add_parser("compare", help="FD vs spectral cross-validation")
    p_cmp.add_argument("-c", "--config", required=True)
    p_cmp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_cmp.add_argument("--modes", type=int, default=8)
    p_cmp.add_argument("--threshold", type=float, default=5e-3)
    p_cmp.set_defaults(fn=cmd_compare)

    p_twin = sub.add_parser("twin", help="twin runs with perturbed data")
    p_twin.add_argument("-c", "--config", required=True)
    p_twin.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p_twin.add_argument("--perturb", type=float, default=1e-3)
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
