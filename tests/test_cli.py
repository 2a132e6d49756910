import os
import subprocess
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest
from _oracles import nan_galerkin_rhs

import mchks
from mchks import cli, galerkin, solver
from mchks.cli import (
    CSV_COLUMNS,
    band_limited_initial,
    build_initial_state,
    main,
    parse_config,
    serialize_config,
    twin_perturbation,
)
from mchks.diagnostics import separation_margins
from mchks.errors import BoundsViolation, ParseError, ValidationError
from mchks.fields import read_snapshot
from mchks.potentials import FloryHuggins, Potential, SingleWellLJ
from mchks.solver import SolverConfig, hypotheses, run, validate_initial_data
from mchks.sources import ModelParams

TINY = """
[grid]
nx = 8
ny = 8
lx = 12.8
ly = 12.8

[solver]
dt = 1e-2
t_end = 5e-2
"""


def test_defaults_fill_in():
    config = parse_config("")
    assert config.params.chi_phi == 0.01
    assert config.params.chi_a == 0.001
    assert isinstance(config.params.potential, FloryHuggins)
    assert config.grid.nx == 64
    assert config.initial["preset"] == "spheroid"


def test_parse_reports_line_and_key():
    with pytest.raises(ParseError) as exc:
        parse_config("[grid]\nnx = 8\nbogus = 1\n")
    assert exc.value.line == 3
    assert exc.value.key == "bogus"

    with pytest.raises(ParseError) as exc:
        parse_config("[grid]\nnx = 8\nnx = 16\n")
    assert "duplicate" in str(exc.value)

    with pytest.raises(ParseError):
        parse_config("[nonsense]\n")
    with pytest.raises(ParseError):
        parse_config("nx = 8\n")  # key outside a section
    with pytest.raises(ParseError):
        parse_config("[grid]\nnx = eight\n")


def test_comments_and_blank_lines_ok():
    config = parse_config("# header\n[grid]\nnx = 16  # inline\n\nny = 16\n")
    assert config.grid.nx == 16


def test_validation_chi_a_range():
    with pytest.raises(ValidationError) as exc:
        parse_config("[params]\nchi_a = 1.5\n")
    assert "chi_a" in str(exc.value)


def test_validation_singular_chi_phi():
    with pytest.raises(ValidationError):
        parse_config("[params]\npotential = flory_huggins\nchi_phi = 1.5\n")
    # smooth potential allows larger chi_phi
    parse_config("[params]\npotential = quartic\nchi_phi = 1.5\n")


def test_single_well_round_trip():
    config = parse_config(
        "[params]\npotential = single_well\nr_star = 0.7\nlj_shift = 0.2\n"
    )
    pot = config.params.potential
    assert isinstance(pot, SingleWellLJ)
    assert pot.r_star == 0.7 and pot.kappa == 0.2
    again = parse_config(serialize_config(config))
    assert again.params.potential == pot


@pytest.mark.parametrize(
    "mobilities",
    ["", "mobility_m = kozeny_carman\nmobility_n = endothelial\n"],
    ids=["constant", "kozeny_carman-endothelial"],
)
@pytest.mark.parametrize(
    "potential", ["quartic", "flory_huggins", "double_obstacle", "single_well"]
)
def test_manifest_round_trip(potential, mobilities):
    config = parse_config(
        f"[params]\npotential = {potential}\nc3 = 2.5\n{mobilities}"
        "[solver]\ndt = 2e-3\nsources_off = true\n"
        "[initial]\npreset = uniform\nphi0 = 0.3\n",
        overrides=["grid.lx=3.3", "output.snapshot_every=7"],
    )
    text = serialize_config(config)
    again = parse_config(text)
    assert again.grid == config.grid
    assert again.params == config.params
    assert again.solver == config.solver
    assert again.initial == config.initial
    assert again.output == config.output
    assert serialize_config(again) == text


def test_empty_config_gives_the_dataclass_defaults():
    config = parse_config("")
    assert config.params == ModelParams()
    assert config.solver == SolverConfig()


def test_potential_slot_lists_every_variant_once():
    classes = [cls for cls, _ in cli._VARIANTS["potential"].values()]
    assert len(classes) == len(set(classes))
    assert set(classes) == set(Potential.__subclasses__())


def test_every_variant_builds_its_class_default():
    for slot, variants in cli._VARIANTS.items():
        for name, (cls, _) in variants.items():
            params = parse_config(f"[params]\n{slot} = {name}\n").params
            assert getattr(params, slot) == cls(), (slot, name)
        with pytest.raises(ValidationError, match=rf"^unknown {slot} 'bogus'$"):
            parse_config(f"[params]\n{slot} = bogus\n")


def test_a_key_shared_by_variants_has_one_default():
    declared = {}
    for variants in cli._VARIANTS.values():
        for cls, args in variants.values():
            for key, arg in args.items():
                declared.setdefault(key, []).append(cli._scalar_fields(cls)[arg])
    assert len(declared["c3"]) == 2
    for key, entries in declared.items():
        assert set(entries) == {cli._SCHEMA["params"][key]}, key


def test_overrides():
    config = parse_config(TINY, overrides=["solver.dt=2e-2", "solver.t_end=0.1",
                                            "grid.nx=16"])
    assert config.solver.dt == 2e-2
    assert config.grid.nx == 16
    # SECTION.KEY is stripped like a key in the file
    spaced = parse_config(TINY, overrides=["solver.dt = 2e-2", " solver.t_end=0.1",
                                            "grid . nx =16"])
    assert spaced.values == config.values
    with pytest.raises(ParseError):
        parse_config(TINY, overrides=["solver.nope=1"])


def test_presets():
    config = parse_config(TINY)
    st = build_initial_state(config)
    assert st.phi.min() >= 0.049
    assert st.phi.max() <= 0.951
    assert np.all(st.n == 1.0)

    uni = parse_config(TINY + "\n[initial]\npreset = uniform\nphi0 = 0.25\n")
    st = build_initial_state(uni)
    assert np.all(st.phi == 0.25)

    rand = parse_config(
        TINY + "\n[initial]\npreset = random-perturbation\namplitude = 0.01\n"
        "seed = 7\n"
    )
    st1 = build_initial_state(rand)
    st2 = build_initial_state(rand)
    assert np.array_equal(st1.phi, st2.phi)  # seeded
    assert st1.phi.std() > 0.0

    with pytest.raises(ValidationError):
        parse_config(TINY + "\n[initial]\npreset = wavy\n")


def test_twin_perturbation_keeps_admissibility():
    config = parse_config(TINY + "\n[initial]\nn0 = 0.95\nc0 = 0.3\n")
    base = build_initial_state(config)
    pert = twin_perturbation(base, 1e-2)
    assert np.all(pert.n <= 1.0)
    assert np.all(pert.c >= 0.0) and np.all(pert.c <= 1.0)
    assert np.all(pert.phi_a >= 0.0)
    assert not np.array_equal(pert.phi, base.phi)


@pytest.mark.parametrize("c0", [0.0, 1.0])
def test_twin_perturbation_keeps_bounds_admissible(c0):
    config = parse_config(
        TINY + f"\n[initial]\nphi_a0 = 0.0\nn0 = 1.0\nc0 = {c0}\n"
    )
    base = build_initial_state(config)
    for amp in (1e-3, 0.5, 1.0):
        pert = twin_perturbation(base, amp)
        assert np.all(pert.n <= 1.0)
        assert np.all(pert.c >= 0.0) and np.all(pert.c <= 1.0)
        assert np.all(pert.phi_a >= 0.0)
        assert not np.array_equal(pert.c, base.c)
    with pytest.raises(ValidationError):
        twin_perturbation(base, -1e-3)


def test_band_limited_initial_shares_data():
    config = parse_config(TINY)
    fd0, g0, basis = band_limited_initial(build_initial_state(config), k=4)
    from mchks.galerkin import evaluate_on_grid

    again = evaluate_on_grid(basis, g0.phi, config.grid)
    assert np.allclose(fd0.phi, again, atol=1e-12)


def test_band_limited_initial_keeps_constants_exact():
    config = parse_config("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fd0, g0, _ = band_limited_initial(build_initial_state(config), 8)
        validate_initial_data(fd0, config.params)
    assert np.all(fd0.n == 1.0)
    assert np.all(fd0.c == config.initial["c0"])
    area = config.grid.lx * config.grid.ly
    assert g0.n[0, 0] == np.sqrt(area)
    assert np.count_nonzero(g0.n) == 1


def test_compare_with_signal_at_its_upper_bound(tmp_path):
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("")
    assert main(["compare", "-c", str(cfg_path), "--set", "initial.c0=1.0",
                 "--set", "params.eps=0.02", "--set", "solver.t_end=0.01"]) == 0


def test_run_subcommand_outputs(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    cfg_path.write_text(
        TINY + f"\n[output]\ndir = {out_dir}\nsnapshot_every = 5\n"
    )
    assert main(["run", "-c", str(cfg_path)]) == 0
    csv_lines = (out_dir / "diagnostics.csv").read_text().splitlines()
    assert csv_lines[0] == ",".join(CSV_COLUMNS)
    assert len(csv_lines) == 7  # header + t=0 + 5 steps
    manifest = (out_dir / "manifest.txt").read_text()
    parse_config(manifest)  # manifest is itself a valid config

    snap = out_dir / "snap_00000005_phi.bin"
    grid, _, name, t = read_snapshot(snap)
    assert name == "phi"
    assert t == pytest.approx(0.05)
    assert grid.nx == 8


def test_run_determinism_bitwise(tmp_path):
    csvs = []
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"{tag}.cfg"
        out_dir = tmp_path / tag
        cfg_path.write_text(TINY + f"\n[output]\ndir = {out_dir}\n")
        assert main(["run", "-c", str(cfg_path)]) == 0
        csvs.append((out_dir / "diagnostics.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("overrides", [
    ["grid.nx=16", "grid.ny=16", "initial.preset=uniform", "initial.n0=0.1"],
    ["initial.n0=0.3", "params.delta_n=0.6"],
], ids=["uniform", "spheroid"])
def test_run_without_proliferation_keeps_its_corridor(tmp_path, overrides):
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("")
    sets = [a for o in overrides + ["solver.t_end=0.05", f"output.dir={tmp_path}"]
            for a in ("--set", o)]
    assert main(["run", "-c", str(cfg_path)] + sets) == 0


def _kept_runs(monkeypatch):
    """Route `cli.run` through `run`, keeping the initial state of each call."""
    initials = []

    def kept(initial, *args):
        initials.append(initial)
        return run(initial, *args)

    monkeypatch.setattr(cli, "run", kept)
    return initials


def _kept_outputs(monkeypatch):
    """Route `cli.write_run` through itself, keeping the (records, reports,
    csv path) of each call."""
    outputs = []
    write_run = cli.write_run

    def kept(config):
        outputs.append(write_run(config))
        return outputs[-1]

    monkeypatch.setattr(cli, "write_run", kept)
    return outputs


def test_run_ends_with_a_solver_summary(tmp_path, monkeypatch, capsys):
    outputs = _kept_outputs(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY + f"\n[output]\ndir = {tmp_path}\n")
    assert main(["run", "-c", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "records with violation flags: 0"
    _, reports, _ = outputs[0]
    newton = sum(r.newton_iters for r in reports)
    krylov = sum(r.linear_iters["ch"] for r in reports)
    worst = max(r.newton_residual for r in reports)
    assert lines[-1] == (
        f"solver: {len(reports)} steps, {newton / len(reports):.3f} Newton "
        f"iterations per step, {krylov / newton:.3f} CH Krylov iterations "
        f"per solve, 0 sparse-LU steps, worst Newton residual {worst:.3e}")
    assert len(reports) == 5 and newton > 0 and krylov > 0


def test_run_prints_the_separation_margin_after_the_transient(
        tmp_path, monkeypatch, capsys):
    outputs = _kept_outputs(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY + f"\n[output]\ndir = {tmp_path}\n")
    assert main(["run", "-c", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    records, _, _ = outputs[0]
    _, margins = separation_margins(records, 0.1 * 5e-2,
                                    FloryHuggins())
    assert len(lines) == 4
    assert lines[0].startswith("completed 6 records -> ")
    assert lines[1] == (f"separation margin: {margins[0]:.4f} -> "
                        f"{margins[-1]:.4f} (t >= 0.005)")
    assert lines[2] == "records with violation flags: 0"
    assert lines[3].startswith("solver: 5 steps, ")


def test_run_separation_margin_follows_the_repelling_ends(
        tmp_path, monkeypatch, capsys):
    # single-well repels phi only from 1, quartic from no end at all
    outputs = _kept_outputs(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY + f"\n[output]\ndir = {tmp_path}\n")
    assert main(["run", "-c", str(cfg_path), "--set",
                 "params.potential=single_well", "--set",
                 "initial.phi_hi=0.7"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    records, _, _ = outputs[0]
    post = [r for r in records if r.t >= 0.1 * 5e-2]
    upper = np.maximum.accumulate([r.phi_max for r in post])
    assert line == (f"separation margin: {1.0 - upper[0]:.4f} -> "
                    f"{1.0 - upper[-1]:.4f} (t >= 0.005)")
    assert main(["run", "-c", str(cfg_path), "--set",
                 "params.potential=quartic"]) == 0
    line = capsys.readouterr().out.splitlines()[1]
    assert line == "separation margin: inf -> inf (t >= 0.005)"


NON_FINITE = ["solver.newton_tol=nan", "params.m=nan", "solver.linear_tol=inf",
              "params.kappa0=inf"]


@pytest.mark.parametrize("override", [
    "solver.t_end=0.0105", "solver.t_end=-0.5", "output.diagnostics_every=0",
    "output.snapshot_every=-1", "solver.newton_tol=-1", "solver.linear_tol=-1",
    "initial.c0=2", "initial.seed=-1", "output.dir=", *NON_FINITE])
def test_run_rejects_a_bad_schedule_before_any_output(
        tmp_path, monkeypatch, capsys, override):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(cli, "run", no_solve)
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("")
    out_dir = tmp_path / "out"
    assert main(["run", "-c", str(cfg_path), "--set", f"output.dir={out_dir}",
                 "--set", override]) == 2
    # the message names the key, or the constraint on the data it sets; a
    # number that is not finite does not parse
    key = override.partition(".")[2].partition("=")[0]
    kind = "parse" if override in NON_FINITE else "validation"
    err = capsys.readouterr().err
    assert err.startswith(f"error: {kind}: ") and key in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", [["compare", "--modes", "4"], ["twin"]],
                         ids=["compare", "twin"])
def test_inadmissible_initial_data_exit_2_before_any_solve(
        tmp_path, monkeypatch, capsys, command):
    runs = _kept_runs(monkeypatch)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(TINY)
    assert main(command + ["-c", str(cfg_path), "--set", "initial.c0=2"]) == 2
    assert capsys.readouterr().err.startswith("error: validation: c0-range: ")
    assert runs == []


@pytest.mark.parametrize("potential, flagged", [
    ("flory_huggins", 3), ("quartic", 0)])
def test_run_reports_a_fired_flag_in_the_csv_and_the_exit_code(
        tmp_path, capsys, potential, flagged):
    # n0 above 1: singular mode warns and flags n_max at every record,
    # smooth mode is exempt from the n bounds
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("")
    sets = ["grid.nx=8", "grid.ny=8", "solver.t_end=2e-3", "initial.n0=1.5",
            f"params.potential={potential}", f"output.dir={tmp_path}"]
    argv = ["run", "-c", str(cfg_path)] + [a for s in sets for a in ("--set", s)]
    with (pytest.warns(UserWarning, match="nutrient confinement") if flagged
          else nullcontext()):
        rc = main(argv)
    assert rc == (1 if flagged else 0)
    out = capsys.readouterr().out
    assert f"records with violation flags: {flagged}\n" in out
    header, *rows = (tmp_path / "diagnostics.csv").read_text().splitlines()
    col = header.split(",").index("flag_n_max")
    assert [row.split(",")[col] for row in rows] == ["1" if flagged else "0"] * 3


@pytest.mark.parametrize("command", ["run", "verify", "compare", "twin"])
def test_unreadable_config_exits_2_naming_the_path(tmp_path, capsys, command):
    missing = tmp_path / "missing.cfg"
    assert main([command, "-c", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parse: ") and str(missing) in err


def _python(*args, **env):
    """Run a fresh interpreter on args with this mchks on its path and the
    environment variables ``env`` set; the call must exit 0."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(mchks.__file__).resolve().parents[1]),
         env.get("PYTHONPATH", "")]
    )
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True)


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    # not even compare: the ETDRK4 oracle needs no scipy.integrate, nor the
    # scipy.optimize and scipy.spatial that it pulls in
    cfg_path = tmp_path / "cmp.cfg"
    cfg_path.write_text(TINY + "[params]\npotential = quartic\n")
    proc = _python("-c", (
        "import sys; from mchks import cli; "
        f"rc = cli.main(['compare', '-c', {str(cfg_path)!r}, '--modes', '4']); "
        "print(rc, *(m in sys.modules for m in "
        "('scipy.integrate', 'scipy.optimize', 'scipy.spatial')))"))
    assert proc.stdout.splitlines()[-1] == "0 False False False"
    assert cli.integrate_galerkin is galerkin.integrate_galerkin


def test_cli_leaves_scipy_linalg_unloaded_until_sparse_lu(tmp_path):
    # on small grids no command loads any scipy module: the stencils and the
    # cosine transform are numpy's and BiCGStab is the package's own; only
    # the sparse-LU path imports scipy.sparse.linalg, and scipy.linalg with it
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY + f"\n[output]\ndir = {tmp_path}\n")
    cmp_path = tmp_path / "cmp.cfg"  # the oracle takes the quartic only
    cmp_path.write_text(TINY + "[params]\npotential = quartic\n")
    cfg = ["-c", str(cfg_path)]
    commands = [["run", *cfg], ["compare", "-c", str(cmp_path), "--modes", "4"],
                ["twin", *cfg], ["verify", *cfg]]
    proc = _python("-c", (
        "import sys; from mchks import cli; "
        f"print(*(cli.main(a) for a in {commands!r})); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"))
    assert proc.stdout.splitlines()[-2:] == ["0 0 0 0", "[]"]
    direct = ["run", *cfg, "--set", "solver.linear_solver=direct"]
    proc = _python("-c", (
        f"import sys; from mchks import cli; print(cli.main({direct!r})); "
        "print(*(m in sys.modules for m in "
        "('scipy.sparse.linalg', 'scipy.linalg')))"))
    assert proc.stdout.splitlines()[-2:] == ["0", "True True"]


def test_run_output_does_not_depend_on_blas_threads(tmp_path):
    # the cosine transforms are BLAS products: dgemm in the dual norm and
    # sgemm in the Cahn-Hilliard preconditioner.  At 96^2 each product has
    # m n k = 884 736, above OpenBLAS's one-thread cut of 262 144 for both,
    # so OpenBLAS splits it over two threads
    outputs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        cfg_path = tmp_path / f"{threads}.cfg"
        cfg_path.write_text(TINY + f"\n[output]\ndir = {out_dir}\n")
        args = ["run", "-c", str(cfg_path), "--set", "grid.nx=96",
                "--set", "grid.ny=96", "--set", "output.snapshot_every=1"]
        _python("-c", f"from mchks import cli; assert cli.main({args!r}) == 0",
                OPENBLAS_NUM_THREADS=threads)
        files = sorted(p.name for p in out_dir.iterdir()
                       if p.name == "diagnostics.csv" or p.name.startswith("snap_"))
        outputs.append({name: (out_dir / name).read_bytes() for name in files})
    assert len(outputs[0]) > 1
    assert outputs[0] == outputs[1]


def _sets(*overrides):
    return [a for o in overrides for a in ("--set", o)]


def test_verify_prints_a_pass_line_per_hypothesis(tmp_path, capsys):
    config = parse_config("")
    names = [h.name for h in hypotheses(build_initial_state(config),
                                        config.params)]
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("")
    for argv in (["verify"], ["verify", "-c", str(cfg_path)]):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"PASS {name}" for name in names]
    assert "mobility_m-bounds" in names and "mobility_n-bounds" in names


def test_verify_fails_a_mobility_outside_its_bounds(capsys):
    assert main(["verify"] + _sets("params.mobility_m=kozeny_carman")) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if not line.startswith("PASS ")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL mobility_m-bounds: KozenyCarman ")
    assert "m0" in failed[0]


def test_verify_fails_inadmissible_data_without_solving(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(cli, "run", no_solve)
    monkeypatch.setattr(solver, "step", no_solve)
    assert main(["verify"] + _sets("initial.c0=2")) == 1
    assert ("FAIL c0-range: initial signal concentration must lie in [0, 1]"
            in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("command", ["verify", "run"])
def test_kozeny_carman_with_a_negative_scale_exits_2(tmp_path, capsys, command):
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("")
    out_dir = tmp_path / "out"
    argv = [command, "-c", str(cfg_path)] + _sets(
        "grid.nx=16", "grid.ny=16", "params.mobility_m=kozeny_carman",
        "params.mobility_m_b=-1", "initial.phi_hi=0.9", "solver.t_end=2e-3",
        f"output.dir={out_dir}")
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: validation: mobility must be positive\n")
    assert not out_dir.exists()


def test_run_warns_a_mobility_outside_its_bounds_before_its_first_step(
        tmp_path, monkeypatch):
    seen_at_steps = []
    step = solver.step

    def watched(*args):
        seen_at_steps.append([str(w.message) for w in caught])
        return step(*args)

    monkeypatch.setattr(solver, "step", watched)
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("")
    argv = ["run", "-c", str(cfg_path)] + _sets(
        "grid.nx=16", "grid.ny=16", "params.mobility_m=kozeny_carman",
        "solver.t_end=2e-3", f"output.dir={tmp_path}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    first = [w for w in caught if issubclass(w.category, BoundsViolation)][0]
    assert str(first.message).startswith("mobility_m-bounds: KozenyCarman ")
    assert len(seen_at_steps) == 2
    assert str(first.message) in seen_at_steps[0]


def test_compare_subcommand(tmp_path):
    cfg_path = tmp_path / "cmp.cfg"
    cfg_path.write_text(
        "[grid]\nnx = 16\nny = 16\nlx = 6.283185307179586\n"
        "ly = 6.283185307179586\n"
        "[params]\npotential = quartic\n"
        "[solver]\ndt = 1e-3\nt_end = 2e-2\n"
        "[initial]\npreset = uniform\nphi0 = 0.4\nphi_a0 = 0.3\n"
        "n0 = 0.8\nc0 = 0.2\n"
    )
    assert main(["compare", "-c", str(cfg_path), "--modes", "4"]) == 0


def test_compare_subcommand_default_config(tmp_path, capsys):
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("")
    assert main(["compare", "-c", str(cfg_path),
                 "--set", "solver.t_end=0.05"]) == 0
    worst = capsys.readouterr().out.splitlines()[-1]
    assert float(worst.split()[2]) <= 5e-3


def test_oracle_error_shrinks_under_joint_refinement_at_production_eps():
    # default config: Flory-Huggins, singular, eps = 1e-3
    assert parse_config("").params.singular
    assert parse_config("").params.eps == 1e-3
    worst = []
    for nx, k in ((32, 8), (64, 16)):
        config = parse_config("", overrides=[
            f"grid.nx={nx}", f"grid.ny={nx}", "solver.t_end=0.1"])
        errors = cli.cross_validate(build_initial_state(config),
                                    config.params, config.solver, k)
        worst.append(max(errors.values()))
    assert worst[1] < 0.2 * worst[0]
    assert worst[1] <= 1e-3


@pytest.mark.parametrize("modes", ["-1", "8", "17"])
def test_compare_rejects_modes_outside_grid_before_solving(
        tmp_path, monkeypatch, modes):
    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(cli, "run", no_solve)
    monkeypatch.setattr(cli, "integrate_galerkin", no_solve)
    cfg_path = tmp_path / "cmp.cfg"
    cfg_path.write_text(TINY + "[params]\npotential = quartic\n")
    assert main(["compare", "-c", str(cfg_path), "--modes", modes]) == 2


def test_compare_refuses_an_inadmissible_projection_before_solving(
        tmp_path, monkeypatch, capsys):
    # on 8x8 the 4-mode projection of the spheroid overshoots the
    # Flory-Huggins domain, though the data on the grid lie inside it
    def no_solve(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(cli, "run", no_solve)
    monkeypatch.setattr(cli, "integrate_galerkin", no_solve)
    cfg_path = tmp_path / "cmp.cfg"
    cfg_path.write_text(TINY)
    assert main(["compare", "-c", str(cfg_path), "--modes", "4"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: validation: phi0-potential-domain: ")


def test_compare_exits_3_on_non_finite_oracle_before_fd_run(
        tmp_path, monkeypatch, capsys):
    def no_fd(*args, **kwargs):
        raise AssertionError("FD run reached")

    monkeypatch.setattr(galerkin, "galerkin_rhs", nan_galerkin_rhs(20))
    monkeypatch.setattr(cli, "run", no_fd)
    cfg_path = tmp_path / "cmp.cfg"
    # quartic: the 4-mode projection of Flory-Huggins data is refused
    cfg_path.write_text(TINY + "[params]\npotential = quartic\n")
    assert main(["compare", "-c", str(cfg_path), "--modes", "4"]) == 3
    err = capsys.readouterr().err
    assert "NonFiniteField" in err
    assert "eps = 0.001" in err and "k = 4" in err and "t = " in err


def test_twin_subcommand(tmp_path):
    cfg_path = tmp_path / "twin.cfg"
    cfg_path.write_text(
        "[grid]\nnx = 12\nny = 12\nlx = 8.0\nly = 8.0\n"
        "[solver]\ndt = 2e-3\nt_end = 2e-2\n"
        "[initial]\nn0 = 0.95\nc0 = 0.3\n"
    )
    assert main(["twin", "-c", str(cfg_path), "--perturb", "1e-3"]) == 0


def test_twin_prints_a_block_per_amplitude_from_one_base_run(
        tmp_path, monkeypatch, capsys):
    runs = _kept_runs(monkeypatch)
    cfg_path = tmp_path / "twin.cfg"
    cfg_path.write_text(TINY + "[initial]\nn0 = 0.95\nc0 = 0.3\n")
    assert main(["twin", "-c", str(cfg_path), "--perturb", "1e-2", "5e-3"]) == 0
    assert len(runs) == 3
    blocks = capsys.readouterr().out.split("perturbation: ")[1:]
    assert [b.splitlines()[0] for b in blocks] == ["0.01", "0.005"]
    for block in blocks:
        lines = block.splitlines()
        assert lines[-1].startswith("stability ratio: ")
        assert all(line.startswith(("lhs ", "rhs ")) for line in lines[1:-1])


def test_twin_rejects_an_amplitude_before_any_run(tmp_path, monkeypatch):
    runs = _kept_runs(monkeypatch)
    cfg_path = tmp_path / "twin.cfg"
    cfg_path.write_text(TINY)
    assert main(["twin", "-c", str(cfg_path), "--perturb", "1e-2", "2"]) == 2
    # amplitude 0 would read 0/0 as the stability ratio
    assert main(["twin", "-c", str(cfg_path), "--perturb", "0", "1e-3"]) == 2
    assert runs == []


def test_twin_subcommand_default_config(tmp_path):
    cfg_path = tmp_path / "empty.cfg"
    cfg_path.write_text("")
    assert main(["twin", "-c", str(cfg_path), "--set", "grid.nx=12",
                 "--set", "grid.ny=12", "--set", "solver.t_end=1e-2"]) == 0


def test_main_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[params]\nchi_a = 2.0\n")
    assert main(["run", "-c", str(bad)]) == 2
    worse = tmp_path / "worse.cfg"
    worse.write_text("[params]\nwat = 1\n")
    assert main(["run", "-c", str(worse)]) == 2
    # an override without "=" names no value
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert main(["run", "-c", str(empty), "--set", "output.dir"]) == 2
