import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mchks
from mchks.cli import (
    CSV_COLUMNS,
    band_limited_initial,
    build_initial_state,
    default_config,
    main,
    parse_config,
    serialize_config,
    twin_perturbation,
)
from mchks.errors import ParseError, ValidationError
from mchks.fields import read_snapshot
from mchks.potentials import FloryHuggins, SingleWellLJ
from mchks.solver import validate_initial_data

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


def test_overrides():
    config = parse_config(TINY, overrides=["solver.dt=2e-2", "grid.nx=16"])
    assert config.solver.dt == 2e-2
    assert config.grid.nx == 16
    with pytest.raises(ParseError):
        parse_config(TINY, overrides=["solver.nope=1"])


def test_presets():
    config = parse_config(TINY)
    st = build_initial_state(config)
    assert st.phi.values.min() >= 0.049
    assert st.phi.values.max() <= 0.951
    assert np.all(st.n.values == 1.0)

    uni = parse_config(TINY + "\n[initial]\npreset = uniform\nphi0 = 0.25\n")
    st = build_initial_state(uni)
    assert np.all(st.phi.values == 0.25)

    rand = parse_config(
        TINY + "\n[initial]\npreset = random-perturbation\namplitude = 0.01\n"
        "seed = 7\n"
    )
    st1 = build_initial_state(rand)
    st2 = build_initial_state(rand)
    assert np.array_equal(st1.phi.values, st2.phi.values)  # seeded
    assert st1.phi.values.std() > 0.0

    with pytest.raises(ValidationError):
        parse_config(TINY + "\n[initial]\npreset = wavy\n")


def test_twin_perturbation_keeps_admissibility():
    config = parse_config(TINY + "\n[initial]\nn0 = 0.95\nc0 = 0.3\n")
    base = build_initial_state(config)
    pert = twin_perturbation(base, 1e-2)
    assert np.all(pert.n.values <= 1.0)
    assert np.all(pert.c.values >= 0.0) and np.all(pert.c.values <= 1.0)
    assert np.all(pert.phi_a.values >= 0.0)
    assert not np.array_equal(pert.phi.values, base.phi.values)


@pytest.mark.parametrize("c0", [0.0, 1.0])
def test_twin_perturbation_keeps_bounds_admissible(c0):
    config = parse_config(
        TINY + f"\n[initial]\nphi_a0 = 0.0\nn0 = 1.0\nc0 = {c0}\n"
    )
    base = build_initial_state(config)
    for amp in (1e-3, 0.5, 1.0):
        pert = twin_perturbation(base, amp)
        assert np.all(pert.n.values <= 1.0)
        assert np.all(pert.c.values >= 0.0) and np.all(pert.c.values <= 1.0)
        assert np.all(pert.phi_a.values >= 0.0)
        assert not np.array_equal(pert.c.values, base.c.values)
    with pytest.raises(ValidationError):
        twin_perturbation(base, -1e-3)


def test_band_limited_initial_shares_data():
    config = parse_config(TINY)
    fd0, g0, basis = band_limited_initial(config, k=4)
    from mchks.galerkin import evaluate_on_grid

    again = evaluate_on_grid(basis, g0.phi, config.grid)
    assert np.allclose(fd0.phi.values, again.values, atol=1e-12)


def test_band_limited_initial_keeps_constants_exact():
    config = default_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fd0, g0, _ = band_limited_initial(config, 8)
        validate_initial_data(fd0, config.params)
    assert np.all(fd0.n.values == 1.0)
    assert np.all(fd0.c.values == config.initial["c0"])
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
    field, name, t = read_snapshot(snap)
    assert name == "phi"
    assert t == pytest.approx(0.05)
    assert field.grid.nx == 8


def test_run_determinism_bitwise(tmp_path):
    csvs = []
    for tag in ("a", "b"):
        cfg_path = tmp_path / f"{tag}.cfg"
        out_dir = tmp_path / tag
        cfg_path.write_text(TINY + f"\n[output]\ndir = {out_dir}\n")
        assert main(["run", "-c", str(cfg_path)]) == 0
        csvs.append((out_dir / "diagnostics.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_run_spheroid_script_writes_snapshots(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_spheroid.py"
    out_dir = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(mchks.__file__).resolve().parents[1]),
         env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, str(script), "--out", str(out_dir),
         "--set", "grid.nx=8", "--set", "grid.ny=8",
         "--set", "solver.dt=1e-2", "--set", "solver.t_end=0.1"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert "separation margin" in proc.stdout
    csv_lines = (out_dir / "diagnostics.csv").read_text().splitlines()
    assert len(csv_lines) == 12  # header + t=0 + 10 steps
    manifest = parse_config((out_dir / "manifest.txt").read_text())
    assert manifest.output["dir"] == str(out_dir)
    assert manifest.output["snapshot_every"] == 1
    _, name, t = read_snapshot(out_dir / "snap_00000010_phi.bin")
    assert name == "phi"
    assert t == pytest.approx(0.1)


def test_verify_subcommand():
    assert main(["verify"]) == 0


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


def test_twin_subcommand(tmp_path):
    cfg_path = tmp_path / "twin.cfg"
    cfg_path.write_text(
        "[grid]\nnx = 12\nny = 12\nlx = 8.0\nly = 8.0\n"
        "[solver]\ndt = 2e-3\nt_end = 2e-2\n"
        "[initial]\nn0 = 0.95\nc0 = 0.3\n"
    )
    assert main(["twin", "-c", str(cfg_path), "--perturb", "1e-3"]) == 0


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
