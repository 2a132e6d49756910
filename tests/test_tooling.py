"""Guards for the benchmark's per-layer metrics and columns, the README's
tables and the paths it names, the one domain declaration of the potential
variants and the start guess each of their resolvents takes, the one CG
call of the solver, the operators the mobility laws supply, its one
stepping loop, the states that loop yields, and a package that holds only
what the program calls.

``perfbench/spans.py`` wraps program entry points named by
``"mchks.<module>:<attr.path>"`` site strings; a site that no longer
resolves makes its metrics read null without an error.
``perfbench/gate.py`` reads ``diagnostics.csv`` by column name.  Both files
are read as text here, so nothing under ``perfbench/`` is imported or
changed.
"""

import ast
import importlib
import inspect
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mchks import cli
from mchks.potentials import Potential
from mchks.solver import run

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mchks"
SPANS = ROOT / "perfbench" / "spans.py"
GATE = ROOT / "perfbench" / "gate.py"
SOLVER = SRC / "solver.py"
SITE = re.compile(r'"(mchks(?:\.\w+)*:\w+(?:\.\w+)*)"')


def _sites():
    return sorted(set(SITE.findall(SPANS.read_text(encoding="utf-8"))))


def test_spans_names_the_traced_sites():
    assert len(_sites()) >= 20


@pytest.mark.parametrize("site", _sites())
def test_span_site_resolves(site):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("variant", Potential.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_variants_inherit_mean_admissibility(variant):
    # admissible means are derived from slope_domain, so a new variant
    # declares its domain once
    assert "mean_admissible" not in vars(variant)


@pytest.mark.parametrize("variant", Potential.__subclasses__(),
                         ids=lambda cls: cls.__name__)
def test_every_resolvent_takes_a_start_guess(variant):
    # the step starts each Newton iterate's solve from a guess: a closed
    # form ignores it, and an iterative solve lands within its tolerance
    assert inspect.signature(variant.resolvent).parameters["guess"].default is None
    pot = variant()
    r = np.linspace(-0.5, 1.5, 41)
    plain = pot.resolvent(r, 0.01)
    guessed = pot.resolvent(r, 0.01, np.full(r.shape, 0.3))
    if "_safeguarded_newton" in inspect.getsource(variant.resolvent):
        assert np.max(np.abs(guessed - plain)) <= 1e-13
    else:
        assert np.array_equal(guessed, plain)


def _callers(tree, callee):
    """The top-level function around each call of ``callee``, by name."""
    return [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and callee in (getattr(node.func, "id", None),
                           getattr(node.func, "attr", None))]


def test_substeps_share_one_cg_solve():
    # substeps 1-3 are one implicit solve, so CG is called in one place
    tree = ast.parse(SOLVER.read_text(encoding="utf-8"))
    assert _callers(tree, "cg_solve") == ["_helmholtz_solve"]


def test_mobility_laws_supply_the_step_operators():
    # each law hands the step its div(mob grad), so the solver fills none
    tree = ast.parse(SOLVER.read_text(encoding="utf-8"))
    assert _callers(tree, "div_mob_grad_matrix") == []


def test_run_is_the_one_stepping_loop():
    # every trajectory comes from solver.run, so step is called in one place
    callers = [(path.stem, fn) for path in sorted(SOLVER.parent.glob("*.py"))
               for fn in _callers(ast.parse(path.read_text(encoding="utf-8")),
                                  "step")]
    assert callers == [("solver", "run")]


def test_run_yields_five_float_arrays_on_the_initial_grid():
    config = cli.parse_config(
        "", overrides=["grid.nx=8", "grid.ny=8", "solver.t_end=3e-3"])
    state0 = cli.build_initial_state(config)
    states = [state for state, _ in run(state0, config.params, config.solver)]
    assert len(states) == config.solver.steps + 1
    for state in states:
        assert state.grid is state0.grid
        for name in ("phi", "mu", "phi_a", "n", "c"):
            values = getattr(state, name)
            assert type(values) is np.ndarray and values.dtype == np.float64
            assert values.shape == (state.grid.nx, state.grid.ny), name


# public names with no caller in the program, each kept for its reason
UNCALLED = {
    "read_snapshot": "reads the snapshot format that run writes for users",
    "lap_array": "the independent stencil the tests check the matrix against",
    "weak_residual": "the steps.csv item on the ROADMAP gives it its caller",
}


def _names(node):
    """Every name that ``node`` reads, calls or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def test_src_holds_only_what_the_program_calls():
    # each public function or class of the package is referenced from
    # another top-level statement of the package or from perfbench/ (in
    # code or as a span site); code that only tests call belongs in tests/
    outside = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        outside |= _names(ast.parse(path.read_text(encoding="utf-8")))
    sites = {(site.partition(":")[0], site.partition(":")[2].split(".")[0])
             for site in SITE.findall(SPANS.read_text(encoding="utf-8"))}
    defs = [(path.stem, node, _names(node)) for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body]
    # in how many top-level statements of the package each name occurs
    inside = Counter(name for *_, names in defs for name in names)
    uncalled = {
        node.name for module, node, names in defs
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and inside[node.name] == (node.name in names)
        and node.name not in outside
        and (f"mchks.{module}", node.name) not in sites}
    assert uncalled - UNCALLED.keys() == set()
    # an entry that gained a caller leaves the list
    assert UNCALLED.keys() - uncalled == set()


def _gate_list(name):
    """The literal list assigned to ``name`` in perfbench/gate.py."""
    tree = ast.parse(GATE.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not assigned in {GATE.name}")


@pytest.mark.parametrize("name", ["REFERENCE_COLUMNS", "FLAG_COLUMNS"])
def test_gate_reads_columns_the_csv_has(name):
    # the gate reads diagnostics.csv by column name, so a renamed column
    # would fail every benchmark invocation
    columns = _gate_list(name)
    assert columns and set(columns) <= set(cli.CSV_COLUMNS)


def _readme_block(heading):
    """The first fenced block after the README line ``heading``."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    after = text[text.index(heading + "\n"):]
    return after.split("```\n")[1]


def test_readme_lists_the_csv_columns():
    block = _readme_block("`diagnostics.csv` has one row per recorded step:")
    assert [c.strip() for c in block.split(",")] == cli.CSV_COLUMNS


@pytest.mark.parametrize("section",
                         ["grid", "params", "solver", "initial", "output"])
def test_readme_config_block_names_every_key(section):
    block = _readme_block("### Config format")
    listed = re.search(rf"^\[{section}\](.*?)(?=^\[|\Z)", block,
                       re.M | re.S).group(1)
    keys = cli.parse_config("").values[section]
    assert set(keys) <= set(re.findall(r"\w+", listed))


def test_readme_package_layout_names_every_module():
    block = _readme_block("## Package layout")
    listed = set(re.findall(r"^  (\w+\.py) ", block, re.M))
    modules = {p.name for p in SRC.glob("*.py")}
    assert listed == modules - {"__init__.py"}


def test_readme_command_line_block_names_exactly_the_subcommands(capsys):
    with pytest.raises(SystemExit):
        cli.main(["-h"])
    listed = re.search(r"\{([\w,]+)\}", capsys.readouterr().out).group(1)
    block = _readme_block("## Command line")
    assert (set(re.findall(r"^mchks (\w+)", block, re.M))
            == set(listed.split(",")))


def test_readme_names_only_paths_that_exist():
    # a deleted or renamed file cannot stay documented
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = {path.rstrip(".") for path in re.findall(
        r"(?<![\w/.])(?:src|tests|perfbench|scripts)/[\w./-]*", text)}
    assert "tests/test_acceptance.py" in named
    assert {path for path in named if not (ROOT / path).exists()} == set()
    # a bare file name must name a file of the package, tests or benchmark
    bare = set(re.findall(r"(?<![\w/.])\w+\.py\b", text))
    assert "galerkin.py" in bare
    files = {path.name for top in ("src", "tests", "perfbench")
             for path in (ROOT / top).rglob("*.py")}
    assert bare - files == set()
