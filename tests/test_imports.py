"""Import hygiene.

The package draws its random streams with its own array PCG64, so neither
generating networks nor running a study may load ``numpy.random`` (about
10 ms of cold start for ``prospector-eval generate``); that is checked in a
fresh interpreter.  Only ``table`` decodes the eight-cell layout, so no
other module imports its masks or cell-index pairs, divides by pair masses
or raises DegenerateBaseRateError; only ``engine`` writes the rules'
arithmetic and the MIN/MAX choice, which the sweep imports, and names the
MIN and MAX rules.  Deleting code must
not leave dead code behind: no module imports a name it never uses, and
every module-level private function or constant is referenced in the
package.  Importing the CLI builds none of the serializer's lazy tables or
templates.  Every Python file parses at the declared floor, Python 3.10,
and the CI workflow's floor row installs the floors ``pyproject.toml``
declares, whose console script is the CLI's ``main``.

The package namespace loads on first use: ``import prospector_eval`` loads
no submodule and no numpy, an ``oracle`` query loads neither the study
harness, the samplers nor the serializer (nor, on a built-in case, the JSON
parser), and ``generate`` does not load the study harness.  Every name the
package exported when it imported all of its submodules up front still
resolves, to the same object.
"""

import ast
import dataclasses
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import prospector_eval
from prospector_eval import GenerationConfig, generate, save_networks

PACKAGE = Path(prospector_eval.__file__).resolve().parent
SRC = PACKAGE.parent
ROOT = Path(__file__).resolve().parent.parent
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}


def run_fresh(code: str, *args) -> list[str]:
    """stdout lines of ``code`` run in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    return child.stdout.splitlines()


CHILD = """
import sys
from prospector_eval import StudyConfig, run_study
from prospector_eval.cli import main

for kind in ("independent", "associated"):
    code = main(["generate", "--kind", kind, "--count", "5", "--seed", "3", "--out", sys.argv[1]])
    assert code == 0, code
run_study(StudyConfig.default(count=20))
print(" ".join(sorted(name for name in sys.modules if name.startswith("numpy.random"))))
"""


def test_generate_and_run_study_leave_numpy_random_unimported(tmp_path):
    assert run_fresh(CHILD, tmp_path / "networks.json")[-1] == ""


COLD_START = """
import sys
from inspect import CO_OPTIMIZED  # set on functions, not on module or class bodies
called = set()

def record(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename == sys.argv[1] and code.co_flags & CO_OPTIMIZED:
        called.add(code.co_name)

sys.setprofile(record)
import prospector_eval.cli
sys.setprofile(None)
print(*sorted(called))
"""


def test_importing_the_cli_builds_no_serializer_tables_or_templates():
    """Every CLI query is a cold start: importing runs no function of
    ``_serialize``."""
    assert run_fresh(COLD_START, PACKAGE / "_serialize.py") == [""]


LOADED = """
import sys
prefixes = ("prospector_eval.", "numpy", "json")
print(*sorted(name for name in sys.modules if name.startswith(prefixes)))
"""


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    assert run_fresh("import prospector_eval" + LOADED) == [""]


ORACLE = """
import sys
from prospector_eval.cli import main
assert main(sys.argv[1:]) == 0
""" + LOADED


@pytest.mark.parametrize("by_file", [False, True])
def test_an_oracle_query_loads_no_study_sampler_or_serializer(tmp_path, by_file):
    path = tmp_path / "networks.json"
    save_networks(generate(GenerationConfig(count=3, seed=5, kind="associated")), path)
    select = ["--networks", path, "--index", "2"] if by_file else ["--case", "1"]
    posterior, loaded = run_fresh(ORACLE, "oracle", *select, "--e1", "0.3", "--e2", "0.9")
    loaded = set(loaded.split())
    assert float(posterior) > 0 and {"prospector_eval.oracle", "numpy"} <= loaded
    assert not loaded & {f"prospector_eval.{name}" for name in ("study", "samplers", "_serialize")}
    # Only the network file is JSON: a built-in case loads no JSON parser.
    assert ("json" in loaded) is by_file


GENERATE = """
import sys
from prospector_eval.cli import main
assert main(["generate", "--kind", "associated", "--count", "3", "--out", sys.argv[1]]) == 0
""" + LOADED


def test_generating_networks_loads_no_study(tmp_path):
    """``generate`` without ``--seed`` takes the default seed from the
    sampler's module, so the study harness stays unloaded."""
    *_, loaded = run_fresh(GENERATE, tmp_path / "networks.json")
    assert {"prospector_eval.samplers", "prospector_eval.table"} <= set(loaded.split())
    assert "prospector_eval.study" not in loaded.split()


#: The package's public names, as module.name, each importable from the
#: package itself.
PUBLIC = [
    "cases.case_study_table",
    "cases.independent_table_from_profile",
    "cases.solve_link_constraints",
    "engine.InferenceTrace",
    "engine.LinkParams",
    "engine.Rule",
    "engine.combine_independent",
    "engine.infer",
    "engine.propagate",
    "errors.DegenerateBaseRateError",
    "errors.EmptyEvidenceError",
    "errors.GenerationError",
    "errors.InfeasibleConstraintsError",
    "errors.InfeasibleUpdateError",
    "errors.InvalidTableError",
    "errors.NotIndependentError",
    "errors.ProspectorEvalError",
    "errors.ZeroMarginalError",
    "oracle.EvidenceUpdate",
    "oracle.UpdatedTable",
    "oracle.correct_posterior",
    "oracle.independent_closed_form",
    "oracle.mce_update",
    "samplers.GenerationConfig",
    "samplers.generate",
    "samplers.generate_associated",
    "samplers.generate_independent",
    "study.DEFAULT_SEED",
    "study.DEFAULT_UPDATE_GRID",
    "study.GRID_FIFTH_VALUES",
    "study.GRID_QUARTERS",
    "study.Diagnostics",
    "study.EvaluationRecord",
    "study.Evaluations",
    "study.MonotonicityPattern",
    "study.NetworkErrorSummary",
    "study.NetworkEvaluation",
    "study.StudyConfig",
    "study.StudyReport",
    "study.diagnostics",
    "study.error_surface",
    "study.evaluate_network",
    "study.evaluate_tables",
    "study.monotonicity_pattern",
    "study.run_study",
    "study.summarize",
    "table.JointTable",
    "table.NetworkView",
    "table.Provenance",
    "table.compose_table",
    "table.conditional_profile",
    "table.load_networks",
    "table.network_view",
    "table.save_networks",
    "table.validate",
]


@pytest.mark.parametrize("qualified", PUBLIC)
def test_each_public_name_is_its_submodule_object(qualified):
    module, name = qualified.split(".")
    value = getattr(importlib.import_module(f"prospector_eval.{module}"), name)
    assert getattr(prospector_eval, name) is value
    assert name in dir(prospector_eval)
    assert name in prospector_eval.__all__


def test_all_is_the_public_names_and_the_version():
    names = [qualified.split(".")[1] for qualified in PUBLIC]
    assert len(PUBLIC) == 55
    assert sorted(prospector_eval.__all__) == sorted([*names, "__version__"])
    star = {}
    exec("from prospector_eval import *", star)
    assert all(star[name] is getattr(prospector_eval, name) for name in names)
    assert star["__version__"] == prospector_eval.__version__


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'prospector_eval' has no attribute 'nope'$"):
        prospector_eval.nope
    assert not hasattr(prospector_eval, "nope")


FIRST_USE = """
import sys
import prospector_eval
if sys.argv[1:]:
    print(prospector_eval.study.__name__)
import prospector_eval.samplers as samplers
from prospector_eval import generate
print(type(samplers).__name__, samplers.GenerationConfig.__module__)
print(type(generate).__name__, generate.__module__, generate.__name__)
"""


def test_submodules_and_public_names_do_not_collide():
    """A submodule is an attribute on first use, and no submodule shares a
    public name: ``import prospector_eval.samplers`` gives the module
    whether or not the study loaded it first, and the package's
    ``generate`` stays the function."""
    names = ["module prospector_eval.samplers", "function prospector_eval.samplers generate"]
    assert run_fresh(FIRST_USE, "study") == ["prospector_eval.study", *names]
    assert run_fresh(FIRST_USE) == names
    assert not set(prospector_eval._EXPORTS) & set(prospector_eval.__all__)


@pytest.mark.parametrize("module", ["study", "oracle", "samplers", "cases", "engine"])
def test_only_table_holds_the_cell_layout(module):
    """No other module holds the cell masks or index pairs, or reshapes
    cells into the (E1, E2, C) cube (``table.margin_halves`` does)."""
    names = vars(importlib.import_module(f"prospector_eval.{module}"))
    assert not {"MASK_E1", "MASK_E2", "MASK_C", "PAIR_CELLS"} & names.keys()
    tree = TREES[f"{module}.py"]
    calls = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Call)]
    assert not [call for call in calls if ".reshape(2, 2, 2" in call]


def bound_from(tree: ast.AST, function: str) -> set[str]:
    """Every name ``tree`` binds to the result of a ``function(...)`` call, by
    ``=`` (a tuple target element for element) or by ``:=``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.NamedExpr)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                pairs = [(target, node.value)]
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = list(zip(target.elts, node.value.elts))
                for name, value in pairs:
                    if f"{function}(" in ast.unparse(value):
                        names |= {n.id for n in ast.walk(name) if isinstance(n, ast.Name)}
    return names


def test_only_table_computes_the_profile_and_refuses_a_base_rate():
    """Only ``table`` divides by pair masses or constructs
    DegenerateBaseRateError, and the oracle reads no conclusion cells.  A
    division counts when ``/`` has a ``conclusion_cells(...)`` call on its
    left, or a ``pair_masses(...)`` call, or a name bound from one, on its
    right; ``np.divide`` is not inspected (``mce_update`` scales its pairs by
    weights / pairs that way).  ``conditional_profile``'s one-state loop
    divides by a mass it adds itself; ``tests/test_table.py`` pins it to
    ``conditional_profiles`` bit for bit."""
    profile_divisions = []
    for module, tree in TREES.items():
        masses = bound_from(tree, "pair_masses")
        for node in ast.walk(tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
                continue
            right = {n.id for n in ast.walk(node.right) if isinstance(n, ast.Name)}
            if (
                "conclusion_cells(" in ast.unparse(node.left)
                or "pair_masses(" in ast.unparse(node.right)
                or right & masses
            ):
                profile_divisions.append((module, ast.unparse(node)))
    assert profile_divisions == [("table.py", "conclusion_cells(cells) / pairs")]
    assert "conclusion_cells" not in loaded_names(TREES["oracle.py"])
    refusals = [
        module
        for module, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "DegenerateBaseRateError"
    ]
    assert refusals == ["table.py"]


def names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_only_engine_writes_the_rule_arithmetic():
    """``engine`` writes each rule's arithmetic once, as the array functions
    the sweep imports: the link with its [0, 1] clamp, the odds with the
    ODDS_CLAMP clamp, and the odds product.  No other module names
    ODDS_CLAMP, divides what holds x by ``1.0 - x`` (the odds, and the
    link's upper branch) or does arithmetic on a name holding ``odds``."""
    engine = importlib.import_module("prospector_eval.engine")
    study = importlib.import_module("prospector_eval.study")
    for name in ("linear_link", "odds", "odds_product", "takes_e1"):
        assert getattr(study, name) is getattr(engine, name)
    writers = []
    for module, tree in TREES.items():
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        if "ODDS_CLAMP" in loaded_names(tree) | imported:
            writers.append((module, "ODDS_CLAMP"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.BinOp):
                continue
            right = node.right
            one_minus = (
                isinstance(right, ast.BinOp)
                and isinstance(right.op, ast.Sub)
                and ast.unparse(right.left) == "1.0"
            )
            if any("odds" in name for name in names_in(node)) or (
                isinstance(node.op, ast.Div)
                and one_minus
                and names_in(right.right) <= names_in(node.left)
            ):
                writers.append((module, ast.unparse(node)))
    assert {module for module, _ in writers} == {"engine.py"}
    assert {text for _, text in writers} >= {
        "ODDS_CLAMP",
        "p / (1.0 - p)",
        "(p_c_given_e - p_c) * (u - p_e) / (1.0 - p_e)",
    }


def string_constants(tree: ast.AST) -> list[str]:
    """Every string constant in ``tree`` that is not a bare string statement
    (a docstring), f-string parts included."""
    docs = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs
    ]


def test_only_engine_spells_a_rule_name():
    """The output files and the class table name the rules from
    ``RULE_ORDER``, so no module but ``engine`` holds a string naming the
    MIN or MAX rule.  (``independent`` also names a class of networks.)"""
    spelled = [
        (module, text)
        for module, tree in TREES.items()
        for text in string_constants(tree)
        if "conjunctive" in text or "disjunctive" in text
    ]
    assert {module for module, _ in spelled} == {"engine.py"}


def test_the_study_compares_no_update_with_another():
    """The MIN/MAX choice is ``engine.takes_e1``: the sweep compares no
    update u1 with u2.  (The oracle compares them to pick the frame of its
    small-cell solve, which is no rule decision.)"""
    updates = {"u1", "u2"}
    comparisons = [
        ast.unparse(node)
        for node in ast.walk(TREES["study.py"])
        if isinstance(node, ast.Compare)
        and all(names_in(side) & updates for side in (node.left, *node.comparators))
    ]
    assert comparisons == []


def test_only_table_decodes_the_batch_rows_and_kind_codes():
    """``NetworkBatch`` maps kind codes to names and holds the study's kept
    rows: the CLI does not import ``KINDS``, the study neither indexes it
    nor looks a kind up in it, and ``Evaluations`` keeps no batch column or
    filter flag of its own."""
    cli_imports = {
        alias.name
        for node in ast.walk(TREES["cli.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "KINDS" not in cli_imports
    decoded = [
        ast.unparse(node)
        for node in ast.walk(TREES["study.py"])
        if isinstance(node, (ast.Subscript, ast.Attribute))
        and isinstance(node.value, ast.Name)
        and node.value.id == "KINDS"
    ]
    assert decoded == []
    study = importlib.import_module("prospector_eval.study")
    columns = {field.name for field in dataclasses.fields(study.Evaluations)}
    assert not {"kinds", "cells", "provenance", "passes_filter"} & columns


def loaded_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert sorted(imported - loaded_names(tree)) == []


def test_every_private_definition_is_referenced():
    defined = set()
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [
                    name.id
                    for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name)
                ]
            else:
                continue
            defined |= {
                (module, name)
                for name in targets
                if name.startswith("_") and not name.startswith("__")
            }
    used = set().union(*map(loaded_names, TREES.values()))
    assert sorted(name for name in defined if name[1] not in used) == []


def test_every_python_file_parses_at_the_declared_floor():
    """``requires-python`` is 3.10, so no file under src/, tests/ or bench/
    may use syntax added after it."""
    files = sorted(path for top in ("src", "tests", "bench") for path in (ROOT / top).rglob("*.py"))
    assert Path(__file__).resolve() in files
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_workflow_floor_row_matches_the_declared_floors():
    """The CI row that tests at the floors installs the Python and numpy
    versions ``pyproject.toml`` declares, and no row goes below them."""
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    python = re.search(r'^requires-python = ">=(\d+\.\d+)"$', project, re.M).group(1)
    numpy = re.search(r'^    "numpy>=(\d+\.\d+)",$', project, re.M).group(1)
    rows = re.findall(r'- python: "(\d+\.\d+)"\n\s+numpy: "([^"]+)"', workflow)
    assert (python, numpy) == ("3.10", "1.24")
    assert (python, f"numpy=={numpy}.*") in rows
    versions = [tuple(map(int, row_python.split("."))) for row_python, _ in rows]
    assert min(versions) == (3, 10)


def test_the_console_script_is_the_cli_main():
    """The ``prospector-eval`` script ``pyproject.toml`` declares resolves
    to ``cli.main``; the CI workflow installs the package and runs it."""
    from prospector_eval.cli import main

    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    module, name = re.search(r'^prospector-eval = "([\w.]+):(\w+)"$', project, re.M).groups()
    assert getattr(importlib.import_module(module), name) is main
