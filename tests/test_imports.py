"""Import hygiene.

The package draws its random streams with its own array PCG64, so neither
generating networks nor running a study may load ``numpy.random`` (about
10 ms of cold start for ``prospector-eval generate``); that is checked in a
fresh interpreter.  Only ``table`` decodes the eight-cell layout, so no
other module imports its masks or cell-index pairs.  Deleting code must not
leave dead code behind: no module imports a name it never uses, and every
module-level private function or constant is referenced in the package.
Importing the CLI builds none of the serializer's lazy tables or templates.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import prospector_eval

PACKAGE = Path(prospector_eval.__file__).resolve().parent
SRC = PACKAGE.parent
TREES = {
    path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for path in sorted(PACKAGE.glob("*.py"))
}

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
    child = subprocess.run(
        [sys.executable, "-c", CHILD, str(tmp_path / "networks.json")],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    assert child.stdout.splitlines()[-1] == ""


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
from prospector_eval import _serialize
print(_serialize._tables.cache_info().currsize, *sorted(called))
"""


def test_importing_the_cli_builds_no_serializer_tables_or_templates():
    """Every CLI query is a cold start: importing runs no function of
    ``_serialize``."""
    child = subprocess.run(
        [sys.executable, "-c", COLD_START, str(PACKAGE / "_serialize.py")],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC)},
    )
    assert child.stdout.split() == ["0"]


@pytest.mark.parametrize("module", ["study", "oracle", "generate", "cases", "engine"])
def test_only_table_holds_the_cell_layout(module):
    names = vars(importlib.import_module(f"prospector_eval.{module}"))
    assert not {"MASK_E1", "MASK_E2", "MASK_C", "PAIR_CELLS"} & names.keys()


def loaded_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("module", sorted(set(TREES) - {"__init__.py"}))
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
