"""Import hygiene.

The package draws its random streams with its own array PCG64, so neither
generating networks nor running a study may load ``numpy.random`` (about
10 ms of cold start for ``prospector-eval generate``); that is checked in a
fresh interpreter.  Only ``table`` decodes the eight-cell layout, so no
other module imports its masks or cell-index pairs.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import prospector_eval

SRC = Path(prospector_eval.__file__).resolve().parent.parent

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


@pytest.mark.parametrize("module", ["study", "oracle", "generate", "cases", "engine"])
def test_only_table_holds_the_cell_layout(module):
    names = vars(importlib.import_module(f"prospector_eval.{module}"))
    assert not {"MASK_E1", "MASK_E2", "MASK_C", "PAIR_CELLS"} & names.keys()
