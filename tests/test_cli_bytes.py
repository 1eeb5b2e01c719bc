"""The CLI's bytes, pinned.

A fixed sequence of ``main(argv)`` invocations runs in one temporary
directory with relative paths, so later commands read the files earlier
ones wrote.  Each invocation is pinned by one SHA-256 over its exit code,
its stdout, its stderr and every file it wrote or changed.  A refactor that
is meant to keep the CLI's output must leave every digest as it is.

argparse wraps its usage text to the terminal width, so the width is fixed
at 80 columns; the usage lines are the running Python's argparse format.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from prospector_eval import case_study_table
from prospector_eval.cli import main

#: Hand-written network files the invocations read, besides generated ones.
INPUTS = {
    # Both case studies without provenance, one with a provenance past 64
    # bits, and a profile the monotonicity screen rejects.
    "cases.json": json.dumps(
        {
            "networks": [
                {"kind": "unspecified", "cells": list(case_study_table(1).cells)},
                {
                    "kind": "unspecified",
                    "provenance": {"seed": 2**70, "index": 3, "resamples": 1},
                    "cells": list(case_study_table(2).cells),
                },
                {
                    "kind": "associated",
                    "provenance": {"seed": 5, "index": 0},
                    "cells": [0.025, 0.225, 0.225, 0.025, 0.225, 0.025, 0.025, 0.225],
                },
            ]
        }
    ),
    # No mass on E1 = true: invalid for a sweep, and an update to E1 = 1
    # has no support.
    "degenerate.json": '{"networks": [{"cells": [0.3, 0.3, 0.2, 0.2, 0.0, 0.0, 0.0, 0.0]}]}',
    # Valid and monotone, but P(C) = 0.
    "never-c.json": '{"networks": [{"cells": [0.25, 0.0, 0.25, 0.0, 0.25, 0.0, 0.25, 0.0]}]}',
    "malformed.json": '{"networks": [{"cells": [0.125, 0.125]',
}

GRID_FIFTHS = "0,0.2,0.5,0.8,1"

#: (label, argv, digest), run in this order.
INVOCATIONS = [
    ("generate-associated", "generate --kind associated --count 40 --seed 30 --out assoc.json",
     "0034b41cc897f419705a41487b45e6ea650a44ea58e945c7938ecf5cabbde447"),
    ("generate-independent", "generate --kind independent --count 40 --seed 30 --out indep.json",
     "c3abc0d79dd3f2eee3f861692804768e379b76109217f3678f0a2a049aa3cfe3"),
    ("generate-default-seed", "generate --kind associated --count 3 --out default.json",
     "a1b65f9e2efb2b3416256951d5f60640044867423ef75fd29cb8b5808d597135"),
    ("evaluate", "evaluate --networks assoc.json --out assoc.csv",
     "f6db31c1cab44fdd4f927cc20285023c4833f47d4ffda1ef5a6f21dc037b92ed"),
    ("evaluate-no-filter", "evaluate --networks indep.json --no-filter --out indep.csv",
     "59afa565884a7ed20783d0227ea5a37f399cf260fe11043963ba79d61a5c10a5"),
    ("evaluate-e2-only-fifths",
     f"evaluate --networks assoc.json --filter-mode e2-only --grid {GRID_FIFTHS} --out e2.csv",
     "1ef508fb04d29692e22f8bd3787fc3e9f36e6eaaf368144ba103998ac0272a66"),
    ("evaluate-cases-signed-zero", "evaluate --networks cases.json --grid=-0,1 --out cases.csv",
     "3a039fbfb4a9de8a4b392978c9a8c1551e626b168f25d4c95de9b7bd0204a6b0"),
    ("report", "report --networks assoc.json --out assoc-report.json",
     "f559575850e84db0979ad62df44bb79ee804cdd6568c24c3a975a572ba6c3822"),
    ("report-independent", "report --networks indep.json --out indep-report.json",
     "7b9d4f91833a0b7bc88bf725e1969cce072e8d9fbac03c8d21b49dfe56296b5c"),
    ("report-e2-only-fifths",
     f"report --networks assoc.json --filter-mode e2-only --grid {GRID_FIFTHS} --out e2.json",
     "0689937c273747b1038d64ec2ea53b10a1327e5b9e88a31a26100f7e1265f328"),
    ("report-no-filter-workers",
     "report --networks indep.json --no-filter --workers 2 --out indep-all.json",
     "c94ae192f1e4bccd0e3743d62f775d6566e1e18367178508c8db2aaab9667793"),
    ("report-cases", "report --networks cases.json --out cases-report.json",
     "e01301209c9a453667cc2c6c261759c7dc20ed53a7a9cc5affa73a51b16a7aae"),
    ("report-cases-no-filter", "report --networks cases.json --no-filter --out cases-all.json",
     "f17eedcd8cbf0a556767b7ca6ae83cde3192b58d4f77593de7855636d4a6702e"),
    ("case-study-1", "case-study --id 1 --out case1.csv",
     "156c081b39cf3fcafdd238c407e85668e822ca8dda443a348e2c647e39edc875"),
    ("case-study-2-grid", "case-study --id 2 --step 0.1 --grid 0,0.5,1 --out case2.csv",
     "8d4dabcb2f24fa4c9eb543847f7f2758c56aaa23bd4ce7c0bc491874a0261ae5"),
    ("oracle-case", "oracle --case 1 --e1 1 --e2 0",
     "26610724164fa9ad2b8b3a02a9da68d02aafd0f1f91d7d46f62be2579c500973"),
    ("oracle-networks", "oracle --networks assoc.json --index 3 --e1 0.3 --e2 0.9",
     "be90969a15aedb75aae204e58cde2f2107c35068d48672534d4021b82a21d215"),
    ("surface-case", "surface --case 2 --rule conjunctive --step 0.25 --out surface2.csv",
     "58df836050ce27a8789644c2ff1183de5135dfd9ac2d2e0a99b4654ae14e2bfd"),
    ("surface-networks",
     "surface --networks assoc.json --index 1 --rule disjunctive --step 0.1 --out surface.csv",
     "134810789ad1c0f0651d43095d19a4c88b0ed57655589d9e5728bd14f8a57b7d"),
    # Refusals.
    ("missing-file", "evaluate --networks missing.json --out x.csv",
     "ab4b8151655e8bb32ab9081a913532b2f93377591dbc1ac40d1f9fff7991fef6"),
    ("malformed-file", "report --networks malformed.json --out x.json",
     "1655df274ab19007b3f8faa74640b57465db26d60a95c02c2f5c2692d7cb6208"),
    ("index-out-of-range", "oracle --networks assoc.json --index 40 --e1 0.5 --e2 0.5",
     "a611fbfbc101d19c73e99e3fe296984b5960360e675b31795e8e7dbc74766e9b"),
    ("grid-outside", "evaluate --networks assoc.json --grid 0,1.5 --out x.csv",
     "fb924efa4aeaf6c26d17a0c0f185374e4b886d344d73b23af6301fb55ad77480"),
    ("grid-words", "report --networks assoc.json --grid a,b --out x.json",
     "a22c30be2fb9689b416103929b84480d99aec8f624eaebdf86a87d1110116d6b"),
    ("invalid-table", "evaluate --networks degenerate.json --out x.csv",
     "11a373ce2a41659062a4ade8bd326a8f314be15b30f05855032212de513225a8"),
    ("degenerate-prior", "report --networks never-c.json --out x.json",
     "b68cdbed1cb7bb6d2bd61af0cb080770abbd511a89532507f4ea79f1dd5dcd6c"),
    ("unreachable-update", "oracle --networks degenerate.json --e1 1 --e2 0.5",
     "ba243bb11123849bc9be0841414c4b4e9c28fe665631526951ddcc890c977909"),
    ("bad-step", "surface --case 1 --rule independent --step 0.7 --out x.csv",
     "fb0e5e06a0a74f7f3cb08b42cd46e4ad39cf08745d12daa10469bbea45ad372b"),
    ("count-zero", "generate --kind independent --count 0 --out x.json",
     "6b35ddd79696fd8ad0c78703d3d621882e377eb0327352bd001dc1fb612a0a82"),
]


def snapshot(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def digest(code, out: str, err: str, written: dict[str, bytes]) -> str:
    record = hashlib.sha256()
    for part in (str(code).encode(), out.encode(), err.encode()):
        record.update(len(part).to_bytes(8, "big") + part)
    for name, content in sorted(written.items()):
        for part in (name.encode(), content):
            record.update(len(part).to_bytes(8, "big") + part)
    return record.hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory) -> dict[str, str]:
    """Each invocation's digest, from one run of the whole sequence."""
    directory = tmp_path_factory.mktemp("cli-bytes")
    for name, text in INPUTS.items():
        (directory / name).write_text(text, encoding="utf-8")
    found = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        patch.setenv("COLUMNS", "80")
        for label, argv, _ in INVOCATIONS:
            before = snapshot(directory)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv.split())
                except SystemExit as exc:
                    code = exc.code
            after = snapshot(directory)
            written = {name: data for name, data in after.items() if before.get(name) != data}
            found[label] = digest(code, out.getvalue(), err.getvalue(), written)
    return found


def test_the_sequence_covers_every_subcommand():
    commands = {argv.split()[0] for _, argv, _ in INVOCATIONS}
    assert commands == {"generate", "evaluate", "report", "case-study", "oracle", "surface"}
    assert len({label for label, _, _ in INVOCATIONS}) == len(INVOCATIONS)


@pytest.mark.parametrize("label, expected", [(label, d) for label, _, d in INVOCATIONS])
def test_sha256_of_each_invocation(digests, label, expected):
    assert digests[label] == expected
