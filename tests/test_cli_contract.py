"""The CLI's contract with whatever it is given.

Every input ends in a result (exit 0) or in one error line (exit 2 for
unusable input, 1 for a runtime failure), never in a traceback, and no file
written on success holds a non-finite number.  A hypothesis fuzz checks that
on every subcommand, with flag values drawn from valid, boundary and garbage
text and with network files mutated from a valid one.  Two more tests run
the README's CLI block as written, and run the commands that echo ``--out``
in a child process whose stdout is strict UTF-8, with a name that is not.
"""

import argparse
import contextlib
import copy
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prospector_eval import case_study_table, generate
from prospector_eval.cli import build_parser, main
from prospector_eval.samplers import GenerationConfig
from prospector_eval.table import NetworkBatch

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

NON_FINITE = re.compile(rb"\b-?(nan|inf|infinity)\b", re.IGNORECASE)

#: A valid three-network file: both case studies and one associated draw.
VALID_DOCUMENT = json.loads(
    NetworkBatch.of(
        [
            case_study_table(1),
            case_study_table(2),
            *generate(GenerationConfig(count=1, seed=5, kind="associated")),
        ]
    ).to_json()
)

NETWORKS = "networks.json"

#: Garbage any flag may be given, besides random text.
GARBAGE = (
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "", " ", "1e400", "-1e400",
    "18446744073709551616", "-18446744073709551617", "-1", "-0", "0", "1", "3", "0x10",
    "1_0", "é", "☃", "--", "1,2", "0.5,nan", "9" * 40,
)

#: What an OS argv can carry: any bytes but NUL, decoded as the interpreter
#: decodes argv (undecodable bytes become lone surrogates).
argv_text = st.binary(max_size=8).filter(lambda b: b"\0" not in b).map(os.fsdecode)

garbage = st.sampled_from(GARBAGE) | argv_text


def texts(*values):
    return st.sampled_from([str(v) for v in values])


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from([10**400, 2**64, -1, 0, 1, 8])
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=9)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=10,
)


def slots(node):
    """Every (container, key) place in a JSON tree, in document order."""
    found = []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        found.append((node, key))
        if isinstance(value, (dict, list)):
            found.extend(slots(value))
    return found


def dicts(node):
    """Every object in a JSON tree, in document order."""
    if isinstance(node, dict):
        return [node, *(found for value in node.values() for found in dicts(value))]
    if isinstance(node, list):
        return [found for value in node for found in dicts(value)]
    return []


def one_in(draw, n):
    """True one time in ``n``; shrinks to False."""
    return draw(st.integers(1, n)) == n


@st.composite
def network_files(draw):
    """The bytes of a network file: half the time the valid file, else
    none at all, or the valid file with up to three tree mutations, then
    maybe truncated or given bytes that are not UTF-8."""
    if draw(st.booleans()):
        return json.dumps(VALID_DOCUMENT).encode("utf-8")
    if one_in(draw, 10):
        return None
    document = copy.deepcopy(VALID_DOCUMENT)
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "add", "swap", "nonfinite", "nest"]))
        if op in ("drop", "add"):
            target = draw(st.sampled_from(dicts(document)))
            if op == "add":
                keys = ["extra", "kind", "cells", "networks", "provenance", ""]
                target[draw(st.sampled_from(keys))] = draw(json_values)
            elif target:
                del target[draw(st.sampled_from(sorted(target)))]
            continue
        places = slots(document)
        if not places:
            break
        container, key = draw(st.sampled_from(places))
        if op == "swap":
            container[key] = draw(json_values)
        elif op == "nonfinite":
            container[key] = draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
        else:
            for _ in range(draw(st.integers(1, 40))):
                container[key] = [container[key]] if draw(st.booleans()) else {"x": container[key]}
    content = json.dumps(document).encode("utf-8")
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(content)))
        if draw(st.booleans()):
            content = content[:cut]
        else:
            junk = [b"\xff", b"\xfe\xff", b"\xc3", b"\x80\x80", b"\xed\xa0\x80"]
            content = content[:cut] + draw(st.sampled_from(junk)) + content[cut:]
    return content


#: Each flag's strategy for its ordinary values (None for a flag that takes
#: no value).  Ordinary values include boundary ones: a seed of 2**64 - 1,
#: a step of 0.5, an update of 1.
GRIDS = st.lists(texts(0, 0.25, 0.5, 1, 0.3, 1e-9, ""), min_size=1, max_size=3).map(",".join)
NETWORK_FLAGS = {"--networks": st.just(NETWORKS), "--index": texts(0, 1, 2)}
SWEEP_FLAGS = {
    "--networks": st.just(NETWORKS),
    # A fresh name, a name that is not UTF-8, the network file itself, a
    # directory and a name in a missing directory.
    "--out": st.sampled_from(["out.txt", os.fsdecode(b"\xfe.out"), NETWORKS, ".", "missing/x"]),
    "--grid": GRIDS,
    "--filter": None,
    "--no-filter": None,
    "--filter-mode": texts("full", "e2-only"),
    "--workers": texts(1, 2, 0, -3, 2**64),
}
COMMANDS = {
    "generate": {
        "--kind": texts("independent", "associated"),
        "--count": texts(1, 3, 5),
        "--seed": texts(0, 30, 2**64 - 1),
        "--out": SWEEP_FLAGS["--out"],
    },
    "evaluate": SWEEP_FLAGS,
    "report": SWEEP_FLAGS,
    "case-study": {
        "--id": texts(1, 2),
        "--out": SWEEP_FLAGS["--out"],
        "--step": texts(0.05, 0.1, 0.25, 0.5),
        "--grid": GRIDS,
    },
    "oracle": {"--e1": texts(0, 0.3, 1), "--e2": texts(0, 0.6, 1)},
    "surface": {
        "--rule": texts("conjunctive", "disjunctive", "independent"),
        "--step": texts(0.05, 0.1, 0.25, 0.5),
        "--out": SWEEP_FLAGS["--out"],
    },
}
REQUIRED = {"--kind", "--out", "--networks", "--id", "--e1", "--e2", "--rule"}
#: The garbage of flags that random text could ask for much work: a count
#: of billions, or a step of 1e-300.  A large --grid is kept out by
#: a limit of three values.
BOUNDED_GARBAGE = {
    "--count": texts(0, -1, 2**64, 2**32 + 1, "nan", "", 2.5, "é"),
    "--step": texts(0.7, 0, -0.1, "nan", "inf", 1e-12, 1e-320, "", "x"),
    "--grid": garbage.filter(lambda text: text.count(",") <= 2),
}


def test_flag_table_is_the_parser():
    """Every flag of every subcommand is fuzzed, and every fuzzed flag
    exists: --case, --networks and --index come from ``invocations``."""
    (subparsers,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert set(subparsers.choices) == set(COMMANDS)
    for command, sub in subparsers.choices.items():
        options = {
            option
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        expected = set(COMMANDS[command])
        if command in ("oracle", "surface"):
            expected |= {"--case", *NETWORK_FLAGS}
        assert options == expected, command


@st.composite
def invocations(draw):
    """An argv for ``main`` and the bytes of the network file it may read
    (None: there is none).  Half the argvs are clean: each required flag
    present with an ordinary value, each optional one given or not.  The
    rest leave out any flag a fifth of the time, give garbage a quarter of
    the time, and may name both or neither of --case and --networks."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    noisy = draw(st.booleans())
    specs = dict(COMMANDS[command])
    if command in ("oracle", "surface"):
        case = {"--case": texts(1, 2)}
        choice = draw(st.integers(0, 2 if noisy else 1))
        specs = {**(case, NETWORK_FLAGS, {**case, **NETWORK_FLAGS})[choice], **specs}
    argv = [command]
    for name, spec in specs.items():
        # --count is always given: its default, 400 networks, is more work
        # than an example needs.
        if name != "--count" and (noisy or name not in REQUIRED):
            if one_in(draw, 5 if noisy else 2):
                continue
        argv.append(name)
        if spec is not None:
            if noisy and one_in(draw, 4):
                argv.append(draw(BOUNDED_GARBAGE.get(name, garbage)))
            else:
                argv.append(draw(spec))
    return argv, draw(network_files())


def snapshot(directory):
    return {path: path.read_bytes() for path in Path(directory).rglob("*") if path.is_file()}


def run_in(directory, argv):
    """``main(argv)`` run in ``directory``, with a strict UTF-8 stdout and a
    stderr that escapes what UTF-8 cannot encode, as Python's own are under
    a UTF-8 locale: (exit code, stdout, stderr)."""
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    stdout.flush()
    stderr.flush()
    return code, stdout.buffer.getvalue().decode(), stderr.buffer.getvalue().decode()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocation=invocations())
def test_every_input_ends_in_a_result_or_one_error_line(invocation):
    argv, network_file = invocation
    with tempfile.TemporaryDirectory() as directory:
        if network_file is not None:
            (Path(directory) / NETWORKS).write_bytes(network_file)
        before = snapshot(directory)
        code, _, err = run_in(directory, argv)
        assert code in (0, 1, 2), (code, err)
        if code:
            assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
        else:
            for path, content in snapshot(directory).items():
                if before.get(path) != content:
                    assert not NON_FINITE.search(content), (path, content[:200])


def readme_commands():
    """The ``prospector-eval`` lines of the README's CLI block, as argv."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("prospector-eval ")]
    return [shlex.split(line)[1:] for line in lines]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {
        "generate", "evaluate", "report", "case-study", "oracle", "surface"
    }
    for argv in commands:
        assert main(argv) == 0, argv
        if "--out" in argv:
            assert (tmp_path / argv[argv.index("--out") + 1]).is_file(), argv


def test_out_names_that_are_not_utf8_are_echoed_on_a_strict_stdout(tmp_path):
    name = os.fsdecode(b"\xfe")
    env = {"PYTHONPATH": str(SRC), "PYTHONIOENCODING": "utf-8:strict"}
    for argv in (
        ["generate", "--kind", "independent", "--count", "2", "--out", f"{name}.json"],
        ["surface", "--case", "2", "--rule", "independent", "--step", "0.5",
         "--out", f"{name}.csv"],
    ):
        child = subprocess.run(
            [sys.executable, "-m", "prospector_eval.cli", *argv],
            capture_output=True,
            cwd=tmp_path,
            env=env,
        )
        assert child.returncode == 0, child.stderr
        assert b"Traceback" not in child.stderr
        assert (tmp_path / argv[-1]).is_file()
        assert child.stdout.endswith(b" to \\xfe" + argv[-1][1:].encode() + b"\n")
