"""End-to-end command tests driven through ``main(argv)``.

Everything here runs in-process: stdout/stderr are captured with capsys and
files land in tmp_path, so the suite stays fast and deterministic.
"""

import json
from collections import Counter

import pytest

from prospector_eval import load_networks, samplers, save_networks
from prospector_eval.cli import main
from prospector_eval.table import JointTable, Provenance, compose_table

# Rejected by the monotonicity screen.
NON_MONOTONE = compose_table((0.25, 0.25, 0.25, 0.25), (0.9, 0.1, 0.1, 0.9))
# Valid and monotone, but P(C) = 0.
NEVER_C = compose_table((0.25, 0.25, 0.25, 0.25), (0.0, 0.0, 0.0, 0.0))


def run(*argv):
    return main([str(a) for a in argv])


def make_networks_file(tmp_path, count=6, kind="associated", seed=7):
    path = tmp_path / f"{kind}.json"
    code = run(
        "generate", "--kind", kind, "--count", count, "--seed", seed, "--out", path
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_a_loadable_file(self, tmp_path, capsys):
        path = make_networks_file(tmp_path, count=5)
        out = capsys.readouterr().out
        assert "wrote 5 associated networks" in out
        tables = load_networks(path)
        assert len(tables) == 5
        assert all(t.kind == "associated" for t in tables)

    def test_byte_identical_reruns(self, tmp_path):
        first = make_networks_file(tmp_path, kind="independent", seed=3)
        second = tmp_path / "again.json"
        run("generate", "--kind", "independent", "--count", 6, "--seed", 3, "--out", second)
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_nonpositive_count(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("generate", "--kind", "associated", "--count", 0, "--out", tmp_path / "x.json")
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("message", ["Unable to allocate 7.45 GiB for an array", ""])
    def test_running_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch, message):
        def exhausted(config):
            raise MemoryError(message)

        monkeypatch.setattr(samplers, "network_batch", exhausted)
        out = tmp_path / "x.json"
        assert run("generate", "--kind", "independent", "--count", 10**9, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {message or 'MemoryError'}"]
        assert not out.exists()


class TestEvaluate:
    def test_results_csv_has_one_row_per_grid_point(self, tmp_path, capsys):
        networks = make_networks_file(tmp_path)
        out = tmp_path / "results.csv"
        assert run("evaluate", "--networks", networks, "--no-filter", "--out", out) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0].startswith("network_id,kind,pattern,e1,e2,")
        assert len(lines) == 1 + 6 * 25
        assert "evaluated 6 of 6 networks" in capsys.readouterr().out

    def test_filter_drops_rows(self, tmp_path, capsys):
        networks = make_networks_file(tmp_path)
        out = tmp_path / "results.csv"
        assert run("evaluate", "--networks", networks, "--out", out) == 0
        kept = (len(out.read_text(encoding="utf-8").strip().split("\n")) - 1) // 25
        assert kept < 6  # seed 7 includes non-monotone profiles

    def test_empty_network_file_is_a_usage_error(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"networks": []}\n', encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            run("evaluate", "--networks", empty, "--out", tmp_path / "r.csv")
        assert excinfo.value.code == 2

    def test_missing_network_file_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("evaluate", "--networks", tmp_path / "nope.json", "--out", tmp_path / "r.csv")
        assert excinfo.value.code == 2

    def test_malformed_network_file_is_a_one_line_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"networks": [{"cells": "abcdefgh"}]}\n', encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            run("evaluate", "--networks", bad, "--out", tmp_path / "r.csv")
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        messages = [line for line in err.splitlines() if "error:" in line]
        assert len(messages) == 1
        assert '"cells" must be a list of numbers' in messages[0]

    def test_file_the_filter_empties(self, tmp_path, capsys):
        path = tmp_path / "non-monotone.json"
        save_networks([NON_MONOTONE, NON_MONOTONE], path)
        out = tmp_path / "r.csv"
        assert run("evaluate", "--networks", path, "--out", out) == 0
        assert out.read_text(encoding="utf-8").startswith("network_id,")
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1
        assert "evaluated 0 of 2 networks" in capsys.readouterr().out
        report = tmp_path / "report.json"
        assert run("report", "--networks", path, "--out", report) == 0
        assert json.loads(report.read_text(encoding="utf-8"))["networks"] == []

    def test_degenerate_prior_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "never-c.json"
        save_networks([NEVER_C], path)
        with pytest.raises(SystemExit) as excinfo:
            run("evaluate", "--networks", path, "--out", tmp_path / "r.csv")
        assert excinfo.value.code == 2
        assert "base rate of C" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            run("surface", "--networks", path, "--rule", "independent", "--out", tmp_path / "s.csv")
        assert excinfo.value.code == 2


class TestSweepFlags:
    @pytest.mark.parametrize("command", ["evaluate", "report"])
    def test_negative_zero_grid_writes_the_zero_bytes(self, tmp_path, command):
        networks = make_networks_file(tmp_path)
        written = []
        for name, grid in (("signed", "-0,1"), ("plain", "0,1")):
            out = tmp_path / f"{name}.out"
            assert run(command, "--networks", networks, f"--grid={grid}", "--out", out) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("command", ["evaluate", "case-study"])
    def test_a_grid_of_words_is_a_usage_error(self, tmp_path, capsys, command):
        if command == "evaluate":
            source = ("--networks", make_networks_file(tmp_path))
        else:
            source = ("--id", 1)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            run(command, *source, "--grid", "a,b", "--out", out)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--grid must be a comma-separated list of numbers, got 'a,b'" in err
        assert not out.exists()


class TestReport:
    def test_writes_json_and_prints_class_table(self, tmp_path, capsys):
        networks = make_networks_file(tmp_path)
        out = tmp_path / "report.json"
        assert run("report", "--networks", networks, "--out", out) == 0
        printed = capsys.readouterr().out
        assert "best rule set per network" in printed
        assert f"report written to {out}" in printed
        document = json.loads(out.read_text(encoding="utf-8"))
        assert document["config"]["filter_enabled"] is True
        assert "associated" in document["classes"]

    def test_worker_count_leaves_bytes_unchanged(self, tmp_path):
        networks = make_networks_file(tmp_path)
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        run("report", "--networks", networks, "--workers", 1, "--out", serial)
        run("report", "--networks", networks, "--workers", 2, "--out", parallel)
        assert serial.read_bytes() == parallel.read_bytes()


#: Provenance of a loaded network is any JSON integer: no fixed width.
UNBOUNDED_PROVENANCE = {"seed": 2**70, "index": -3, "resamples": 2**64}


def unbounded_provenance_file(tmp_path, *, cells=None):
    """Six associated networks; the second has UNBOUNDED_PROVENANCE and, if
    given, ``cells``."""
    path = make_networks_file(tmp_path)
    document = json.loads(path.read_text(encoding="utf-8"))
    document["networks"][1]["provenance"] = UNBOUNDED_PROVENANCE
    if cells is not None:
        document["networks"][1]["cells"] = cells
    changed = tmp_path / "unbounded-networks.json"
    changed.write_text(json.dumps(document), encoding="utf-8")
    return path, changed


class TestUnboundedProvenance:
    def test_report_and_evaluate_write_it_unchanged(self, tmp_path):
        original, path = unbounded_provenance_file(tmp_path)
        for source, name in ((original, "original"), (path, "unbounded")):
            for command, suffix in (("report", "json"), ("evaluate", "csv")):
                out = tmp_path / f"{name}.{suffix}"
                assert run(command, "--networks", source, "--no-filter", "--out", out) == 0
        text = (tmp_path / "unbounded.json").read_text(encoding="utf-8")
        assert json.loads(text)["networks"][1]["provenance"] == UNBOUNDED_PROVENANCE
        assert (
            '"provenance": {\n        "seed": 1180591620717411303424,\n        "index": -3,\n'
            '        "resamples": 18446744073709551616\n      },'
        ) in text
        assert (tmp_path / "unbounded.csv").read_bytes() == (tmp_path / "original.csv").read_bytes()

    def test_an_invalid_network_is_named_with_it(self, tmp_path, capsys):
        _, path = unbounded_provenance_file(tmp_path, cells=[0.2] * 8)
        with pytest.raises(SystemExit) as excinfo:
            run("evaluate", "--networks", path, "--out", tmp_path / "r.csv")
        assert excinfo.value.code == 2
        assert (
            "network net-0001 (provenance Provenance(seed=1180591620717411303424, index=-3, "
            "resamples=18446744073709551616)): invalid table: cells sum to 1.6"
        ) in capsys.readouterr().err


class TestCaseStudy:
    def test_benchmark_summary_and_surface(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        assert run("case-study", "--id", 1, "--out", out) == 0
        printed = capsys.readouterr().out
        assert "P(C|ff)=0.1" in printed
        assert "P(C|tt)=0.9" in printed
        assert "independent" in printed
        # Default step .05 gives a 21x21 lattice plus the CSV header.
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert len(lines) == 1 + 21 * 21

    def test_second_benchmark_profile(self, tmp_path, capsys):
        assert run("case-study", "--id", 2, "--out", tmp_path / "s.csv") == 0
        printed = capsys.readouterr().out
        assert "P(C|ff)=0.0311173" in printed
        assert "P(C|tt)=0.95" in printed

    def test_unknown_id_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("case-study", "--id", 3, "--out", tmp_path / "s.csv")
        assert excinfo.value.code == 2


class TestOracle:
    def test_certain_update_on_first_benchmark(self, capsys):
        assert run("oracle", "--case", 1, "--e1", 1, "--e2", 1) == 0
        assert capsys.readouterr().out.strip() == "0.9"

    def test_base_rate_update_returns_the_prior(self, capsys):
        assert run("oracle", "--case", 1, "--e1", 0.5, "--e2", 0.5) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_networks_file_selection(self, tmp_path, capsys):
        networks = make_networks_file(tmp_path)
        capsys.readouterr()  # drain the generate message
        assert run("oracle", "--networks", networks, "--index", 2, "--e1", 0.4, "--e2", 0.6) == 0
        value = float(capsys.readouterr().out)
        assert 0.0 <= value <= 1.0

    def test_out_of_range_update_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run("oracle", "--case", 1, "--e1", 1.5, "--e2", 0.5)
        assert excinfo.value.code == 2

    def test_out_of_range_index_is_a_usage_error(self, tmp_path):
        networks = make_networks_file(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            run("oracle", "--networks", networks, "--index", 99, "--e1", 0.5, "--e2", 0.5)
        assert excinfo.value.code == 2

    def test_infeasible_update_is_a_runtime_error(self, tmp_path, capsys):
        # No mass on E1 = true, so moving E1 to certainty has no support.
        cells = (0.30, 0.30, 0.20, 0.20, 0.0, 0.0, 0.0, 0.0)
        path = tmp_path / "degenerate.json"
        save_networks([JointTable(cells)], path)
        assert run("oracle", "--networks", path, "--e1", 1, "--e2", 0.5) == 1
        assert "error:" in capsys.readouterr().err


class TestIndexSelection:
    @pytest.mark.parametrize("command", ["oracle", "surface"])
    @pytest.mark.parametrize("index", [0, 7, -1])
    def test_index_with_case_is_a_one_line_usage_error(self, tmp_path, capsys, command, index):
        out = tmp_path / "s.csv"
        if command == "oracle":
            argv = ("oracle", "--e1", 0.5, "--e2", 0.5)
        else:
            argv = ("surface", "--rule", "independent", "--out", out)
        with pytest.raises(SystemExit) as excinfo:
            run(*argv, "--case", 1, "--index", index)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        messages = [line for line in captured.err.splitlines() if "error:" in line]
        assert messages == ["prospector-eval: error: --index applies only to --networks"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["oracle", "surface"])
    def test_networks_without_index_reads_the_first(self, tmp_path, capsys, command):
        networks = make_networks_file(tmp_path)
        out = tmp_path / "s.csv"
        if command == "oracle":
            argv = ("oracle", "--e1", 0.4, "--e2", 0.6)
        else:
            argv = ("surface", "--rule", "independent", "--step", 0.5, "--out", out)
        results = []
        for index in ((), ("--index", 0)):
            capsys.readouterr()
            assert run(*argv, "--networks", networks, *index) == 0
            results.append(out.read_bytes() if command == "surface" else capsys.readouterr().out)
        assert results[0] == results[1]


#: Tables the validator rejects: cells summing to 1.2, and a negative cell.
INVALID_TABLES = [
    (0.15,) * 8,
    (0.5, -0.25, 0.25, 0.125, 0.125, 0.125, 0.0625, 0.0625),
]


class TestInvalidTables:
    @pytest.mark.parametrize("cells", INVALID_TABLES, ids=["sum-1.2", "negative-cell"])
    def test_oracle_rejects_an_invalid_table(self, tmp_path, capsys, cells):
        path = tmp_path / "invalid.json"
        save_networks([JointTable(cells)], path)
        with pytest.raises(SystemExit) as excinfo:
            run("oracle", "--networks", path, "--e1", 0.3, "--e2", 0.6)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid table" in captured.err

    @pytest.mark.parametrize("cells", INVALID_TABLES, ids=["sum-1.2", "negative-cell"])
    def test_surface_rejects_an_invalid_table(self, tmp_path, cells):
        path = tmp_path / "invalid.json"
        save_networks([JointTable(cells)], path)
        out = tmp_path / "surface.csv"
        with pytest.raises(SystemExit) as excinfo:
            run("surface", "--networks", path, "--rule", "independent", "--out", out)
        assert excinfo.value.code == 2
        assert not out.exists()


class TestSurface:
    def test_coarse_surface_for_a_benchmark(self, tmp_path, capsys):
        out = tmp_path / "surface.csv"
        code = run(
            "surface", "--case", 1, "--rule", "independent", "--step", 0.5, "--out", out
        )
        assert code == 0
        assert "wrote 9 surface points" in capsys.readouterr().out
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "e1,e2,signed_error"
        assert len(lines) == 10
        corner = lines[-1].split(",")
        assert corner[0] == "1" and corner[1] == "1"
        assert float(corner[2]) == pytest.approx(8 / 145, abs=1e-12)

    @pytest.mark.parametrize("command", ["surface", "case-study"])
    @pytest.mark.parametrize("step", ["0.7", "0", "nan", "1e-12"])
    def test_bad_step_is_a_one_line_usage_error(self, tmp_path, capsys, command, step):
        out = tmp_path / "s.csv"
        if command == "surface":
            argv = ("surface", "--case", 1, "--rule", "independent")
        else:
            argv = ("case-study", "--id", 1)
        with pytest.raises(SystemExit) as excinfo:
            run(*argv, "--step", step, "--out", out)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        messages = [line for line in err.splitlines() if "error:" in line]
        assert len(messages) == 1
        assert "--step" in messages[0]
        assert not out.exists()

    def test_rule_names_are_validated(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run("surface", "--case", 1, "--rule", "bayes", "--out", tmp_path / "s.csv")
        assert excinfo.value.code == 2


def network_reader_argv(command, path, tmp_path):
    """Arguments of each command that reads a network file."""
    return {
        "evaluate": ("evaluate", "--networks", path, "--out", tmp_path / "r.csv"),
        "report": ("report", "--networks", path, "--out", tmp_path / "r.json"),
        "oracle": ("oracle", "--networks", path, "--index", 0, "--e1", 0.5, "--e2", 0.5),
        "surface": ("surface", "--networks", path, "--rule", "independent",
                    "--out", tmp_path / "s.csv"),
    }[command]


NETWORK_READERS = ["evaluate", "report", "oracle", "surface"]


class TestUnreadableNetworkFiles:
    """A network file the JSON reader cannot take is a one-line usage error."""

    def assert_one_line_usage_error(self, tmp_path, capsys, command, content, expected):
        path = tmp_path / "networks.json"
        path.write_bytes(content)
        with pytest.raises(SystemExit) as excinfo:
            run(*network_reader_argv(command, path, tmp_path))
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        messages = [line for line in err.splitlines() if "error:" in line]
        assert len(messages) == 1
        assert expected in messages[0]

    @pytest.mark.parametrize("command", NETWORK_READERS)
    def test_file_that_is_not_utf8(self, tmp_path, capsys, command):
        content = b"\xff\xfe" + '{"networks": []}'.encode("utf-16-le")
        self.assert_one_line_usage_error(
            tmp_path, capsys, command, content, "network file is not UTF-8 text"
        )

    @pytest.mark.parametrize("command", NETWORK_READERS)
    def test_deeply_nested_file(self, tmp_path, capsys, command):
        self.assert_one_line_usage_error(
            tmp_path, capsys, command, b"[" * 200000, "network file is not valid JSON"
        )

    @pytest.mark.parametrize("command", NETWORK_READERS)
    def test_directory(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            run(*network_reader_argv(command, tmp_path, tmp_path))
        assert excinfo.value.code == 2
        messages = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert messages == [f"prospector-eval: error: network file is a directory: {tmp_path}"]


def constructions(*argv) -> tuple[int, int]:
    """The JointTables and Provenances built while ``main(argv)`` runs."""
    calls = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for cls in (JointTable, Provenance):

            def counted(self, *args, init=cls.__init__, **kwargs):
                calls[type(self).__name__] += 1
                init(self, *args, **kwargs)

            patch.setattr(cls, "__init__", counted)
        assert run(*argv) == 0
    return calls["JointTable"], calls["Provenance"]


class TestConstructions:
    """A command builds a table only for a network it uses: the network
    file is read as one batch of columns."""

    @pytest.mark.parametrize(
        "argv, built",
        [
            (("oracle", "--index", 7, "--e1", 0.3, "--e2", 0.8), 1),
            (("surface", "--index", 7, "--rule", "independent", "--out", "s.csv"), 1),
            (("evaluate", "--out", "r.csv"), 0),
            (("report", "--out", "r.json"), 0),
        ],
        ids=["oracle", "surface", "evaluate", "report"],
    )
    def test_reading_400_networks(self, tmp_path, monkeypatch, argv, built):
        networks = make_networks_file(tmp_path, count=400)
        monkeypatch.chdir(tmp_path)
        command, *flags = argv
        assert constructions(command, "--networks", networks, *flags) == (built, built)

    def test_generating_400_networks(self, tmp_path):
        out = tmp_path / "n.json"
        argv = ("generate", "--kind", "associated", "--count", 400, "--out", out)
        assert constructions(*argv) == (0, 0)
        assert len(load_networks(out)) == 400


class TestRemovedGenerateFlags:
    """The generation constants are fixed by the method, so no flag sets them."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--base-rate-margin", "0.001"),
            ("--ipf-tolerance", "1e-10"),
            ("--ipf-max-iterations", "10000"),
            ("--max-resamples", "10"),
        ],
    )
    def test_is_a_one_line_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "nets.json"
        with pytest.raises(SystemExit) as excinfo:
            run("generate", "--kind", "associated", "--count", 3, flag, value, "--out", out)
        assert excinfo.value.code == 2
        messages = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(messages) == 1
        assert f"unrecognized arguments: {flag} {value}" in messages[0]
        assert list(tmp_path.iterdir()) == []
