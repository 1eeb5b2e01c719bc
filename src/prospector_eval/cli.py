"""Command-line interface.

Subcommands:

* ``generate``    — write a batch of random networks to a network file
* ``evaluate``    — sweep networks from a file, write per-update results CSV
* ``report``      — aggregate networks from a file into a study report JSON
* ``case-study``  — run a built-in benchmark network, write its error surface
* ``oracle``      — print the correct posterior for one update
* ``surface``     — write one rule set's error surface for one network

Exit codes: 0 success, 1 runtime failure (unreachable update, failed
generation, I/O), 2 usage error (bad flags or unusable inputs, such as a
malformed network file, an invalid table, or a base rate of 0 or 1).
Human-readable numbers are printed with 6 significant digits; files always
carry 17.

Each subcommand imports the modules it runs, so ``oracle`` loads neither the
samplers nor the study harness.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence, get_args

from .cases import CASE_STUDY_IDS, case_study_table
from .engine import Rule
from .errors import DegenerateBaseRateError, InvalidTableError, ProspectorEvalError
from .oracle import EvidenceUpdate, correct_posterior
from .table import (
    MARGINAL_FLOOR,
    FilterMode,
    JointTable,
    NetworkBatch,
    conditional_profile,
    network_view,
    require_valid,
)


def _parse_grid(text: str | None, parser: argparse.ArgumentParser) -> tuple[float, ...]:
    """The --grid values; ``DEFAULT_UPDATE_GRID`` when the flag is absent."""
    from .study import DEFAULT_UPDATE_GRID, sweep_settings

    if text is None:
        return DEFAULT_UPDATE_GRID
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip() != "")
    except ValueError:
        parser.error(f"--grid must be a comma-separated list of numbers, got {text!r}")
    try:
        return sweep_settings(values)[0]
    except ValueError as exc:
        parser.error(f"--grid: {exc}")


def _add_sweep_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--networks", required=True, help="network file to read")
    sub.add_argument("--out", required=True, help="output file to write")
    sub.add_argument("--grid", help="comma-separated per-axis update values (default quarter steps)")
    sub.add_argument(
        "--filter",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="screen out networks whose profile is not monotone",
    )
    sub.add_argument(
        "--filter-mode",
        choices=get_args(FilterMode),
        default="full",
        help="monotonicity comparisons: each evidence variable, or E2 only",
    )
    sub.add_argument(
        "--workers",
        type=int,
        default=1,
        help="deprecated; has no effect (evaluation is one array pass)",
    )


def _add_network_selection(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--case", type=int, choices=CASE_STUDY_IDS, help="built-in case study")
    group.add_argument("--networks", help="network file to read")
    sub.add_argument("--index", type=int, help="network index within --networks (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prospector-eval",
        description="Uncertain inference on two-evidence networks: rule sets vs the correct answer.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="write a batch of random networks")
    gen.add_argument("--kind", required=True, choices=("independent", "associated"))
    gen.add_argument("--count", type=int, default=400, help="networks to generate")
    gen.add_argument("--seed", type=int, help="stream seed")
    gen.add_argument("--out", required=True, help="network file to write")
    gen.set_defaults(handler=_cmd_generate)

    ev = commands.add_parser("evaluate", help="write per-update results for a network file")
    _add_sweep_flags(ev)
    ev.set_defaults(handler=_cmd_evaluate)

    rep = commands.add_parser("report", help="write the aggregate study report for a network file")
    _add_sweep_flags(rep)
    rep.set_defaults(handler=_cmd_report)

    case = commands.add_parser("case-study", help="run a built-in benchmark network")
    case.add_argument("--id", type=int, required=True, choices=CASE_STUDY_IDS)
    case.add_argument("--out", required=True, help="error-surface CSV to write")
    case.add_argument("--step", type=float, default=0.05, help="surface lattice step")
    case.add_argument("--grid", help="update grid for the printed summary statistics")
    case.set_defaults(handler=_cmd_case_study)

    orc = commands.add_parser("oracle", help="print the correct posterior for one update")
    _add_network_selection(orc)
    orc.add_argument("--e1", type=float, required=True, help="new probability of E1")
    orc.add_argument("--e2", type=float, required=True, help="new probability of E2")
    orc.set_defaults(handler=_cmd_oracle)

    surf = commands.add_parser("surface", help="write one rule set's error surface")
    _add_network_selection(surf)
    surf.add_argument("--rule", required=True, choices=tuple(rule.value for rule in Rule))
    surf.add_argument("--step", type=float, default=0.05, help="surface lattice step")
    surf.add_argument("--out", required=True, help="error-surface CSV to write")
    surf.set_defaults(handler=_cmd_surface)

    return parser


def _load_networks_checked(path: str, parser: argparse.ArgumentParser) -> NetworkBatch:
    try:
        batch = NetworkBatch.load(path)
    except FileNotFoundError:
        parser.error(f"network file not found: {path}")
    except IsADirectoryError:
        parser.error(f"network file is a directory: {path}")
    except ProspectorEvalError as exc:
        parser.error(f"unusable network file {path}: {exc}")
    if not len(batch):
        parser.error(f"network file {path} contains no networks")
    return batch


def _select_network(
    args, parser: argparse.ArgumentParser, *, marginal_floor: float = MARGINAL_FLOOR
) -> JointTable:
    """The table named by --case or --networks/--index; exits 2 unless it
    passes ``require_valid`` with the given evidence-state floor."""
    if args.case is not None:
        if args.index is not None:
            parser.error("--index applies only to --networks")
        table = case_study_table(args.case)
    else:
        batch = _load_networks_checked(args.networks, parser)
        index = args.index or 0
        if not 0 <= index < len(batch):
            parser.error(f"--index {index} out of range (file has {len(batch)} networks)")
        table = batch[index]
    try:
        require_valid(table, marginal_floor=marginal_floor)
    except InvalidTableError as exc:
        parser.error(f"unusable network: {exc}")
    return table


def _shown(path: str) -> str:
    """``path`` for a success message.  A name that is not UTF-8 reaches
    ``argv`` with its undecodable bytes as lone surrogates, which a strict
    stdout cannot encode; those bytes are shown as backslash escapes."""
    return path.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


def _cmd_generate(args, parser) -> int:
    from .samplers import DEFAULT_SEED, GenerationConfig, network_batch

    seed = DEFAULT_SEED if args.seed is None else args.seed
    try:
        config = GenerationConfig(count=args.count, seed=seed, kind=args.kind)
    except ValueError as exc:
        parser.error(str(exc))
    batch = network_batch(config)
    Path(args.out).write_text(batch.to_json(), encoding="utf-8")
    print(f"wrote {len(batch)} {args.kind} networks to {_shown(args.out)}")
    return 0


def _run_sweep(args, parser):
    from .study import evaluate_tables

    batch = _load_networks_checked(args.networks, parser)
    grid = _parse_grid(args.grid, parser)
    try:
        evaluations = evaluate_tables(
            batch,
            grid=grid,
            filter_enabled=args.filter,
            filter_mode=args.filter_mode,
        )
    except (InvalidTableError, DegenerateBaseRateError) as exc:
        parser.error(f"unusable network file {args.networks}: {exc}")
    return batch, evaluations


def _cmd_evaluate(args, parser) -> int:
    from .study import results_csv_text

    batch, evaluations = _run_sweep(args, parser)
    Path(args.out).write_text(results_csv_text(evaluations), encoding="utf-8")
    kept, total = len(evaluations), len(batch)
    print(f"evaluated {kept} of {total} networks; results written to {_shown(args.out)}")
    return 0


def _cmd_report(args, parser) -> int:
    from .study import build_report, format_class_table, report_json_text

    batch, evaluations = _run_sweep(args, parser)
    report = build_report(evaluations, batch.kind_counts())
    Path(args.out).write_text(report_json_text(report), encoding="utf-8")
    print(format_class_table(report), end="")
    print(f"report written to {_shown(args.out)}")
    return 0


def _write_surface(table: JointTable, rule: Rule, args, parser) -> int:
    """Write ``rule``'s error surface of ``table`` at --step to --out and
    return its size; exits 2 on a bad --step or a degenerate base rate."""
    from .study import error_surface, surface_csv_text

    try:
        points = error_surface(table, rule, args.step)
    except ValueError as exc:
        parser.error(f"--step: {exc}")
    except DegenerateBaseRateError as exc:
        parser.error(f"unusable network: {exc}")
    Path(args.out).write_text(surface_csv_text(points), encoding="utf-8")
    return len(points)


def _cmd_case_study(args, parser) -> int:
    from .study import RULE_ORDER, evaluate_network, summarize

    table = case_study_table(args.id)
    grid = _parse_grid(args.grid, parser)
    view = network_view(table)
    q = conditional_profile(table)
    summary = summarize(evaluate_network(table, grid))
    count = _write_surface(table, Rule.INDEPENDENT, args, parser)

    print(f"case study {args.id}")
    print(
        "conditional profile: "
        f"P(C|ff)={q[0]:.6g} P(C|ft)={q[1]:.6g} P(C|tf)={q[2]:.6g} P(C|tt)={q[3]:.6g}"
    )
    print(
        f"prior P(C)={view.p_c:.6g}; base rates P(E1)={view.p_e[0]:.6g} P(E2)={view.p_e[1]:.6g}"
    )
    for rule in RULE_ORDER:
        stats = summary.stats[rule]
        print(
            f"{rule.value:<12} avg signed {stats.mean_signed:+.6g}  "
            f"avg |err| {stats.mean_abs:.6g}  max |err| {stats.max_abs:.6g}"
        )
    print(
        f"independent-rule surface (step {args.step:g}, {count} points) "
        f"written to {_shown(args.out)}"
    )
    return 0


def _cmd_oracle(args, parser) -> int:
    # The update needs no conditional on an empty evidence state, so a zero
    # pair weight is valid here; an update it makes unreachable exits 1.
    table = _select_network(args, parser, marginal_floor=0.0)
    for name, value in (("--e1", args.e1), ("--e2", args.e2)):
        if not 0.0 <= value <= 1.0:
            parser.error(f"{name} must lie in [0, 1], got {value}")
    posterior = correct_posterior(table, EvidenceUpdate(args.e1, args.e2))
    print(f"{posterior:.6g}")
    return 0


def _cmd_surface(args, parser) -> int:
    count = _write_surface(_select_network(args, parser), Rule(args.rule), args, parser)
    print(f"wrote {count} surface points to {_shown(args.out)}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except (ProspectorEvalError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
