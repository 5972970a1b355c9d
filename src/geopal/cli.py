"""Command-line entry point: model files, subcommands, report rendering.

Model files are UTF-8 JSON with a "kind" field:

    topo     {"kind":"topo","points":[...],"opens":[[...],...],
              "valuation":{"p":[...]}}
    ssl      {"kind":"ssl","points":[...],"sets":[[...],...],
              "valuation":{"p":[...]}}
    product  {"kind":"product","factors":[{"points":[...],"opens":[...]},...],
              "worlds":"all" | [[...],...],"valuation":{"p":[[...],...]}}
    game     {"kind":"game","root":{"player":1,"children":[...]}}
             with leaves {"payoff":[...]}; payoff entries int or "p/q"

Point labels may be JSON numbers or strings and are preserved as written.
Topologies are verified on load (an ssl "sets" family is unconstrained).

Exit codes: 0 success, 1 a checked property failed (axiom counterexample,
persistence witness, induction mismatch), 2 bad input or any other error.
A crash never exits 1, since 1 reads as "counterexample found".

`run(argv, out, err)` writes every line to the streams it is given: results
and `--help` to `out`; `error:` lines and argparse's `usage:` lines to `err`.
The argument parser is built once per process, on the first call, and each
call looks its subcommand's handler up by name when it runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from .dynamics import (
    LimitTrace,
    common_knowledge_extension,
    limit_model,
    muddy_scenario,
)
from .formula import (
    Announce, Effort, EffortDual, FormulaError, Model, check_fragment, complexity, fold, parse, render, walk
)
from .games import GameTree, bi_via_announcements
from .intervals import divergence_report
from .product import ProductModel, fmt_world
from .rewrite import SEMANTICS, AxiomId, check_axiom, reduce
from .sslmodel import SSLModel, is_persistent, persistence_immunity_check
from .topology import fmt_set, json_field
from .topomodel import TopoModel

_MODEL_KINDS = {"topo": TopoModel, "ssl": SSLModel, "product": ProductModel, "game": GameTree}


# ---------------------------------------------------------------------------
# Model files


def load_model(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise ValueError(f"cannot read {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: invalid JSON: {error}") from None
    try:
        kind = json_field(data, "kind")
        if not isinstance(kind, str) or kind not in _MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        return _MODEL_KINDS[kind].from_json(data)
    except ValueError as error:
        raise ValueError(f"{path}: {error}") from None


def _load(path: str, command: str, kinds: type):
    model = load_model(path)
    if not isinstance(model, kinds):
        expected = " or ".join(name for name, kind in _MODEL_KINDS.items() if issubclass(kind, kinds))
        raise ValueError(f"{command} expects a model of kind {expected}")
    return model


def dump_model(model, path: str):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model.to_json(), handle, indent=1)
        handle.write("\n")


# ---------------------------------------------------------------------------
# Shared rendering


def _parse_formula(text: str):
    try:
        return parse(text)
    except FormulaError as error:
        raise ValueError(f"bad formula: {error}") from None


def _print_trace(trace: LimitTrace, out):
    for index, size in enumerate(trace.sizes):
        print(f"stage {index}: {size}", file=out)
    print(f"outcome: {trace.outcome}", file=out)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_check(args, out) -> int:
    model = _load(args.model, "check", Model)
    f = _parse_formula(args.formula)
    value = model.locus(model.parse_locus(args.at)) in model.truth(f)
    print("true" if value else "false", file=out)
    return 0


def _cmd_update(args, out) -> int:
    model = _load(args.model, "update", Model)
    updated = model.update(_parse_formula(args.formula))
    if args.emit:  # before any output, so a failed write prints nothing
        dump_model(updated, args.emit)
    for line in updated.summary():
        print(line, file=out)
    if args.emit:
        print(f"written: {args.emit}", file=out)
    return 0


# The largest reduced formula `geopal reduce` prints, in occurrences as a
# tree.  Elimination shares subterms, so a short input can reduce to a small
# DAG whose printed tree does not fit in memory.
MAX_PRINTED_SIZE = 1_000_000


def _effort_in_body(node, kids) -> tuple[bool, bool]:
    """A `fold` step: whether the node holds an E or D, and whether one lies
    in the body of an announcement within it."""
    effort = type(node) in (Effort, EffortDual) or any(kid[0] for kid in kids)
    return effort, any(kid[1] for kid in kids) or (type(node) is Announce and kids[1][0])


def _cmd_reduce(args, out) -> int:
    f = _parse_formula(args.formula)
    if args.semantics == "ssl" and fold(f, _effort_in_body)[1]:
        raise ValueError(
            "an E or D lies in an announcement's body, and reducing it on subset spaces may change"
            " the meaning (geopal axioms --semantics ssl --axiom 5)"
        )
    reduced = reduce(f, args.semantics)
    size = complexity(reduced)
    if size > MAX_PRINTED_SIZE:
        nodes = sum(1 for _ in walk(reduced))
        raise ValueError(
            f"the reduced formula has {size:,} occurrences as a tree ({nodes:,} distinct nodes),"
            f" more than the {MAX_PRINTED_SIZE:,} that reduce prints"
        )
    print(render(reduced), file=out)
    return 0


def _cmd_limit(args, out) -> int:
    model = _load(args.model, "limit", Model)
    trace = limit_model(model, _parse_formula(args.formula))
    if args.emit:  # before any output, so a failed write prints nothing
        dump_model(trace.limit, args.emit)
    _print_trace(trace, out)
    if args.emit:
        print(f"written: {args.emit}", file=out)
    return 0


def _cmd_ck(args, out) -> int:
    model = _load(args.model, "ck", ProductModel)
    result = common_knowledge_extension(model, _parse_formula(args.formula))
    print(
        f"common knowledge extension: {len(result.worlds)} of {len(model.worlds)} worlds"
        f" ({result.iterations} refinement rounds)",
        file=out,
    )
    print("worlds: " + (" ".join(map(fmt_world, model.ordered(result.worlds))) or "(none)"), file=out)
    return 0


def _cmd_muddy(args, out) -> int:
    muddy = [part for part in args.muddy.split(",") if part]
    scenario = muddy_scenario(args.children, muddy)
    print("worlds: " + " -> ".join(map(str, scenario.sizes)), file=out)
    for round_index, states in enumerate(scenario.knowledge):
        described = []
        for child, state in states.items():
            if state == "knows-muddy":
                described.append(f"{child} knows m_{child}")
            elif state == "knows-clean":
                described.append(f"{child} knows ~m_{child}")
            else:
                described.append(f"{child} unknown")
        tag = "father's announcement" if round_index == 0 else f"ignorance round {round_index}"
        print(f"after {tag}: " + "; ".join(described), file=out)
    print(f"stopped: {scenario.stop_reason} after {scenario.ignorance_rounds} ignorance round(s)", file=out)
    print(
        "ignorance limit (unpointed): "
        + " -> ".join(map(str, scenario.unpointed_sizes))
        + f": {scenario.unpointed_outcome}",
        file=out,
    )
    return 0


def _cmd_bi(args, out) -> int:
    tree = _load(args.game, "bi", GameTree)
    result = bi_via_announcements(tree)
    value = "(" + ", ".join(map(str, result.induction.value)) + ")"
    print(f"backward induction value: {value}", file=out)
    print("backward induction path: " + " -> ".join(map(str, result.induction.path)), file=out)
    if not result.generic:
        print(f"WARNING: payoff ties at nodes {list(result.induction.tie_nodes)}; run flagged non-generic", file=out)
    print("rationality announcement stages: " + " -> ".join(map(str, result.trace.sizes)), file=out)
    print(
        "limit matches backward induction: " + ("yes" if result.matches_backward_induction else "no"),
        file=out,
    )
    return 0 if result.matches_backward_induction else 1


def _cmd_persistent(args, out) -> int:
    model = _load(args.model, "persistent", SSLModel)
    f = _parse_formula(args.formula)
    announcements = None
    if args.announcements is not None:
        announcements = [
            _parse_formula(part.strip())
            for part in args.announcements.split(";")
            if part.strip()
        ]
        if not announcements:
            raise ValueError("--announcements lists no formula")
        for announcement in announcements:  # refused before any output
            check_fragment(announcement, "ssl")
    witness = is_persistent(model, f)
    if witness is not None:
        print(
            f"persistence witness: point {witness.point}, holds on {fmt_set(witness.larger)},"
            f" fails on {fmt_set(witness.smaller)}",
            file=out,
        )
        return 1
    # Run before any output, so an error in it prints no result.
    report = None if announcements is None else persistence_immunity_check(model, f, announcements)
    print("persistent: confirmed", file=out)
    if report is not None:
        if report.immune:
            print(f"immunity: {report.checks} checks, no violations", file=out)
        else:
            print(f"immunity: VIOLATED in {len(report.violations)} of {report.checks} checks", file=out)
            return 1
    return 0


def _cmd_axioms(args, out) -> int:
    report = check_axiom(AxiomId(args.semantics, args.axiom), sample_size=args.models, seed=args.seed)
    print(report.render(), file=out)
    return 0 if report.valid_on_sample else 1


def _cmd_example_intervals(args, out) -> int:
    print(divergence_report().render(), file=out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geopal",
        description="Public announcement logic over finite geometric models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="evaluate a formula at a locus")
    check.add_argument("--model", required=True)
    check.add_argument("--at", required=True, help="point | w1,w2 | point@member,member")
    check.add_argument("--formula", required=True)

    upd = sub.add_parser("update", help="announce a formula once")
    upd.add_argument("--model", required=True)
    upd.add_argument("--formula", required=True)
    upd.add_argument("--emit", help="write the updated model to this path")

    red = sub.add_parser("reduce", help="eliminate announcements", description=(
        "Print an announcement-free formula equivalent to --formula. For ssl a formula with an E or D"
        " in an announcement's body is refused (exit 2): the effort schema is unsound there"
        f" (geopal axioms --semantics ssl --axiom 5). A result of more than {MAX_PRINTED_SIZE:,}"
        " occurrences as a tree is not printed (exit 2)."))
    red.add_argument("--semantics", required=True, choices=SEMANTICS)
    red.add_argument("--formula", required=True)

    lim = sub.add_parser("limit", help="announce repeatedly until stable")
    lim.add_argument("--model", required=True)
    lim.add_argument("--formula", required=True)
    lim.add_argument("--emit", help="write the limit model to this path")

    ck = sub.add_parser("ck", help="greatest-fixpoint common knowledge extension")
    ck.add_argument("--model", required=True)
    ck.add_argument("--formula", required=True)

    muddy = sub.add_parser("muddy", help="run the muddy children protocol")
    muddy.add_argument("--children", type=int, required=True)
    muddy.add_argument("--muddy", required=True, help="comma-separated child letters, e.g. a,b")

    bi = sub.add_parser("bi", help="backward induction vs rationality announcements")
    bi.add_argument("--game", required=True)

    pers = sub.add_parser("persistent", help="persistence check with optional immunity run")
    pers.add_argument("--model", required=True)
    pers.add_argument("--formula", required=True)
    pers.add_argument("--announcements", help="semicolon-separated announcement formulas")

    ax = sub.add_parser("axioms", help="probe one reduction axiom on random models")
    ax.add_argument("--semantics", required=True, choices=SEMANTICS)
    ax.add_argument("--axiom", type=int, required=True)
    ax.add_argument("--models", type=int, default=300)
    ax.add_argument("--seed", type=int, required=True)

    sub.add_parser("example-intervals", help="interior vs infinite intersection demo")

    return parser


def run(argv: list[str], out=None, err=None) -> int:
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    # argparse prints help and usage errors to sys.stdout and sys.stderr.
    try:
        with redirect_stdout(out), redirect_stderr(err):
            args = _build_parser().parse_args(argv)
    except SystemExit as exit_:
        return 0 if exit_.code in (0, None) else 2
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args, out)
    except Exception as error:  # any failure is reported as exit 2, never 1
        print(f"error: {str(error) or type(error).__name__}", file=err)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
