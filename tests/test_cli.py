"""Golden-file tests for every subcommand, plus file round trips."""

import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from geopal import cli
from geopal.cli import dump_model, load_model, run
from geopal.formula import complexity, parse

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
SRC = Path(__file__).parent.parent / "src"


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out, err=out)
    return code, out.getvalue()


CASES = [
    ("check_topo_interior",   ["check", "--model", str(DATA / "sier.topo.json"), "--at", "0", "--formula", "I p"], 0),
    ("check_topo_closure",    ["check", "--model", str(DATA / "tri.topo.json"), "--at", "2", "--formula", "C q"], 0),
    ("check_ssl_effort",      ["check", "--model", str(DATA / "pair.ssl.json"), "--at", "s@s,t", "--formula", "E K p"], 0),
    ("check_product_know",    ["check", "--model", str(DATA / "duo.product.json"), "--at", "1,0", "--formula", "K2 p"], 0),
    ("update_topo_atom",      ["update", "--model", str(DATA / "sier.topo.json"), "--formula", "p"], 0),
    ("update_ssl_atom",       ["update", "--model", str(DATA / "pair.ssl.json"), "--formula", "p"], 0),
    ("update_product_atom",   ["update", "--model", str(DATA / "duo.product.json"), "--formula", "p"], 0),
    ("reduce_topo_interior",  ["reduce", "--semantics", "topo", "--formula", "[!p] I q"], 0),
    ("reduce_ssl_conj",       ["reduce", "--semantics", "ssl", "--formula", "[!p] (K q & r)"], 0),
    ("reduce_product_know",   ["reduce", "--semantics", "product", "--formula", "[!p | q] K2 r"], 0),
    ("limit_topo_atom",       ["limit", "--model", str(DATA / "sier.topo.json"), "--formula", "p"], 0),
    ("limit_topo_interior",   ["limit", "--model", str(DATA / "tri.topo.json"), "--formula", "I p"], 0),
    ("limit_product_conj",    ["limit", "--model", str(DATA / "duo.product.json"), "--formula", "p & q"], 0),
    ("ck_duo_disjunction",    ["ck", "--model", str(DATA / "duo.product.json"), "--formula", "p | q"], 0),
    ("ck_mixed_atom",         ["ck", "--model", str(DATA / "mixed.product.json"), "--formula", "p"], 0),
    ("muddy_three_ab",        ["muddy", "--children", "3", "--muddy", "a,b"], 0),
    ("muddy_two_a",           ["muddy", "--children", "2", "--muddy", "a"], 0),
    ("bi_handoff",            ["bi", "--game", str(DATA / "handoff.game.json")], 0),
    ("bi_fractions",          ["bi", "--game", str(DATA / "fractions.game.json")], 0),
    ("bi_tie_flagged",        ["bi", "--game", str(DATA / "tie.game.json")], 1),
    ("persistent_witness",    ["persistent", "--model", str(DATA / "lp.ssl.json"), "--formula", "L p"], 1),
    ("persistent_immune",     ["persistent", "--model", str(DATA / "pair.ssl.json"), "--formula", "p", "--announcements", "q; K p"], 0),
    ("axioms_topo_interior",  ["axioms", "--semantics", "topo", "--axiom", "4", "--models", "25", "--seed", "7"], 0),
    ("axioms_ssl_effort",     ["axioms", "--semantics", "ssl", "--axiom", "5", "--models", "25", "--seed", "7"], 1),
    ("intervals_demo",        ["example-intervals"], 0),
]


def _golden(name):
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv, expected_code", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, expected_code):
    code, text = invoke(argv)
    assert code == expected_code
    assert text == _golden(name)


def test_goldens_in_one_process_build_the_parser_once():
    cli._build_parser.cache_clear()
    for name, argv, expected_code in CASES:
        assert invoke(argv) == (expected_code, _golden(name)), name
    assert cli._build_parser.cache_info().misses == 1


def _all_schema_reports():
    """`geopal axioms` on every schema at seeds 0, 3 and 7 over 300 models,
    in one process: each invocation, its exit code, then its output."""
    chunks = []
    for semantics, top in (("topo", 4), ("ssl", 5), ("product", 4)):
        for axiom in range(1, top + 1):
            for seed in (0, 3, 7):
                argv = ["axioms", "--semantics", semantics, "--axiom", str(axiom), "--models", "300", "--seed", str(seed)]
                code, text = invoke(argv)
                chunks.append(f"$ geopal {' '.join(argv)}\nexit {code}\n{text}")
    return "".join(chunks)


def test_axioms_on_every_schema_keep_their_golden():
    # Every field of every report, the effort schema's counterexamples
    # included, stays byte-identical through changes to `check_axiom`.
    assert _all_schema_reports() == _golden("axioms_all_schemas")


@pytest.mark.parametrize("usage_error", [
    ["check"],
    ["check", "--model"],
    ["frobnicate", "--emit", "x"],
    ["muddy", "--children", "three", "--muddy", "a"],
    ["reduce", "--semantics", "kripke", "--formula", "p"],
    ["update", "--model", str(DATA / "sier.topo.json"), "--formula", "p", "--emit"],
    ["example-intervals", "extra"],
], ids=["no-options", "no-value", "unknown-command", "bad-int", "bad-choice", "emit-no-value", "extra-argument"])
def test_usage_error_leaves_the_next_call_unchanged(usage_error):
    assert invoke(usage_error)[0] == 2
    for name, argv, expected_code in (CASES[4], CASES[7], CASES[24]):
        assert invoke(argv) == (expected_code, _golden(name)), name


def test_emit_is_not_carried_to_the_next_call(tmp_path):
    target = tmp_path / "updated.json"
    argv = ["update", "--model", str(DATA / "sier.topo.json"), "--formula", "p"]
    code, text = invoke([*argv, "--emit", str(target)])
    assert code == 0 and text.endswith(f"written: {target}\n")
    target.unlink()
    assert invoke(argv) == (0, _golden("update_topo_atom"))
    assert list(tmp_path.iterdir()) == []


def test_alternating_subcommands_keep_their_goldens():
    rotation = (CASES[0], CASES[15], CASES[7], CASES[12])
    for _ in range(3):
        for name, argv, expected_code in rotation:
            assert invoke(argv) == (expected_code, _golden(name)), name


@pytest.mark.parametrize("argv, expected_code, stream, start", [
    (["check"], 2, "err", "usage: geopal check [-h] --model MODEL"),
    (["frobnicate"], 2, "err", "usage: geopal [-h]"),
    (["example-intervals", "extra"], 2, "err", "usage: geopal [-h]"),
    (["--help"], 0, "out", "usage: geopal [-h]"),
    (["persistent", "--help"], 0, "out", "usage: geopal persistent [-h]"),
], ids=["missing-options", "unknown-command", "extra-argument", "help", "subcommand-help"])
def test_argparse_writes_to_the_given_streams(capsys, argv, expected_code, stream, start):
    streams = {"out": io.StringIO(), "err": io.StringIO()}
    assert run(argv, **streams) == expected_code
    written = {name: buffer.getvalue() for name, buffer in streams.items()}
    text = written.pop(stream)
    assert text.startswith(start) and list(written.values()) == [""]
    if expected_code == 2:
        assert ": error: " in text.splitlines()[-1]
    assert capsys.readouterr() == ("", "")


def test_output_is_byte_identical_across_runs():
    for name, argv, _ in (CASES[0], CASES[16], CASES[23], CASES[24]):
        first = invoke(list(argv))
        second = invoke(list(argv))
        assert first == second, name


@pytest.mark.parametrize(
    "fixture, formula",
    [
        ("sier.topo.json", "C p"),
        ("pair.ssl.json", "L p"),
        ("duo.product.json", "p | q"),
    ],
)
def test_emitted_models_reload_equal(tmp_path, fixture, formula):
    target = tmp_path / "updated.json"
    code, _ = invoke(
        ["update", "--model", str(DATA / fixture), "--formula", formula, "--emit", str(target)]
    )
    assert code == 0
    emitted = load_model(str(target))
    dump_model(emitted, str(tmp_path / "again.json"))
    assert load_model(str(tmp_path / "again.json")) == emitted


# Emitted model files, pinned byte for byte: an update is written as the
# model on its surviving points or worlds alone.
EMITTED = [
    (["update", "--model", str(DATA / "sier.topo.json"), "--formula", "C p"], "update_sier_closure.topo.json"),
    (["update", "--model", str(DATA / "duo.product.json"), "--formula", "p | q"], "update_duo_disjunction.product.json"),
    (["limit", "--model", str(DATA / "tri.topo.json"), "--formula", "I p"], "limit_tri_interior.topo.json"),
    # Two sets shrink to {s}, and at v the shrunk sets come in another order
    # than the sets they shrank from.
    (["update", "--model", str(DATA / "merge.ssl.json"), "--formula", "p"], "update_merge_atom.ssl.json"),
    (["limit", "--model", str(DATA / "merge.ssl.json"), "--formula", "p & ~K q"], "limit_merge_conj.ssl.json"),
]


@pytest.mark.parametrize("argv, pinned", EMITTED, ids=[pinned for _, pinned in EMITTED])
def test_emitted_models_match_their_pins(tmp_path, argv, pinned):
    target = tmp_path / "emitted.json"
    code, _ = invoke([*argv, "--emit", str(target)])
    assert code == 0
    assert target.read_bytes() == (DATA / "emitted" / pinned).read_bytes()


# Pinned stdout beyond CASES, which the benchmark's cli workload mirrors: the
# stage sizes of a limit through merging subset-space updates.
MORE_GOLDENS = [
    ("limit_ssl_merge", ["limit", "--model", str(DATA / "merge.ssl.json"), "--formula", "p & ~K q"], 0),
]


@pytest.mark.parametrize("name, argv, expected_code", MORE_GOLDENS, ids=[c[0] for c in MORE_GOLDENS])
def test_more_goldens(name, argv, expected_code):
    assert invoke(argv) == (expected_code, _golden(name))


def test_emitted_limit_reload(tmp_path):
    target = tmp_path / "limit.json"
    code, _ = invoke(
        ["limit", "--model", str(DATA / "tri.topo.json"), "--formula", "I p", "--emit", str(target)]
    )
    assert code == 0
    assert load_model(str(target)) is not None


def test_game_files_round_trip(tmp_path):
    tree = load_model(str(DATA / "fractions.game.json"))
    dump_model(tree, str(tmp_path / "game.json"))
    assert load_model(str(tmp_path / "game.json")) == tree
    body = json.loads((tmp_path / "game.json").read_text())
    assert body["root"]["children"][0]["children"][0]["payoff"] == ["3/2", 1]


def test_unknown_subcommand_exits_2():
    code, _ = invoke(["frobnicate"])
    assert code == 2


def test_missing_file_exits_2():
    code, text = invoke(["check", "--model", "no-such.json", "--at", "0", "--formula", "p"])
    assert code == 2
    assert "cannot read" in text


def test_a_model_file_that_is_not_utf8_is_named(tmp_path):
    target = tmp_path / "utf16.json"
    target.write_bytes(b"\xff\xfe{}")
    out, err = io.StringIO(), io.StringIO()
    code = run(["check", "--model", str(target), "--at", "0", "--formula", "p"], out=out, err=err)
    assert code == 2 and not out.getvalue()
    assert err.getvalue().startswith(f"error: {target}:")


def _run_module(argv, **env):
    # The module run as a program, through `main` and `sys.exit`.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "geopal.cli", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path, **env}, timeout=120)


# Inputs whose error names a set or a label: a situation with three labels,
# a set with points outside the model, and a product world list with three
# unknown labels.
_HASH_ORDER_INPUTS = {
    "ssl-locus": (None, "s@s,,t"),
    "ssl-sigma-member": ({"kind": "ssl", "points": ["s"], "sets": [["s", "t", "u", "v", "w"]]}, "s@s"),
    "product-labels": ({"kind": "product", "factors": [{"points": [0, 1], "opens": [[], [0], [0, 1]]}],
                        "worlds": [["x"], ["y"], ["z"]]}, "x"),
}


@pytest.mark.parametrize("case", _HASH_ORDER_INPUTS)
def test_error_text_is_independent_of_the_hash_seed(case, tmp_path):
    body, locus = _HASH_ORDER_INPUTS[case]
    path = DATA / "pair.ssl.json"
    if body is not None:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(body))
    argv = ["check", "--model", str(path), "--at", locus, "--formula", "p"]
    first, second = (_run_module(argv, PYTHONHASHSEED=seed) for seed in ("1", "3"))
    assert first.returncode == second.returncode == 2
    assert first.stderr.startswith(b"error: ")
    assert first.stderr == second.stderr


@pytest.mark.parametrize("argv, expected_code", [
    (["example-intervals"], 0),
    (["persistent", "--model", str(DATA / "lp.ssl.json"), "--formula", "L p"], 1),
    (["check", "--model", str(DATA / "no-such.json"), "--at", "0", "--formula", "p"], 2),
], ids=["success", "property-failed", "bad-input"])
def test_entry_point_exit_codes_in_a_process(argv, expected_code):
    result = _run_module(argv)
    assert result.returncode == expected_code, result.stderr
    if expected_code == 0:
        assert result.stdout == (GOLDEN / "intervals_demo.txt").read_bytes()
    if expected_code == 2:
        assert result.stderr.startswith(b"error: ") and not result.stdout


def test_usage_error_and_help_in_a_process():
    result = _run_module(["check"])
    assert result.returncode == 2 and not result.stdout
    assert result.stderr.startswith(b"usage: geopal check ")
    result = _run_module(["--help"])
    assert result.returncode == 0 and not result.stderr
    assert result.stdout.startswith(b"usage: geopal ")


def test_muddy_children_beyond_the_alphabet_exit_2():
    code, text = invoke(["muddy", "--children", "27", "--muddy", "a"])
    assert (code, text) == (2, "error: supported range is 1..26 children\n")


def test_parse_error_reports_position():
    code, text = invoke(
        ["check", "--model", str(DATA / "sier.topo.json"), "--at", "0", "--formula", "K ((p"]
    )
    assert code == 2
    assert "position" in text


def test_bad_topology_file_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "topo", "points": [0, 1], "opens": [[], [0], [1]], "valuation": {}}))
    code, text = invoke(["check", "--model", str(bad), "--at", "0", "--formula", "p"])
    assert code == 2
    assert "not a topology" in text


def test_undeclared_label_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "topo", "points": [0], "opens": [[], [0]], "valuation": {"p": [3]}}))
    code, text = invoke(["check", "--model", str(bad), "--at", "0", "--formula", "p"])
    assert code == 2


def test_ssl_sets_need_not_form_a_topology():
    # No empty set, no union closure: legal for ssl files.
    model = load_model(str(DATA / "pair.ssl.json"))
    assert len(model.sigma) == 2


def test_model_to_json_is_loadable_inverse(tmp_path):
    for fixture in ("sier.topo.json", "pair.ssl.json", "duo.product.json", "mixed.product.json"):
        model = load_model(str(DATA / fixture))
        assert type(model).from_json(model.to_json()) == model
        dump_model(model, str(tmp_path / "copy.json"))
        assert load_model(str(tmp_path / "copy.json")) == model


@pytest.mark.parametrize(
    "axiom, models", [("5", "5"), ("1", "0"), ("1", "-5")], ids=["axiom-5", "models-0", "models-minus-5"]
)
def test_invalid_axiom_index_exits_2(axiom, models):
    code, _ = invoke(["axioms", "--semantics", "topo", "--axiom", axiom, "--models", models, "--seed", "1"])
    assert code == 2


@pytest.mark.parametrize("announcements", ["", ";", " ; ;  "], ids=["empty", "separator", "blanks"])
def test_persistent_announcements_without_a_formula_exit_2(announcements):
    # Given but empty, the option would pass an immunity run of zero checks.
    out, err = io.StringIO(), io.StringIO()
    argv = ["persistent", "--model", str(DATA / "pair.ssl.json"), "--formula", "p", "--announcements", announcements]
    assert run(argv, out=out, err=err) == 2
    assert (out.getvalue(), err.getvalue()) == ("", "error: --announcements lists no formula\n")


def test_unexpected_error_exits_2_not_1():
    # I is not a subset-space operator; the failure is bad input, not a failed property.
    code, text = invoke(
        ["persistent", "--model", str(DATA / "pair.ssl.json"), "--formula", "p", "--announcements", "I p"]
    )
    assert code == 2
    assert text.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["persistent", "--model", str(DATA / "pair.ssl.json"), "--formula", "p", "--announcements", "K9 p"],
    ["update", "--model", str(DATA / "sier.topo.json"), "--formula", "p", "--emit", "{missing}"],
    ["limit", "--model", str(DATA / "tri.topo.json"), "--formula", "I p", "--emit", "{missing}"],
    ["reduce", "--semantics", "ssl", "--formula", "[!p | q] E L q"],
    ["reduce", "--semantics", "ssl", "--formula", "[!p] D q"],
    ["reduce", "--semantics", "ssl", "--formula", "[!p] [!E q] r"],
    ["reduce", "--semantics", "ssl", "--formula", "[!p] " + "~" * 3000 + "E q"],
], ids=[
    "persistent-announcement-outside-ssl", "update-emit-unwritable", "limit-emit-unwritable",
    "reduce-ssl-effort-in-body", "reduce-ssl-dual-in-body", "reduce-ssl-effort-in-nested-body",
    "reduce-ssl-effort-deep-in-body",
])
def test_bad_input_found_late_prints_no_result(tmp_path, argv):
    # Exit 2 means bad input, so stdout must not already read as a result.
    # On ssl, reducing an E or D in an announcement's body applies the
    # unsound effort schema, so no printed formula would be equivalent.
    missing = str(tmp_path / "no-such-dir" / "model.json")
    out, err = io.StringIO(), io.StringIO()
    assert run([arg.format(missing=missing) for arg in argv], out=out, err=err) == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_persistent_immunity_error_prints_no_result(monkeypatch):
    # The immunity run comes before "persistent: confirmed", so an error in
    # it leaves stdout empty.
    def failing(model, f, announcements):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "persistence_immunity_check", failing)
    out, err = io.StringIO(), io.StringIO()
    argv = ["persistent", "--model", str(DATA / "pair.ssl.json"), "--formula", "p", "--announcements", "q"]
    assert run(argv, out=out, err=err) == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "formula, operator",
    [("true | K p", "Know"), ("false & K p", "Know"), ("[!false] K p", "Know"), ("p -> K1 p", "KnowI")],
)
def test_check_rejects_operator_outside_topo_fragment(formula, operator):
    out, err = io.StringIO(), io.StringIO()
    # At point 1 each formula is decided before its K node is reached.
    argv = ["check", "--model", str(DATA / "sier.topo.json"), "--at", "1", "--formula", formula]
    assert run(argv, out=out, err=err) == 2
    assert out.getvalue() == ""
    assert f"operator {operator} " in err.getvalue()


FACTOR = {"points": [0], "opens": [[], [0]]}
MALFORMED = [
    ("topo-valuation", "update", {"kind": "topo", **FACTOR, "valuation": {"p": 5}}),
    ("ssl-valuation", "update", {"kind": "ssl", "points": [0], "sets": [[0]], "valuation": {"p": 5}}),
    ("product-valuation", "update", {"kind": "product", "factors": [FACTOR], "worlds": "all", "valuation": {"p": 5}}),
    ("ssl-sets", "update", {"kind": "ssl", "points": [0], "sets": 5}),
    ("list-label", "update", {"kind": "topo", "points": [[0]], "opens": [[]]}),
    ("ragged-payoffs", "bi", {"kind": "game", "root": {"player": 1, "children": [{"payoff": [1, 0]}, {"payoff": [2]}]}}),
    ("player-without-payoff", "bi", {"kind": "game", "root": {"player": 3, "children": [{"payoff": [1, 0]}, {"payoff": [0, 1]}]}}),
    ("leaf-with-children", "bi", {"kind": "game", "root": {"payoff": [1, 2], "player": 2, "children": [{"payoff": [0, 0]}]}}),
    ("ssl-duplicate-points", "update", {"kind": "ssl", "points": [0, 0], "sets": [[0]]}),
    ("ssl-empty-set", "update", {"kind": "ssl", "points": [0], "sets": [[]]}),
    ("ssl-set-outside-points", "update", {"kind": "ssl", "points": [0], "sets": [[0, 1]]}),
    ("ssl-valuation-outside-points", "update", {"kind": "ssl", "points": [0], "sets": [[0]], "valuation": {"p": [1]}}),
    ("json-list", "update", [{"kind": "topo", **FACTOR}]),
    ("no-kind", "update", {**FACTOR}),
    ("topo-without-points", "update", {"kind": "topo", "opens": [[]]}),
    ("valuation-list", "update", {"kind": "topo", **FACTOR, "valuation": [["p", [0]]]}),
    ("invalid-json", "update", '{"kind": "topo", "points": [0],'),
    ("unknown-kind", "update", {"kind": "kripke", **FACTOR}),
]


@pytest.mark.parametrize("command, body", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_model_file_exits_2(tmp_path, command, body):
    path = tmp_path / "bad.json"
    path.write_text(body if isinstance(body, str) else json.dumps(body))  # a string is the file's text
    argv = ["bi", "--game", str(path)] if command == "bi" else [command, "--model", str(path), "--formula", "p"]
    code, text = invoke(argv)
    assert code == 2
    assert text.startswith(f"error: {path}: ") and text.count("\n") == 1, text


def _nested_announcement(k):
    # F_0 = p, F_k+1 = [!(F_k) | p] K ((F_k) & q): the oracle's cost grows
    # about 6.5x per level, evaluation through `truth` stays polynomial.
    text = "p"
    for _ in range(k):
        text = f"[!({text}) | p] K (({text}) & q)"
    return text


def test_check_answers_through_truth(tmp_path):
    path = tmp_path / "tower.ssl.json"
    path.write_text(json.dumps(
        {"kind": "ssl", "points": [0, 1, 2], "sets": [[0], [0, 1]], "valuation": {"p": [0, 1, 2], "q": [0, 2]}}
    ))
    model = load_model(str(path))
    for k in range(1, 5):
        formula = _nested_announcement(k)
        for at in ("0@0", "0@0,1", "1@0,1"):
            expected = model.satisfies(model.parse_locus(at), parse(formula))
            assert invoke(["check", "--model", str(path), "--at", at, "--formula", formula]) == (
                0, "true\n" if expected else "false\n"
            ), (k, at)
    start = time.perf_counter()
    code, _ = invoke(["check", "--model", str(path), "--at", "0@0", "--formula", _nested_announcement(7)])
    assert code == 0
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "command, fixture, flag",
    [
        ("check", "handoff.game.json", "--model"),
        ("ck", "pair.ssl.json", "--model"),
        ("persistent", "duo.product.json", "--model"),
        ("bi", "sier.topo.json", "--game"),
    ],
)
def test_command_rejects_other_model_kinds(command, fixture, flag):
    argv = [command, flag, str(DATA / fixture)]
    if command != "bi":
        argv += ["--formula", "p"] + (["--at", "0"] if command == "check" else [])
    code, text = invoke(argv)
    assert code == 2
    assert f"error: {command} expects a model of kind " in text


CHAIN = "~" * 3000 + "p"  # an even run of negations: equivalent to p
TOPO, SSL, PRODUCT = (str(DATA / name) for name in ("sier.topo.json", "pair.ssl.json", "duo.product.json"))
LONG_PREFIX_RUNS = {
    "check-sier.topo.json": ["check", "--model", TOPO, "--at", "0", "--formula", CHAIN],
    "check-pair.ssl.json": ["check", "--model", SSL, "--at", "s@s,t", "--formula", CHAIN],
    "check-duo.product.json": ["check", "--model", PRODUCT, "--at", "1,0", "--formula", CHAIN],
    **{
        f"{command}-{Path(model).name}": [command, "--model", model, "--formula", CHAIN]
        for command in ("update", "limit")
        for model in (TOPO, SSL, PRODUCT)
    },
    "ck-duo.product.json": ["ck", "--model", PRODUCT, "--formula", CHAIN],
    "persistent-formula": ["persistent", "--model", SSL, "--formula", CHAIN],
    "persistent-announcements": ["persistent", "--model", SSL, "--formula", "p", "--announcements", CHAIN],
    **{
        f"reduce-{semantics}": ["reduce", "--semantics", semantics, "--formula", "[!p] " + CHAIN]
        for semantics in ("topo", "ssl", "product")
    },
}


@pytest.mark.parametrize("argv", LONG_PREFIX_RUNS.values(), ids=LONG_PREFIX_RUNS.keys())
def test_check_evaluates_a_long_prefix_run(argv):
    # 3,000 negations: parsing, evaluation, updates and elimination all walk
    # the chain without recursion on every kind of model, so each command
    # answers as it does for the equivalent p, and reduce pushes [!p] through
    # every negation.
    code, text = invoke(argv)
    if argv[0] == "reduce":
        assert (code, text) == (0, "p -> ~(" * 3000 + "p -> p" + ")" * 3000 + "\n")
    else:
        assert code in (0, 1)
        assert (code, text) == invoke([arg.replace(CHAIN, "p") for arg in argv])


def test_reduce_refuses_a_tree_too_large_to_print():
    # F_k = [!F_(k-1) | p] I (F_(k-1) & q): F_3 (120 characters) reduces to
    # 28,644 occurrences and prints; F_4 (256 characters) reduces to a DAG of
    # 204 nodes whose tree would not fit in memory, and is refused.
    text = "p"
    for _ in range(3):
        text = f"[!{text} | p] I ({text} & q)"
    code, printed = invoke(["reduce", "--semantics", "topo", "--formula", text])
    assert code == 0 and complexity(parse(printed)) == 28_644
    text = f"[!{text} | p] I ({text} & q)"
    assert len(text) == 256
    start = time.perf_counter()
    assert invoke(["reduce", "--semantics", "topo", "--formula", text]) == (
        2,
        "error: the reduced formula has 433,486,404 occurrences as a tree (204 distinct nodes),"
        " more than the 1,000,000 that reduce prints\n",
    )
    assert time.perf_counter() - start < 1.0


def test_sparse_product_of_many_factors_answers_at_once(tmp_path):
    # 8 factors of 8 points list 5 worlds: only listed worlds are indexed,
    # never the 8 ** 8 tuples of the full product.
    factor = {"points": list(range(8)), "opens": [[], [0, 1, 2, 3], list(range(8))]}
    worlds = [[(i * k) % 8 for k in range(8)] for i in range(4)] + [[0, 1, 0, 1, 0, 1, 0, 1]]
    path = tmp_path / "sparse.product.json"
    path.write_text(json.dumps({
        "kind": "product", "factors": [factor] * 8, "worlds": worlds,
        "valuation": {"p": worlds[:3], "q": worlds[1:]},
    }))
    formula = "[!K1 p | q] (K8 q -> K3 (p & [!q] K5 ~p))"
    start = time.perf_counter()
    code, text = invoke(["check", "--model", str(path), "--at", "0,1,0,1,0,1,0,1", "--formula", formula])
    assert code == 0 and text in ("true\n", "false\n")
    model = load_model(str(path))
    expected = model.satisfies((0, 1, 0, 1, 0, 1, 0, 1), parse(formula))
    assert text == ("true\n" if expected else "false\n")
    code, text = invoke(["update", "--model", str(path), "--formula", "K2 q | p"])
    assert code == 0 and text.startswith("kind: product\nworlds: ")
    assert time.perf_counter() - start < 0.5


def test_error_without_a_message_names_its_type(monkeypatch):
    def out_of_memory(args, out):
        raise MemoryError()

    monkeypatch.setattr(cli, "_cmd_reduce", out_of_memory)
    assert invoke(["reduce", "--semantics", "topo", "--formula", "p"]) == (2, "error: MemoryError\n")


def test_check_reads_deeply_nested_parentheses():
    path = DATA / "sier.topo.json"
    expected = 0 in load_model(str(path)).truth(parse("p"))
    formula = "(" * 1000 + "p" + ")" * 1000
    assert invoke(["check", "--model", str(path), "--at", "0", "--formula", formula]) == (
        0, "true\n" if expected else "false\n"
    )


def test_reduce_ssl_keeps_effort_outside_announcement_bodies():
    # In the announced formula or outside every announcement, E and D are
    # never pushed through.
    assert invoke(["reduce", "--semantics", "ssl", "--formula", "[!E p] q"]) == (0, "E p -> q\n")
    assert invoke(["reduce", "--semantics", "ssl", "--formula", "D [!p] q"]) == (0, "~E ~(p -> q)\n")
    assert invoke(["reduce", "--semantics", "ssl", "--formula", "[!D p] K q"]) == (0, "~E ~p -> K (~E ~p -> q)\n")


def test_reduce_prints_a_long_prefix_run():
    # Parsing, elimination and printing are all iterative, so neither 3,000
    # negations nor a body 3,000 deep under an announcement exhausts the stack.
    assert invoke(["reduce", "--semantics", "topo", "--formula", "~" * 3000 + "p"]) == (
        0, "~" * 3000 + "p\n"
    )
    code, text = invoke(["reduce", "--semantics", "topo", "--formula", "[!p] " + "~" * 3000 + "q"])
    assert (code, text) == (0, "p -> ~(" * 3000 + "p -> q" + ")" * 3000 + "\n")
