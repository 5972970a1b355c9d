"""Parser, printer, complexity measure, and node hashing and equality."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from geopal.formula import (
    And,
    Announce,
    Atom,
    Bot,
    Closure,
    Effort,
    EffortDual,
    Formula,
    Implies,
    Interior,
    Know,
    KnowI,
    Not,
    Or,
    ParseError,
    Possible,
    Top,
    UnsupportedOperator,
    check_fragment,
    children,
    complexity,
    fold,
    parse,
    random_formula,
    rebuild,
    render,
    walk,
)
import geopal.formula as formula
from geopal.formula import _tokenize
from geopal.rewrite import AxiomId, axiom_instance, _single_step, reduce

P, Q, R = Atom("p"), Atom("q"), Atom("r")


def test_parse_single_prefix():
    assert parse("I p") == Interior(P)


def test_parse_announcement_shape():
    assert parse("[!p] K q") == Announce(P, Know(Q))


def test_parse_indexed_knowledge_and_negation():
    assert parse("K1 m_a & ~K2 m_b") == And(
        KnowI(1, Atom("m_a")), Not(KnowI(2, Atom("m_b")))
    )


def test_parse_constants_and_duals():
    assert parse("true") == Top()
    assert parse("false") == Bot()
    assert parse("<!p> q") == Not(Announce(P, Not(Q)))
    assert parse("L p") == Possible(P)
    assert parse("E p & D q") == And(Effort(P), parse("D q"))


def test_parse_precedence_shapes():
    assert parse("p & q | r") == Or(And(P, Q), R)
    assert parse("p -> q -> r") == Implies(P, Implies(Q, R))
    assert parse("~p & q") == And(Not(P), Q)
    assert parse("I p & q") == And(Interior(P), Q)
    assert parse("a & b & c") == And(And(Atom("a"), Atom("b")), Atom("c"))


def test_render_examples():
    assert render(Announce(P, Interior(Q))) == "[!p] I q"
    assert render(And(P, Or(Q, R))) == "p & (q | r)"
    assert render(Not(Know(P))) == "~K p"


def test_render_minimal_parentheses():
    assert render(Or(And(P, Q), R)) == "p & q | r"
    assert render(Implies(Implies(P, Q), R)) == "(p -> q) -> r"
    assert render(And(P, And(Q, R))) == "p & (q & r)"
    assert render(Interior(And(P, Q))) == "I (p & q)"


@pytest.mark.parametrize(
    "text, position_hint",
    [
        ("[!p q", "']'"),
        ("<!p q", "'>'"),
        ("(p & q", "')'"),
        ("p &", "formula"),
        ("X p", "unknown operator"),
        ("K0 p", "agent index"),
        ("K01 p", "agent index"),
        pytest.param("K" + "1" * 5000 + " p", "agent index", id="K1111...-agent index"),
        # Only ASCII digits index an agent: "K" is then the plain prefix.
        ("K\u00b2 p", "unexpected character '\u00b2'"),
        ("K\u0661 p", "unexpected character '\u0661'"),
        ("p @ q", "unexpected character"),
        # Inside nested brackets: the innermost open one names the missing token.
        ("((p)", "expected ')' to close '(' (at position 4)"),
        ("[!(p] q", "expected ')' to close '(' (at position 4)"),
        ("(<!p & q] r)", "expected '>' to close the announcement '<!' (at position 8)"),
        ("[![!p] q)", "expected ']' to close the announcement '[!' (at position 8)"),
        ("(p) q", "unexpected trailing 'IDENT' (at position 4)"),
        ("(p & ())", "expected a formula, found ')' (at position 6)"),
    ],
)
def test_parse_errors_carry_position(text, position_hint):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert position_hint in str(excinfo.value)
    assert excinfo.value.position >= 0


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse("p q")


def test_agent_indices_round_trip():
    for agent in range(1, 31):
        f = KnowI(agent, And(KnowI(agent + 1, P), Q))
        text = render(f)
        assert text == f"K{agent} (K{agent + 1} p & q)"
        assert parse(text) == f
        assert parse(f"K{agent}p") == KnowI(agent, P)


def test_round_trip_fuzz():
    rng = Random(20240)
    for _ in range(400):
        f = random_formula(rng, max_depth=8, modal="ICKLED", agents=3, announce_depth=3)
        assert parse(render(f)) == f


# Reference parser for the precedence check: recursive precedence climbing
# over the same token stream, structured nothing like the shipped loop over
# an explicit stack of open brackets.

_BINARY = {"->": (1, "right", Implies), "|": (2, "left", Or), "&": (3, "left", And)}
_PREFIXES = {
    "I": Interior,
    "C": Closure,
    "K": Know,
    "L": Possible,
    "E": Effort,
    "D": EffortDual,
}


def _ref_parse(text):
    tokens = _tokenize(text)

    def prefix(pos):
        kind, value, _ = tokens[pos]
        if kind == "~":
            inner, pos = prefix(pos + 1)
            return Not(inner), pos
        if kind == "PREFIX":
            inner, pos = prefix(pos + 1)
            return _PREFIXES[value](inner), pos
        if kind == "KI":
            inner, pos = prefix(pos + 1)
            return KnowI(value, inner), pos
        if kind == "[!":
            announced, pos = climb(pos + 1, 0)
            assert tokens[pos][0] == "]"
            inner, pos = prefix(pos + 1)
            return Announce(announced, inner), pos
        if kind == "<!":
            announced, pos = climb(pos + 1, 0)
            assert tokens[pos][0] == ">"
            inner, pos = prefix(pos + 1)
            return Not(Announce(announced, Not(inner))), pos
        if kind == "(":
            inner, pos = climb(pos + 1, 0)
            assert tokens[pos][0] == ")"
            return inner, pos + 1
        if kind == "TRUE":
            return Top(), pos + 1
        if kind == "FALSE":
            return Bot(), pos + 1
        assert kind == "IDENT"
        return Atom(value), pos + 1

    def climb(pos, floor):
        left, pos = prefix(pos)
        while True:
            kind = tokens[pos][0]
            if kind not in _BINARY:
                return left, pos
            level, associativity, build = _BINARY[kind]
            if level < floor:
                return left, pos
            right, pos = climb(pos + 1, level + 1 if associativity == "left" else level)
            left = build(left, right)

    result, pos = climb(0, 0)
    assert tokens[pos][0] == "EOF"
    return result


def test_parser_matches_reference_derivation():
    rng = Random(77)
    for _ in range(50):
        text = render(random_formula(rng, max_depth=6, modal="ICKLED", agents=2, announce_depth=2))
        assert parse(text) == _ref_parse(text)


def test_rebuild_inverts_children():
    rng = Random(12)
    for _ in range(200):
        f = random_formula(rng, max_depth=6, modal="ICKLED", agents=3, announce_depth=2)
        for node in walk(f):
            assert rebuild(node, children(node)) == node
    with pytest.raises(TypeError):
        children("p")


# The recursive printer and measure over the formula as a tree, kept as
# references for the fold-based ones.

_LETTERS = {kind: letter for letter, kind in _PREFIXES.items()}


def _render_reference(f, required=0):
    match f:
        case Atom(name):
            return name
        case Top():
            return "true"
        case Bot():
            return "false"
        case Not(b):
            text, level = "~" + _render_reference(b, 3), 3
        case KnowI(agent, b):
            text, level = f"K{agent} " + _render_reference(b, 3), 3
        case Announce(a, b):
            text, level = "[!" + _render_reference(a, 0) + "] " + _render_reference(b, 3), 3
        case Interior(b) | Closure(b) | Know(b) | Possible(b) | Effort(b) | EffortDual(b):
            text, level = _LETTERS[type(f)] + " " + _render_reference(b, 3), 3
        case And(a, b):
            text, level = _render_reference(a, 2) + " & " + _render_reference(b, 3), 2
        case Or(a, b):
            text, level = _render_reference(a, 1) + " | " + _render_reference(b, 2), 1
        case Implies(a, b):
            text, level = _render_reference(a, 1) + " -> " + _render_reference(b, 0), 0
    return "(" + text + ")" if level < required else text


def _complexity_reference(f):
    if type(f) is Announce:
        return (4 + _complexity_reference(f.announced)) * _complexity_reference(f.body)
    return 1 + sum(map(_complexity_reference, children(f)))


def test_render_and_complexity_match_the_recursive_references():
    rng = Random(33)
    repertoires = [("topo", "IC", 0), ("ssl", "KLED", 0), ("product", "", 3)]
    for draw in range(1000):
        semantics, modal, agents = repertoires[draw % 3]
        f = random_formula(rng, max_depth=5, modal=modal, agents=agents, announce_depth=2)
        for g in (f, reduce(f, semantics)):
            assert render(g) == _render_reference(g)
            assert complexity(g) == _complexity_reference(g)


def test_render_and_complexity_on_a_deep_chain():
    f = P
    for _ in range(20_000):
        f = Not(f)
    assert render(f) == "~" * 20_000 + "p"
    assert complexity(f) == 20_001


def test_fold_steps_each_shared_node_once():
    f = P
    for _ in range(16):
        f = And(f, Not(f))  # a DAG of 33 objects, a tree of about 2**17 nodes
    steps = []
    assert fold(f, lambda node, values: steps.append(node) or 1 + sum(values)) == complexity(f)
    assert len(steps) == 1 + 2 * 16


def test_complexity_base_cases():
    assert complexity(P) == 1
    assert complexity(Know(P)) == complexity(P) + 1
    assert complexity(Announce(P, Q)) > complexity(Implies(P, Q))


def test_complexity_positive_and_strictly_monotone():
    rng = Random(9)
    for _ in range(200):
        f = random_formula(rng, max_depth=6, modal="ICKLED", agents=2, announce_depth=2)
        for node in walk(f):
            assert complexity(node) >= 1
            for child in children(node):
                assert complexity(node) > complexity(child)


def test_complexity_drops_across_every_reduction_schema():
    # All named schemas, instantiated with atoms.
    cases = [
        axiom_instance(AxiomId("ssl", 1), P, Q),
        axiom_instance(AxiomId("ssl", 2), P, Q),
        axiom_instance(AxiomId("ssl", 3), P, Q, R),
        axiom_instance(AxiomId("ssl", 4), P, Q),
        axiom_instance(AxiomId("ssl", 5), P, Q),
        axiom_instance(AxiomId("topo", 4), P, Q),
        axiom_instance(AxiomId("product", 4), P, Q),
    ]
    # The distribution steps for the connectives the rewriter also handles.
    for body in (Or(Q, R), Implies(Q, R), And(Q, R), Top(), Bot()):
        cases.append((Announce(P, body), _single_step(P, body)))
    for lhs, rhs in cases:
        assert complexity(lhs) > complexity(rhs), (render(lhs), render(rhs))


def _walk_reference(f):
    """The recursive preorder walk over the formula as a tree."""
    yield f
    for child in children(f):
        yield from _walk_reference(child)


def _fresh_copy(f):
    """f with every node a distinct object (the fuzzer shares TOP and BOT)."""
    kids = children(f)
    return rebuild(f, tuple(map(_fresh_copy, kids))) if kids else dataclasses.replace(f)


def test_walk_is_the_preorder_without_repeats():
    rng = Random(31)
    for _ in range(200):
        f = random_formula(rng, max_depth=6, modal="ICKLED", agents=2, announce_depth=2)
        tree = _fresh_copy(f)
        assert [id(n) for n in walk(tree)] == [id(n) for n in _walk_reference(tree)]
        first_visits = {id(n): n for n in _walk_reference(f)}  # dicts keep first insertion order
        assert [id(n) for n in walk(f)] == list(first_visits)


def test_walk_yields_each_shared_node_once():
    f = P
    layers = [f]
    for _ in range(16):
        f = And(f, Not(f))  # a DAG of 33 objects, a tree of about 2**17 nodes
        layers.append(f)
    nodes = list(walk(f))
    assert nodes[0] is f
    assert len(nodes) == 1 + 2 * 16
    assert len({id(node) for node in nodes}) == len(nodes)
    assert {id(node) for node in nodes} >= {id(layer) for layer in layers}


def test_parse_long_prefix_runs():
    negated = P
    for _ in range(3000):
        negated = Not(negated)
    assert parse("~" * 3000 + "p") == negated
    mixed = parse("~I K1 C E ~D L K " * 500 + "(p & [!q] ~~r)")
    for node_type in (Not, Interior, KnowI, Closure, Effort, Not, EffortDual, Possible, Know) * 500:
        assert type(mixed) is node_type
        mixed = mixed.body
    assert mixed == And(P, Announce(Q, Not(Not(R))))


def test_check_fragment_on_deep_chain():
    f = P
    for _ in range(5000):
        f = Not(f)
    check_fragment(f, "topo")
    with pytest.raises(UnsupportedOperator, match="operator Know is outside the topo fragment"):
        check_fragment(Not(And(f, Know(f))), "topo")


def test_parse_deeply_nested_brackets():
    # Open brackets wait on the parser's own stack, not on Python's.
    assert parse("(" * 1000 + "p" + ")" * 1000) == P
    nested = P
    for _ in range(1000):
        nested = Announce(nested, Q)
    assert parse("[!(" * 1000 + "p" + ")] q" * 1000) == nested
    assert parse(render(nested)) == nested


# -- hashing and equality ----------------------------------------------------


def _examples():
    """One node of every concrete class."""
    return [
        P, Top(), Bot(), Not(P), And(P, Q), Or(P, Q), Implies(P, Q), Interior(P),
        Closure(P), Know(P), Possible(P), Effort(P), EffortDual(P), KnowI(1, P),
        Announce(P, Q),
    ]


def test_every_node_class_uses_the_cached_hash_and_iterative_equality():
    classes = {
        obj for name, obj in vars(formula).items()
        if isinstance(obj, type) and issubclass(obj, Formula)
        and obj is not Formula and not name.startswith("_")
    }
    assert classes == {type(node) for node in _examples()}
    for cls in classes:
        assert cls.__hash__ is Formula.__hash__, cls
        assert cls.__eq__ is Formula.__eq__, cls
    for node in _examples():
        twin = copy.deepcopy(node)  # rebuilt through the constructor
        assert twin is not node and twin == node and hash(twin) == hash(node)


def _not_chain(atom: str, depth: int) -> Formula:
    f = Atom(atom)
    for _ in range(depth):
        f = Not(f)
    return f


def _doubling(atom: str, depth: int) -> Formula:
    """A DAG of 2 * depth + 1 objects whose tree has about 2**depth nodes."""
    f = Atom(atom)
    for _ in range(depth):
        f = And(f, Not(f))
    return f


def test_hash_and_equality_do_not_recurse():
    left, right, other = _not_chain("p", 20000), _not_chain("p", 20000), _not_chain("q", 20000)
    assert left is not right
    assert hash(left) == hash(right) and left == right and not left != right
    assert hash(left) != hash(other) and left != other and not left == other
    # Equal but distinct DAGs compare each pair of node objects once.
    assert _doubling("p", 300) == _doubling("p", 300)
    assert _doubling("p", 300) != _doubling("q", 300)


def test_equality_sees_type_and_scalar_fields():
    assert KnowI(1, P) != KnowI(2, P)
    assert Atom("p") != Atom("q")
    assert Not(P) != Interior(P) and Top() != Bot() and And(P, Q) != Or(P, Q)
    assert Top() == Top() and hash(Top()) == hash(Top())
    assert (P == "p") is False and (P != "p") is True
    assert P != None and Not(P) != ("body", P)


def test_deep_chains_print_pickle_and_copy():
    chain = _not_chain("p", 3000)
    assert repr(chain) == "Not(body=" * 3000 + "Atom(name='p')" + ")" * 3000
    for twin in (pickle.loads(pickle.dumps(chain)), copy.deepcopy(chain)):
        assert twin is not chain and twin == chain
    assert repr(KnowI(2, And(P, Top()))) == "KnowI(agent=2, body=And(left=Atom(name='p'), right=Top()))"


def test_pickles_and_copies_keep_a_dag_shared():
    nested = "p"
    for _ in range(4):
        nested = f"[!({nested}) | p] I (({nested}) & q)"
    for f in (reduce(parse(nested), "topo"), _doubling("p", 300)):
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert twin == f and len(list(walk(twin))) == len(list(walk(f)))


def test_copies_keep_equality_and_hash():
    f = parse("[!p & K1 q] ~(r -> K2 p)")
    for twin in (copy.deepcopy(f), copy.copy(f), dataclasses.replace(f), pickle.loads(pickle.dumps(f))):
        assert twin == f and hash(twin) == hash(f)
    moved = dataclasses.replace(KnowI(1, P), agent=2)
    assert moved == KnowI(2, P) and hash(moved) == hash(KnowI(2, P))


_CHILD = """
import pickle, sys
from geopal.formula import parse
f = pickle.loads(sys.stdin.buffer.read())
fresh = parse(sys.argv[1])
assert f == fresh and hash(f) == hash(fresh) and {fresh: "found"}[f] == "found"
print(hash(fresh))
"""


def test_pickles_rebuild_the_hash_under_another_hash_seed():
    # The cached hash depends on the string-hash seed; an unpickled node must
    # carry the receiving process's hash, or dict lookups there miss.
    text = "[!p & K1 q] ~(r -> K2 mud_a)"
    f = parse(text)
    src = str(Path(formula.__file__).resolve().parents[1])
    seen = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        child = subprocess.run(
            [sys.executable, "-c", _CHILD, text],
            input=pickle.dumps(f), env=env, capture_output=True, timeout=60,
        )
        assert child.returncode == 0, child.stderr.decode()
        seen.add(int(child.stdout))
    assert len(seen) == 2  # the two seeds do give the node different hashes
