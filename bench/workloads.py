"""The four benchmark workloads: inputs from a seed, the op, the check.

A workload turns a seed into an ordered list of cases (`build`).  A case
holds plain data: tuples, strings and numbers.  Before each op, outside
the timed region, `inputs` turns the case into fresh geopal objects, so
state cached on a model or game tree by one op cannot speed up a later op
on the same case.  `run` performs one op through geopal's public API, and
`check` compares its output with a reference that the timed code did not
compute; it returns None or the reason the output is wrong.  References
are computed on first use and kept on the case.

Inputs depend only on the seed: every random choice comes from
`random.Random` seeded from it, and models and formulas are built by the
benchmark itself through public constructors, so a later change to
geopal's own random generators does not change the inputs.  The one
exception is `axiom-corpus`, whose op is `check_axiom(axiom, 1, seed)` and
draws its model inside geopal by definition.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as cartesian
from pathlib import Path
from random import Random

from geopal.formula import (
    And, Announce, Atom, Closure, Effort, EffortDual, Implies, Interior,
    Know, KnowI, Not, Or, Possible,
)
from oracles import SslOracle, TopoOracle, oracle_for, oracle_locus

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
GOLDEN = DATA / "golden"


@dataclass
class Case:
    kind: str
    spec: tuple
    ref: object = None


class Workload:
    name: str
    why: str
    # Percentile reported as op_tail_ms, chosen for a steady value across
    # seeds (see METRICS.md); at the workload's run size at least ten
    # samples lie beyond it (the run records the actual count).
    tail_pct: float
    # Ops in one traced run (a fixed count, so counters repeat exactly).
    trace_ops: int

    def build(self, seed: int) -> list[Case]:
        raise NotImplementedError

    def inputs(self, case: Case) -> tuple:
        return case.spec

    def run(self, inputs: tuple):
        raise NotImplementedError

    def check(self, case: Case, inputs: tuple, output) -> str | None:
        raise NotImplementedError


def _rng(seed: int, salt: str) -> Random:
    return Random(f"{salt}:{seed}")


# ---------------------------------------------------------------------------
# Random inputs built by the benchmark


def random_opens(rng: Random, n: int, k: int) -> list[frozenset]:
    """Opens of the topology generated by k random subsets of range(n)."""
    full = frozenset(range(n))
    opens = {frozenset(), full}
    for _ in range(k):
        opens.add(frozenset(x for x in range(n) if rng.random() < 0.5))
    changed = True
    while changed:
        changed = False
        for a, b in combinations(list(opens), 2):
            for c in (a | b, a & b):
                if c not in opens:
                    opens.add(c)
                    changed = True
    return sorted(opens, key=lambda o: (len(o), sorted(o)))


def random_area(rng: Random, items) -> tuple:
    return tuple(x for x in items if rng.random() < 0.5)


def topo_spec(rng: Random, n: int, k: int) -> tuple:
    points = tuple(range(n))
    opens = tuple(tuple(sorted(o)) for o in random_opens(rng, n, k))
    return "topo", points, opens, (("p", random_area(rng, points)), ("q", random_area(rng, points)))


def ssl_spec(rng: Random, n: int, sets: int) -> tuple:
    points = tuple(range(n))
    sigma = tuple(s for s in (random_area(rng, points) for _ in range(sets)) if s) or (points,)
    return "ssl", points, sigma, (("p", random_area(rng, points)), ("q", random_area(rng, points)))


def product_spec(rng: Random, sizes: tuple[int, ...]) -> tuple:
    factors = tuple(
        (tuple(range(n)), tuple(tuple(sorted(o)) for o in random_opens(rng, n, rng.randint(0, 2))))
        for n in sizes
    )
    worlds = sorted(cartesian(*(range(n) for n in sizes)))
    return "product", factors, (("p", random_area(rng, worlds)), ("q", random_area(rng, worlds)))


def make_model(spec: tuple):
    """A fresh geopal model from a topo, ssl or product spec."""
    from geopal.product import ProductModel
    from geopal.sslmodel import SSLModel
    from geopal.topology import Topology
    from geopal.topomodel import TopoModel

    kind = spec[0]
    if kind == "topo":
        return TopoModel.from_sets(spec[1], spec[2], dict(spec[3]))
    if kind == "ssl":
        return SSLModel.from_sets(spec[1], spec[2], dict(spec[3]))
    factors = [Topology.from_sets(points, opens) for points, opens in spec[1]]
    return ProductModel.full(factors, dict(spec[2]))


_MODAL = {
    "topo": (Interior, Closure),
    "ssl": (Know, Possible, Effort, EffortDual),
    "product": (lambda b: KnowI(1, b), lambda b: KnowI(2, b)),
}
# Modal operators that dual normalization expands to three nodes (~M~).
_DUALS = {"topo": (1,), "ssl": (1, 3), "product": ()}


def random_shape(rng: Random, semantics: str, depth: int, announce: int) -> tuple:
    """Random formula as nested tuples; `announce` bounds announcement nesting.

    Shapes are cheap to draw and measure; `build` turns one into a formula.
    """
    if depth <= 0 or rng.random() < 0.15:
        return ("atom", "p" if rng.random() < 0.5 else "q")
    pick = rng.random()
    if announce > 0 and pick < 0.3:
        announced = random_shape(rng, semantics, depth - 1, announce - 1)
        return ("announce", announced, random_shape(rng, semantics, depth - 1, announce))
    if pick < 0.55:
        index = int(rng.random() * len(_MODAL[semantics]))
        return ("modal", index, random_shape(rng, semantics, depth - 1, announce))
    if pick < 0.65:
        return ("not", random_shape(rng, semantics, depth - 1, announce))
    return (
        "binary",
        int(rng.random() * 3),
        random_shape(rng, semantics, depth - 1, announce),
        random_shape(rng, semantics, depth - 1, announce),
    )


def build(shape: tuple, semantics: str):
    kind = shape[0]
    if kind == "atom":
        return Atom(shape[1])
    if kind == "announce":
        return Announce(build(shape[1], semantics), build(shape[2], semantics))
    if kind == "modal":
        return _MODAL[semantics][shape[1]](build(shape[2], semantics))
    if kind == "not":
        return Not(build(shape[1], semantics))
    return (And, Or, Implies)[shape[1]](build(shape[2], semantics), build(shape[3], semantics))


def reduced_size(shape: tuple, semantics: str) -> int:
    """Tree size of the announcement-free formula `reduce` returns for a shape.

    Counts (leaves, unary nodes, binary nodes) after dual normalization;
    pushing an announced formula A through a body copies A once per leaf
    and unary node of the body, and adds one implication for each.
    """
    duals = _DUALS[semantics]

    def counts(g):
        kind = g[0]
        if kind == "atom":
            return 1, 0, 0
        if kind == "announce":
            a, b = counts(g[1]), counts(g[2])
            k = b[0] + b[1]
            return b[0] + k * a[0], b[1] + k * a[1], b[2] + k + k * a[2]
        if kind == "binary":
            x, y = counts(g[2]), counts(g[3])
            return x[0] + y[0], x[1] + y[1], x[2] + y[2] + 1
        leaves, unary, binary = counts(g[-1])
        return leaves, unary + (3 if kind == "modal" and g[1] in duals else 1), binary

    return sum(counts(shape))


def chained_shape(depth: int) -> tuple:
    """F_0 = p, F_k+1 = [!F_k | p] I (F_k & q): reduction blows up as a tree."""
    f = p = ("atom", "p")
    for _ in range(depth):
        f = ("announce", ("binary", 1, f, p), ("modal", 0, ("binary", 0, f, ("atom", "q"))))
    return f


# ---------------------------------------------------------------------------
# axiom-corpus


SCHEMAS = tuple(
    [("topo", i) for i in range(1, 5)]
    + [("ssl", i) for i in range(1, 6)]
    + [("product", i) for i in range(1, 5)]
)
CORPUS_MODELS = 300


class AxiomCorpus(Workload):
    name = "axiom-corpus"
    why = "check_axiom on all 13 schemas over seeded models: many small models, read-heavy use of the three evaluators"
    tail_pct = 95.0
    trace_ops = 13 * 40

    def build(self, seed):
        from geopal.rewrite import AxiomId

        rng = _rng(seed, self.name)
        models = [seed * 1000 + offset for offset in range(CORPUS_MODELS)]
        orders = {
            semantics: stratified(rng, models, lambda s: corpus_model_size(semantics, s))
            for semantics in ("topo", "ssl", "product")
        }
        axioms = [AxiomId(s, i) for s, i in SCHEMAS]
        return [
            Case(str(axiom), (axiom, orders[axiom.semantics][r]))
            for r in range(CORPUS_MODELS)
            for axiom in axioms
        ]

    def run(self, inputs):
        from geopal.rewrite import check_axiom

        axiom, model_seed = inputs
        return check_axiom(axiom, 1, model_seed)

    def check(self, case, inputs, report):
        axiom, model_seed = inputs
        found = len(report.counterexamples)
        if case.kind != "ssl-5":
            return None if found == 0 else f"{case.kind} is sound but reported {found} counterexamples"
        if case.ref is None:
            case.ref = effort_disagreements(model_seed)
        if found != case.ref:
            return f"ssl-5 model {model_seed}: {found} counterexamples, oracle finds {case.ref}"
        if model_seed < CORPUS_MODELS and found != SSL5_PINNED.get(model_seed, 0):
            return f"ssl-5 model {model_seed}: pinned count is {SSL5_PINNED.get(model_seed, 0)}"
        for ce in report.counterexamples:
            oracle = SslOracle.of(ce.model)
            locus = oracle_locus(ce.model, ce.locus)
            lhs, rhs = oracle.holds(locus, ce.lhs), oracle.holds(locus, ce.rhs)
            if (lhs, rhs) != (ce.lhs_value, ce.rhs_value) or lhs == rhs:
                return f"ssl-5 counterexample at {ce.locus} not confirmed by the oracle"
        return None


def corpus_model_size(semantics: str, model_seed: int) -> int:
    """Loci, or opens for topo, of the model check_axiom draws for a seed.

    The draws mirror check_axiom's samplers; the size drives an op's cost.
    """
    from geopal.product import random_product_model
    from geopal.sslmodel import random_ssl_model, situations
    from geopal.topomodel import random_topomodel

    if semantics == "topo":
        return len(random_topomodel(model_seed, n=4, k=3).space.opens)
    if semantics == "ssl":
        return len(situations(random_ssl_model(model_seed, max_points=5, max_sets=5)))
    return len(random_product_model(model_seed, max_factors=3, max_points=3).worlds)


def stratified(rng: Random, items: list, key, strata: int = 10) -> list:
    """Items in rounds of one per size stratum, so every prefix of whole
    rounds has the same mix of sizes; order within strata is random."""
    ranked = sorted(items, key=lambda item: (key(item), rng.random()))
    per = len(ranked) // strata
    groups = [ranked[i * per:(i + 1) * per] for i in range(strata)]
    for group in groups:
        rng.shuffle(group)
    return [group[j] for j in range(per) for group in rng.sample(groups, strata)]


def effort_disagreements(model_seed: int) -> int:
    """Instantiations of the effort schema that some situation falsifies.

    The model is the harness's own draw for this seed; both sides of every
    instantiation are evaluated by the subset-space oracle.
    """
    from geopal.rewrite import AxiomId, axiom_instance, schema_pool
    from geopal.sslmodel import random_ssl_model

    model = random_ssl_model(model_seed, max_points=5, max_sets=5)
    oracle = SslOracle.of(model)
    loci = oracle.loci()
    pools = schema_pool("ssl")
    axiom = AxiomId("ssl", 5)
    count = 0
    for phi in pools["phi"]:
        for psi in pools["psi"]:
            lhs, rhs = axiom_instance(axiom, phi, psi)
            if any(oracle.holds(x, lhs) != oracle.holds(x, rhs) for x in loci):
                count += 1
    return count


# Effort-schema counterexamples per model of the 300-model corpus at seed 0
# (models without one are omitted); they add up to the 42 recorded in
# reports/ssl_axiom5_report.txt.  Computed with the subset-space oracle.
SSL5_PINNED = {
    9: 5, 27: 2, 44: 1, 74: 4, 93: 1, 94: 1, 99: 3, 136: 1, 156: 2,
    163: 5, 182: 1, 219: 1, 237: 4, 243: 5, 253: 3, 268: 1, 291: 2,
}


# ---------------------------------------------------------------------------
# reduce-eval


# Size classes by the tree size of the reduced formula: name -> (low, high],
# and the (depth, announcement nesting) that formulas are drawn with.
SIZE_CLASSES = {"S": (0, 100, 4, 1), "M": (100, 1000, 5, 2), "L": (1000, 3000, 6, 2)}
# One block: per semantics four small, two medium and one large formula,
# plus the chained formula at depth 3 on a topological model.
REDUCE_BLOCK = tuple(
    (semantics, size)
    for semantics in ("topo", "ssl", "product")
    for size, count in (("S", 4), ("M", 2), ("L", 1))
    for _ in range(count)
) + (("chained", 3),)


class ReduceEval(Workload):
    name = "reduce-eval"
    why = "reduce then equivalent_on for nested announcements: few formulas, large shared reduced DAGs"
    tail_pct = 97.0
    trace_ops = len(REDUCE_BLOCK) * 12
    # A 20 s run cycles through all blocks about twice, so the oracle's
    # reference for a case is computed once and reused.
    blocks = 120

    def build(self, seed):
        rng = _rng(seed, self.name)
        cases = []
        for _ in range(self.blocks):
            block = list(REDUCE_BLOCK)
            rng.shuffle(block)
            for semantics, size in block:
                cases.append(self._case(rng, semantics, size))
        return cases

    def _case(self, rng, semantics, size):
        if semantics == "chained":
            model = topo_spec(rng, rng.randint(4, 6), rng.randint(1, 3))
            return Case("chained", ("topo", model, chained_shape(size)))
        if semantics == "topo":
            model = topo_spec(rng, rng.randint(4, 6), rng.randint(1, 3))
        elif semantics == "ssl":
            model = ssl_spec(rng, rng.randint(3, 5), rng.randint(2, 5))
        else:
            model = product_spec(rng, (rng.randint(2, 3), rng.randint(2, 3)))
        low, high, depth, nesting = SIZE_CLASSES[size]
        while True:
            shape = random_shape(rng, semantics, depth, nesting)
            if low < reduced_size(shape, semantics) <= high:
                return Case(f"{semantics}-{size}", (semantics, model, shape))

    def inputs(self, case):
        semantics, model, shape = case.spec
        return semantics, make_model(model), build(shape, semantics)

    def run(self, inputs):
        from geopal.rewrite import equivalent_on, reduce

        semantics, model, f = inputs
        reduced = reduce(f, semantics)
        return reduced, equivalent_on(model, f, reduced)

    def check(self, case, inputs, output):
        """The verdict must match the oracles on f and on the reduced formula.

        Reduction is sound for topo and product, so there the oracles must
        find reduce(f) equivalent to f.  For ssl the effort step is unsound
        and only the verdict is checked.  The oracle runs on the first
        reduced formula a case produces; later runs of the same case reuse
        the loci it found to disagree.
        """
        semantics, model, f = inputs
        reduced, verdict = output
        if case.ref is None:
            truth = original_truth(model, f)
            oracle = oracle_for(model)
            case.ref = frozenset(x for x, value in truth.items() if oracle.holds(x, reduced) != value)
        differs = case.ref
        if differs and semantics != "ssl":
            return f"{case.kind}: reduce(f) differs from f at {len(differs)} loci"
        if bool(verdict) != (not differs):
            return f"{case.kind}: equivalent_on says {bool(verdict)}, oracles disagree at {len(differs)} loci"
        if not verdict and oracle_locus(model, verdict.witness) not in differs:
            return f"{case.kind}: witness {verdict.witness!r} is not a disagreement"
        return None


def original_truth(model, f) -> dict:
    """Truth of f at every locus: topomodel.satisfies for topological
    models, the quantifier oracles otherwise."""
    from geopal.topomodel import TopoModel, satisfies

    if isinstance(model, TopoModel):
        return {i: satisfies(model, label, f) for i, label in enumerate(model.space.points)}
    oracle = oracle_for(model)
    return {x: oracle.holds(x, f) for x in oracle.loci()}


# ---------------------------------------------------------------------------
# dynamics


MUDDY = tuple(
    (n, "".join(kids))
    for n in range(1, 7)
    for size in range(1, n + 1)
    for kids in combinations("abcdef"[:n], size)
)


class Dynamics(Workload):
    name = "dynamics"
    why = "limit runs: muddy children n<=6, rationality announcements on game trees, limit_model on three semantics"
    tail_pct = 99.5
    trace_ops = 300
    games = 500
    limits = 300

    def build(self, seed):
        rng = _rng(seed, self.name)
        cases = [Case(f"muddy-{n}", (n, kids)) for n, kids in MUDDY]
        cases += [Case("game", random_game(rng)) for _ in range(self.games)]
        for i in range(self.limits):
            semantics = ("topo", "ssl", "product")[i % 3]
            if semantics == "topo":
                model = topo_spec(rng, rng.randint(8, 10), rng.randint(2, 4))
            elif semantics == "ssl":
                model = ssl_spec(rng, rng.randint(7, 9), rng.randint(6, 10))
            else:
                model = product_spec(rng, (4, 4, rng.randint(3, 4)))
            shape = random_shape(rng, semantics, 4, 1)
            cases.append(Case(f"limit-{semantics}", (semantics, model, shape)))
        rng.shuffle(cases)
        return cases

    def inputs(self, case):
        if case.kind.startswith("muddy"):
            return ("muddy", *case.spec)
        if case.kind == "game":
            return "game", make_game(case.spec)
        semantics, model, shape = case.spec
        return "limit", make_model(model), build(shape, semantics)

    def run(self, inputs):
        kind, *args = inputs
        if kind == "muddy":
            from geopal.dynamics import muddy_scenario

            return muddy_scenario(*args)
        if kind == "game":
            from geopal.games import bi_via_announcements

            return bi_via_announcements(*args)
        from geopal.dynamics import limit_model

        return limit_model(*args)

    def check(self, case, inputs, output):
        if case.kind.startswith("muddy"):
            from geopal.dynamics import kripke_oracle

            if case.ref is None:
                case.ref = kripke_oracle(*case.spec)
            ref = case.ref
            got = (output.rounds, output.knowledge, output.ignorance_rounds,
                   output.unpointed_sizes, output.unpointed_outcome)
            want = (ref.rounds, ref.knowledge, ref.ignorance_rounds,
                    ref.unpointed_sizes, ref.unpointed_outcome)
            return None if got == want else f"muddy {case.spec}: differs from the Kripke oracle"
        if case.kind == "game":
            if case.ref is None:
                case.ref = induction_leaf(case.spec)
            leaves = output.surviving & inputs[1].leaf_ids
            if leaves != {case.ref} or not output.matches_backward_induction:
                return f"game: limit leaves {sorted(leaves)}, backward induction gives {case.ref}"
            return None
        if case.ref is None:
            case.ref = oracle_limit(*inputs[1:])
        got = (output.sizes, output.outcome, output.announcement_valid_in_limit)
        if got != case.ref:
            return f"{case.kind}: limit {got} differs from the oracle's {case.ref}"
        return None


def random_game(rng: Random, nodes: int = 85, depth: int = 6, branching: int = 4) -> tuple:
    """Game tree spec with a fixed node count, grown by random attachment.

    Returns (children, mover, payoffs): child ids and the player to move
    per node, and (payoff 1, payoff 2) per leaf.  Payoffs are distinct per
    player, so the tree is generic.
    """
    children: list[list[int]] = [[]]
    level = [0]
    open_ = [0]
    while len(children) < nodes:
        parent = rng.choice(open_)
        children.append([])
        level.append(level[parent] + 1)
        children[parent].append(len(children) - 1)
        if level[-1] < depth:
            open_.append(len(children) - 1)
        if len(children[parent]) == branching:
            open_.remove(parent)
    leaves = [i for i in range(nodes) if not children[i]]
    draws = [rng.sample(range(3 * len(leaves)), len(leaves)) for _ in range(2)]
    payoffs = {leaf: (draws[0][k], draws[1][k]) for k, leaf in enumerate(leaves)}
    mover = tuple(rng.randint(1, 2) for _ in range(nodes))
    return tuple(map(tuple, children)), mover, tuple(sorted(payoffs.items()))


def make_game(spec: tuple):
    from geopal.games import GameNode, GameTree

    children, mover, payoffs = spec
    payoffs = dict(payoffs)

    def node(i):
        if not children[i]:
            return GameNode.leaf(*map(Fraction, payoffs[i]))
        return GameNode.decision(mover[i], [node(c) for c in children[i]])

    return GameTree(node(0))


def induction_leaf(spec: tuple) -> int:
    """Leaf that backward induction reaches, as a node id of the spec.

    geopal numbers tree nodes in preorder, children in order; the spec's
    node ids are mapped to that numbering.
    """
    children, mover, payoffs = spec
    payoffs = dict(payoffs)
    preorder = {}

    def number(i):
        preorder[i] = len(preorder)
        for c in children[i]:
            number(c)

    def value(i):
        if not children[i]:
            return payoffs[i], i
        return max((value(c) for c in children[i]), key=lambda v: v[0][mover[i] - 1])

    number(0)
    return preorder[value(0)[1]]


def oracle_limit(model, f):
    """Stage sizes, outcome and final validity of announcing f until stable."""
    oracle = oracle_for(model)

    def size(o):
        if isinstance(o, SslOracle):
            return len(o.points) + sum(len(u) for u in o.sigma)
        if isinstance(o, TopoOracle):
            return len(o.labels)
        return len(o.worlds)

    sizes = [size(oracle)]
    while True:
        updated = oracle.updated(f)
        if updated.state() == oracle.state():
            break
        oracle = updated
        sizes.append(size(oracle))
    loci = oracle.loci()
    valid = all(oracle.holds(x, f) for x in loci) if loci else None
    return tuple(sizes), "stabilized-nonempty" if loci else "empty", valid


# ---------------------------------------------------------------------------
# cli-goldens

# The golden invocations of tests/test_cli.py: (name, argv, exit code);
# model paths are relative to tests/data.
GOLDENS = (
    ("check_topo_interior", ["check", "--model", "@sier.topo.json", "--at", "0", "--formula", "I p"], 0),
    ("check_topo_closure", ["check", "--model", "@tri.topo.json", "--at", "2", "--formula", "C q"], 0),
    ("check_ssl_effort", ["check", "--model", "@pair.ssl.json", "--at", "s@s,t", "--formula", "E K p"], 0),
    ("check_product_know", ["check", "--model", "@duo.product.json", "--at", "1,0", "--formula", "K2 p"], 0),
    ("update_topo_atom", ["update", "--model", "@sier.topo.json", "--formula", "p"], 0),
    ("update_ssl_atom", ["update", "--model", "@pair.ssl.json", "--formula", "p"], 0),
    ("update_product_atom", ["update", "--model", "@duo.product.json", "--formula", "p"], 0),
    ("reduce_topo_interior", ["reduce", "--semantics", "topo", "--formula", "[!p] I q"], 0),
    ("reduce_ssl_conj", ["reduce", "--semantics", "ssl", "--formula", "[!p] (K q & r)"], 0),
    ("reduce_product_know", ["reduce", "--semantics", "product", "--formula", "[!p | q] K2 r"], 0),
    ("limit_topo_atom", ["limit", "--model", "@sier.topo.json", "--formula", "p"], 0),
    ("limit_topo_interior", ["limit", "--model", "@tri.topo.json", "--formula", "I p"], 0),
    ("limit_product_conj", ["limit", "--model", "@duo.product.json", "--formula", "p & q"], 0),
    ("ck_duo_disjunction", ["ck", "--model", "@duo.product.json", "--formula", "p | q"], 0),
    ("ck_mixed_atom", ["ck", "--model", "@mixed.product.json", "--formula", "p"], 0),
    ("muddy_three_ab", ["muddy", "--children", "3", "--muddy", "a,b"], 0),
    ("muddy_two_a", ["muddy", "--children", "2", "--muddy", "a"], 0),
    ("bi_handoff", ["bi", "--game", "@handoff.game.json"], 0),
    ("bi_fractions", ["bi", "--game", "@fractions.game.json"], 0),
    ("bi_tie_flagged", ["bi", "--game", "@tie.game.json"], 1),
    ("persistent_witness", ["persistent", "--model", "@lp.ssl.json", "--formula", "L p"], 1),
    ("persistent_immune", ["persistent", "--model", "@pair.ssl.json", "--formula", "p", "--announcements", "q; K p"], 0),
    ("axioms_topo_interior", ["axioms", "--semantics", "topo", "--axiom", "4", "--models", "25", "--seed", "7"], 0),
    ("axioms_ssl_effort", ["axioms", "--semantics", "ssl", "--axiom", "5", "--models", "25", "--seed", "7"], 1),
    ("intervals_demo", ["example-intervals"], 0),
)


class CliGoldens(Workload):
    name = "cli-goldens"
    why = "the 25 golden CLI invocations in-process: model loading, topology checks on load, rendering, intervals"
    tail_pct = 97.0
    trace_ops = 4 * len(GOLDENS)
    passes = 40

    def build(self, seed):
        rng = _rng(seed, self.name)
        cases = []
        for name, argv, code in GOLDENS:
            argv = [str(DATA / a[1:]) if a.startswith("@") else a for a in argv]
            expected = (GOLDEN / f"{name}.txt").read_bytes()
            cases.append(Case(name, tuple(argv), ref=(code, expected)))
        order = []
        for _ in range(self.passes):
            rng.shuffle(cases)
            order += cases
        return order

    def run(self, inputs):
        from geopal.cli import run

        out = io.StringIO()
        code = run(list(inputs), out=out, err=out)
        return code, out.getvalue()

    def check(self, case, inputs, output):
        code, text = output
        want_code, want_bytes = case.ref
        if code != want_code:
            return f"{case.kind}: exit {code}, golden {want_code}"
        if text.encode("utf-8") != want_bytes:
            return f"{case.kind}: stdout differs from the golden file"
        return None


WORKLOADS = {w.name: w for w in (AxiomCorpus(), ReduceEval(), Dynamics(), CliGoldens())}
