"""Announcement elimination and the axiom-validity harness.

Elimination first normalizes duals (C, L, D) into negation form, then pushes
announcements inward with one schema per body shape:

    [f] p          ->  f -> p               (also for true, false)
    [f] ~g         ->  f -> ~[f] g
    [f] (g & h)    ->  [f] g & [f] h        (| and -> distribute the same way)
    [f] I g        ->  f -> I [f] g         (topological models)
    [f] K g        ->  f -> K [f] g         (subset spaces)
    [f] E g        ->  f -> E [f] g         (subset spaces; see below)
    [f] Ki g       ->  f -> Ki [f] g        (product models)

Nested announcements need no composition law: the announced formula and the
body are eliminated first.  `_single_step` is the one table of these
schemas.  `reduce` is one `formula.fold`: at each announcement it folds
`_single_step` over the already eliminated body, so each node of that body
is pushed once.  `_single_step` builds its result through a `make(node,
values)` argument, so it has two readings: `reduce` and `axiom_instance`
read it as formula nodes (`rebuild`), and `check_axiom` reads it on a
model's masks (`Model._value`), where each pushed [f] g is the update step
`Model._announce(g, mask of f)`.  So `check_axiom` probes the rules
`reduce` applies, with no second table.  A left side [f] g is the schema's
definition, and `check_axiom` reads it as that same update step.  Both
sides are built as nodes only for a counterexample it reports.  Every step
strictly decreases `formula.complexity`, so elimination terminates.

The effort schema is the one member of the set whose soundness is not
guaranteed by the update semantics; `check_axiom` probes each schema
empirically on random models and reports re-verified counterexamples.  Its
instantiation pool is deliberately small: the atoms p and q, one boolean
layer over them, one modal layer over them, and boolean combinations of the
two layers (these last are what catch the effort schema).

Modal truth is invariant under disjoint unions, and the announcement update
of a union is the union of the updates, so `check_axiom` reads both sides
once per run of sampled models, on their disjoint union, where each model's
loci form its block.  An update depends only on the announced mask, so on
each union the announced formulas are grouped by their mask.  The same
invariance lets the distinct masks of a small union be read together: copies
of the union side by side (`Model.tile`, the same `formula.disjoint_union`),
copy g announcing the g-th mask, so every body is read once per tile of
masks.  Only a model whose block of the two sides' difference is nonzero,
in some copy, is checked again, on its own and through the pointwise
evaluators, so a report is what checking every model by itself would give.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .formula import (
    DUALS,
    FRAGMENTS,
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
    Possible,
    Top,
    check_fragment,
    children,
    disjoint_union,
    fold,
    rebuild,
)
from .product import random_product_model
from .sslmodel import random_ssl_model
from .topology import bits
from .topomodel import random_topomodel

SEMANTICS = tuple(FRAGMENTS)

_AXIOM_RANGE = {"topo": 4, "ssl": 5, "product": 4}


def _check_semantics(semantics: str):
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}, expected one of {SEMANTICS}")


def normalize_duals(f: Formula) -> Formula:
    """Rewrite C, L, D into ~I~, ~K~, ~E~ form, bottom-up."""
    return fold(f, _dual_step)


def _dual_step(f: Formula, kids) -> Formula:
    dual = DUALS.get(type(f))
    return rebuild(f, kids) if dual is None else Not(dual(Not(kids[0])))


# Schema shapes: [f] (g o h) -> [f] g o [f] h, and [f] Og -> f -> O [f] g,
# where a leaf is guarded with nothing to push: [f] p -> f -> p.
_DISTRIBUTIVE = frozenset({And, Or, Implies})
_GUARDED = frozenset({Not, Interior, Know, Effort, KnowI, Atom, Top, Bot})
# The guard f -> ... of the second shape, read by `make` for its kind only.
_GUARD = Implies(Top(), Top())


def _single_step(announced, body: Formula, pushed=None, make=rebuild):
    """One schema application to [announced] body; body must not be an announcement.

    `pushed` lists what stands for [announced] g at each child g of body: the
    node itself for one step, or, from `reduce`, its elimination.  `make(node,
    values)` reads a node of `node`'s kind over the values.  With `rebuild`
    the result is a formula; with a model's `_value` it is a mask, where
    `announced` is the announced formula's mask and each pushed value the
    mask `_announce(g, announced)`.  So one table serves both readings.
    """
    if pushed is None:
        pushed = [Announce(announced, kid) for kid in children(body)]
    kind = type(body)
    if kind in _DISTRIBUTIVE:
        return make(body, pushed)
    if kind in _GUARDED:
        return make(_GUARD, (announced, make(body, pushed)))
    raise TypeError(f"no reduction schema for body {kind.__name__}")


def reduce(f: Formula, semantics: str) -> Formula:
    """Announcement-free formula equivalent to f on topological and product
    models; on subset spaces only when no E or D lies under an announcement,
    since the effort schema is unsound there (see `check_axiom`, ssl axiom 5)."""
    _check_semantics(semantics)
    check_fragment(f, semantics)
    return fold(f, _reduce_step)


def _reduce_step(f: Formula, kids) -> Formula:
    # Innermost first: the announced formula and the body are eliminated, so
    # the body is announcement-free and each of its nodes is pushed once.
    if type(f) is Announce:
        announced, body = kids
        return fold(body, partial(_single_step, announced))
    return _dual_step(f, kids)


# ---------------------------------------------------------------------------
# Axiom identities and the validity harness


@dataclass(frozen=True)
class AxiomId:
    semantics: str
    index: int

    def __post_init__(self):
        _check_semantics(self.semantics)
        top = _AXIOM_RANGE[self.semantics]
        if not 1 <= self.index <= top:
            raise ValueError(f"{self.semantics} has axioms 1..{top}, got {self.index}")

    def __str__(self) -> str:
        return f"{self.semantics}-{self.index}"


def axiom_instance(
    axiom: AxiomId,
    phi: Formula,
    psi: Formula | None = None,
    chi: Formula | None = None,
    agent: int = 1,
) -> tuple[Formula, Formula]:
    """Both sides of the reduction equivalence, instantiated; the right
    side is the one step `reduce` applies to the left."""
    body = _schema_body(axiom, psi, chi, agent)
    return Announce(phi, body), _single_step(phi, body)


def _schema_body(axiom: AxiomId, psi, chi, agent: int) -> Formula:
    """The body g of the schema's left side [phi] g."""
    index = axiom.index
    if index == 1:
        if not isinstance(psi, (Atom, Top, Bot)):
            raise ValueError("the atomic schema takes an atom on the right")
        return psi
    if index == 2:
        return Not(psi)
    if index == 3:
        return And(psi, chi)
    if axiom.semantics == "topo":
        return Interior(psi)
    if axiom.semantics == "product":
        return KnowI(agent, psi)
    return Know(psi) if index == 4 else Effort(psi)


def _instances(axiom: AxiomId, pools, agent_count: int) -> list[tuple]:
    """(phi, psi, chi, agent, body) for every instantiation of the schema
    over agents 1..agent_count, in `_instantiations` order: the left side is
    [phi] body, and `axiom_instance` builds its two sides.  No side is built:
    `check_axiom` reads both on masks.

    Each body is resolved once per call, and a body equal to a pool formula
    is that formula, so the memos find it by identity."""
    pooled = {f: f for pool in pools.values() for f in pool}
    bodies = []
    for psi, chi, agent in itertools.product(*_body_choices(axiom, pools, agent_count)):
        body = _schema_body(axiom, psi, chi, agent)
        bodies.append((psi, chi, agent, pooled.get(body, body)))
    return [(phi, *body) for phi in pools["phi"] for body in bodies]


def schema_pool(semantics: str) -> dict[str, list[Formula]]:
    """Instantiation pool for the harness: atoms, one boolean layer, one
    modal layer, and boolean-over-modal combinations."""
    _check_semantics(semantics)
    p, q = Atom("p"), Atom("q")
    not_p = Not(p)
    boolean = [not_p, And(p, q), Or(p, q)]
    if semantics == "topo":
        modal = [Interior(p), Closure(q)]
        mixed = [Or(p, Interior(q)), And(p, Closure(q))]
    elif semantics == "ssl":
        modal = [Know(p), Possible(q), Effort(p), EffortDual(q)]
        mixed = [Or(p, Know(q)), And(p, Possible(q)), Or(p, Effort(q))]
    else:
        modal = [KnowI(1, p), KnowI(2, q)]
        mixed = [Or(p, KnowI(1, q)), And(p, KnowI(2, q))]
    return {
        "atoms": [p, q],
        "phi": [p, q] + boolean + modal + mixed,
        "psi": [p, q, not_p] + modal,
        "chi": [q, not_p],
    }


@dataclass(frozen=True)
class Counterexample:
    model: object
    locus: object
    phi: Formula
    psi: Formula | None
    chi: Formula | None
    lhs: Formula
    rhs: Formula
    lhs_value: bool
    rhs_value: bool


@dataclass(frozen=True)
class ValidityReport:
    axiom: AxiomId
    models_checked: int
    seed: int
    counterexamples: tuple[Counterexample, ...]

    @property
    def valid_on_sample(self) -> bool:
        return not self.counterexamples

    def minimal(self) -> Counterexample | None:
        """Counterexample with the smallest model, if any were found."""
        if not self.counterexamples:
            return None
        return min(self.counterexamples, key=lambda c: c.model.size)

    def render(self) -> str:
        lines = [
            f"axiom {self.axiom}: schema validity on {self.models_checked} random models (seed {self.seed})",
        ]
        if not self.counterexamples:
            lines.append("counterexamples: none")
            return "\n".join(lines)
        lines.append(f"counterexamples: {len(self.counterexamples)} (smallest shown, re-verified)")
        smallest = self.minimal()
        lines.append("  model: " + smallest.model.describe())
        lines.append(f"  announced f = {smallest.phi}")
        if smallest.psi is not None:
            lines.append(f"  body g = {smallest.psi}")
        if smallest.chi is not None:
            lines.append(f"  second body h = {smallest.chi}")
        lines.append(f"  locus: {smallest.locus}")
        lines.append(f"  left side  {smallest.lhs}  =  {str(smallest.lhs_value).lower()}")
        lines.append(f"  right side {smallest.rhs}  =  {str(smallest.rhs_value).lower()}")
        return "\n".join(lines)


def _truth_map(model, formula) -> dict:
    """Truth value of the formula at every locus of the model."""
    holds = model.truth(formula)
    return {locus: locus in holds for locus in model.loci()}


_SAMPLERS: dict[str, Callable[[int], object]] = {
    "topo": lambda seed: random_topomodel(seed, n=4, k=3),
    "ssl": lambda seed: random_ssl_model(seed, max_points=5, max_sets=5),
    "product": lambda seed: random_product_model(seed, max_factors=3, max_points=3),
}


def check_axiom(axiom: AxiomId, sample_size: int = 300, seed: int = 0) -> ValidityReport:
    """Evaluate both sides of the axiom at every locus of random models.

    The instances are listed once per call (once per agent count for the
    per-agent product schema) as (phi, psi, chi, agent, body), and both
    sides of each are read on masks, with no node built.  The left side
    [phi] body is `_announce(body, table(phi))`, the step `tabulate` takes
    at an announcement node.  The right side is `_single_step` read through
    the model's `_value`: each pushed [phi] g is `_announce(g, table(phi))`,
    and the body's own operator is applied to those masks, so it is the step
    `reduce` applies.  `_counterexample` builds both sides as nodes only
    for a flagged (model, instance) pair.  Nothing is kept between calls.

    Both sides are read once per run of models, on their disjoint union
    (`formula.disjoint_union`, one for every kind, built from the models'
    atom masks and relations): modal truth is invariant under disjoint
    unions, so the union's table is, in each model's block of loci, that
    model's own.  A run is consecutive models in seed order, of
    one agent count for products, whose sizes sum to at most `UNION_SIZE`;
    a model larger than that is a run of its own.  Both sides depend on
    phi only through its mask, so the phis are grouped by their mask on the
    union.  The distinct masks, in phi order, fill tiles of at most
    `TILE_WIDTH` bits: `union.tile(count)` is the disjoint union of that
    many copies of the union, `width` bits apart (`len(union._order)`, the
    sum of the models' widths), and a tile of one copy is the union itself,
    so a union too wide to tile is read one mask at a time.  Each body is
    read once per tile, both sides on
    `tile.updated(the tile's masks, side by side)`; copy g's part of the
    difference flags the instance of every phi in the g-th group.  Only
    a model whose block of that part is nonzero is checked
    again, for that instance alone and on the model itself: the loci where
    its own two tables differ are re-verified, in `loci()` order, through the
    pointwise evaluators before being recorded, and the report keeps one
    counterexample per (model, instantiation) pair.  Models are drawn in
    seed order and the counterexamples reported in that order, so reports
    are reproducible; only the models of the runs still open are held.
    """
    if sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")
    pools = schema_pool(axiom.semantics)
    sampler = _SAMPLERS[axiom.semantics]
    per_agent = axiom.semantics == "product" and axiom.index == 4
    by_agents: dict[int, list[tuple]] = {}
    found = []
    models = ((offset, sampler(seed + offset)) for offset in range(sample_size))
    for run in _runs(models, axiom.semantics):
        agent_count = run[0][1].agent_count if per_agent else 1
        instances = by_agents.get(agent_count)
        if instances is None:
            instances = by_agents[agent_count] = _instances(axiom, pools, agent_count)
        # `instances` holds the bodies once per phi, phi varying slowest.
        bodies = [body for *_, body in instances[: len(instances) // len(pools["phi"])]]
        union, blocks = disjoint_union([model for _, model in run])
        groups: dict[int, list[int]] = {}
        for index, phi in enumerate(pools["phi"]):
            groups.setdefault(union.table(phi), []).append(index)
        masks, width = list(groups), len(union._order)
        low, per_tile = (1 << width) - 1, max(1, TILE_WIDTH // width)
        flagged = [[] for _ in run]
        for start in range(0, len(masks), per_tile):
            # Copy g of the tile announces the g-th mask of the slice, and
            # `_announce(h, announced)` reads that update once for every h.
            tiled = masks[start : start + per_tile]
            tile = union.tile(len(tiled))
            announced = sum(mask << g * width for g, mask in enumerate(tiled))
            rest, table = tile._all - announced, tile.updated(announced).table
            for b, body in enumerate(bodies):
                pushed = [rest | (announced & table(kid)) for kid in children(body)]
                differ = (rest | (announced & table(body))) ^ _single_step(announced, body, pushed, tile._value)
                for mask in tiled if differ else ():
                    part, differ = differ & low, differ >> width
                    for numbers, block in zip(flagged, blocks):
                        if block & part:
                            numbers.extend(p * len(bodies) + b for p in groups[mask])
        for (offset, model), numbers in zip(run, flagged):
            for number in numbers:
                counterexample = _counterexample(model, instances[number])
                if counterexample is not None:
                    found.append((offset, number, counterexample))
    # Runs of different agent counts interleave in seed order.
    found.sort(key=lambda entry: entry[:2])
    return ValidityReport(axiom, sample_size, seed, tuple(entry[2] for entry in found))


def _counterexample(model, instance: tuple) -> Counterexample | None:
    """The first locus, in `loci()` order, where the instance's two sides
    differ on the model by its tables and by the pointwise evaluators.  Both
    sides are built here as nodes, for a flagged instance only."""
    phi, psi, chi, agent, body = instance
    lhs, rhs = Announce(phi, body), _single_step(phi, body)
    lhs_holds = model.table(lhs)
    for i in bits(lhs_holds ^ model.table(rhs)):
        locus = model._order[i]
        lhs_value = bool(lhs_holds >> i & 1)
        rhs_value = not lhs_value
        # Re-verify through the single-locus path before recording.
        if model.satisfies(locus, lhs) != lhs_value or model.satisfies(locus, rhs) != rhs_value:
            continue
        # A fresh equal model: the report must not keep this one's memo alive.
        return Counterexample(replace(model), locus, phi, psi, chi, lhs, rhs, lhs_value, rhs_value)
    return None


# The largest size (loci; on subset spaces, points plus situations) of one
# run of models joined by `formula.disjoint_union` in `check_axiom`.  Each
# modal clause reads masks as wide as the union, at most once per locus, so
# a union costs more per locus the larger it grows; this bound was chosen
# from a sweep of sample sizes, on earlier unions of the same widths.  A
# union is then read on tiles of its copies, one per distinct announced mask.
UNION_SIZE = 512

# The largest width (bits) of one tile in `check_axiom`: copies of a union,
# one per announced mask, side by side (`Model.tile`, their disjoint union;
# a union's width is the sum of its models' widths).  A tile saves the
# per-node dispatch of reading each mask apart, but every copy adds its pairs
# to each `preimage` loop over masks as wide as the tile, so wide tiles cost
# more than they save; this bound was chosen from a sweep of bounds.  A union
# wider than half of it is read one mask at a time.
TILE_WIDTH = 128


def _runs(models, semantics: str):
    """The (offset, model) pairs, drawn in seed order, in runs for
    `check_axiom`: consecutive among the product models of one agent count,
    or among all models of the other kinds, with sizes summing to at most
    `UNION_SIZE` unless one model alone exceeds it.  A run is yielded once
    it is full, so only the open runs are held."""
    open_runs: dict[int, tuple[list, int]] = {}
    for offset, model in models:
        key = model.agent_count if semantics == "product" else 1
        run, size = open_runs.get(key, ([], 0))
        if run and size + model.size > UNION_SIZE:
            yield run
            run, size = [], 0
        run.append((offset, model))
        open_runs[key] = run, size + model.size
    for run, _ in open_runs.values():
        yield run


def _instantiations(axiom: AxiomId, pools, agent_count: int):
    """Every (phi, psi, chi, agent) of the schema, phi varying slowest, for
    the agents 1..agent_count."""
    return itertools.product(pools["phi"], *_body_choices(axiom, pools, agent_count))


def _body_choices(axiom: AxiomId, pools, agent_count: int) -> tuple:
    """The choices of psi, of chi and of the agent, which fix the body."""
    return (
        pools["atoms"] if axiom.index == 1 else pools["psi"],
        pools["chi"] if axiom.index == 3 else [None],
        range(1, agent_count + 1),
    )


# ---------------------------------------------------------------------------
# Extensional equivalence


@dataclass(frozen=True)
class EquivalenceResult:
    equal: bool
    witness: object | None = None

    def __bool__(self) -> bool:
        return self.equal


def equivalent_on(model, f: Formula, g: Formula) -> EquivalenceResult:
    """Whether two formulas agree at every locus of the model; if not, the
    witness is the first locus in `loci()` order where they differ."""
    differ = model.table(f) ^ model.table(g)
    if not differ:
        return EquivalenceResult(True)
    return EquivalenceResult(False, model._loci(differ)[0])
