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
is pushed once.  `axiom_instance` builds every right side from it, so
`check_axiom` probes the rules `reduce` applies.  Every step strictly
decreases `formula.complexity`, so elimination terminates.

The effort schema is the one member of the set whose soundness is not
guaranteed by the update semantics; `check_axiom` probes each schema
empirically on random models and reports re-verified counterexamples.  Its
instantiation pool is deliberately small: the atoms p and q, one boolean
layer over them, one modal layer over them, and boolean combinations of the
two layers (these last are what catch the effort schema).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .formula import (
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


_DUALS = {Closure: Interior, Possible: Know, EffortDual: Effort}


def normalize_duals(f: Formula) -> Formula:
    """Rewrite C, L, D into ~I~, ~K~, ~E~ form, bottom-up."""
    return fold(f, _dual_step)


def _dual_step(f: Formula, kids) -> Formula:
    dual = _DUALS.get(type(f))
    return rebuild(f, kids) if dual is None else Not(dual(Not(kids[0])))


# Schema shapes: [f] (g o h) -> [f] g o [f] h, and [f] Og -> f -> O [f] g,
# where a leaf is guarded with nothing to push: [f] p -> f -> p.
_DISTRIBUTIVE = frozenset({And, Or, Implies})
_GUARDED = frozenset({Not, Interior, Know, Effort, KnowI, Atom, Top, Bot})


def _single_step(announced: Formula, body: Formula, pushed=None) -> Formula:
    """One schema application to [announced] body; body must not be an announcement.

    `pushed` lists what stands for [announced] g at each child g of body: the
    node itself for one step, or, from `reduce`, its elimination.
    """
    if pushed is None:
        pushed = [Announce(announced, kid) for kid in children(body)]
    kind = type(body)
    if kind in _DISTRIBUTIVE:
        return kind(*pushed)
    if kind in _GUARDED:
        return Implies(announced, rebuild(body, pushed))
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
    index = axiom.index
    if index == 1:
        if not isinstance(psi, (Atom, Top, Bot)):
            raise ValueError("the atomic schema takes an atom on the right")
        body = psi
    elif index == 2:
        body = Not(psi)
    elif index == 3:
        body = And(psi, chi)
    elif axiom.semantics == "topo":
        body = Interior(psi)
    elif axiom.semantics == "product":
        body = KnowI(agent, psi)
    else:
        body = Know(psi) if index == 4 else Effort(psi)
    return Announce(phi, body), _single_step(phi, body)


def schema_pool(semantics: str) -> dict[str, list[Formula]]:
    """Instantiation pool for the harness: atoms, one boolean layer, one
    modal layer, and boolean-over-modal combinations."""
    _check_semantics(semantics)
    p, q = Atom("p"), Atom("q")
    boolean = [Not(p), And(p, q), Or(p, q)]
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
        "psi": [p, q, Not(p)] + modal,
        "chi": [q, Not(p)],
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

    The two sides' masks are compared; the loci where they differ are
    re-verified, in `loci()` order, through the pointwise evaluators before
    being recorded; the report keeps one counterexample per (model,
    instantiation) pair.  Models are visited in seed order, so reports are
    reproducible.
    """
    if sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")
    pools = schema_pool(axiom.semantics)
    sampler = _SAMPLERS[axiom.semantics]
    counterexamples = []
    for offset in range(sample_size):
        model = sampler(seed + offset)
        for phi, psi, chi, agent in _instantiations(axiom, pools, model):
            lhs, rhs = axiom_instance(axiom, phi, psi, chi, agent)
            lhs_holds = model.table(lhs)
            for i in bits(lhs_holds ^ model.table(rhs)):
                locus = model._order[i]
                lhs_value = bool(lhs_holds >> i & 1)
                rhs_value = not lhs_value
                # Re-verify through the single-locus path before recording.
                if model.satisfies(locus, lhs) != lhs_value or model.satisfies(locus, rhs) != rhs_value:
                    continue
                # A fresh equal model: the report must not keep this one's memo alive.
                counterexamples.append(
                    Counterexample(replace(model), locus, phi, psi, chi, lhs, rhs, lhs_value, rhs_value)
                )
                break
    return ValidityReport(axiom, sample_size, seed, tuple(counterexamples))


def _instantiations(axiom: AxiomId, pools, model):
    """Every (phi, psi, chi, agent) of the schema, phi varying slowest."""
    per_agent = axiom.semantics == "product" and axiom.index == 4
    return itertools.product(
        pools["phi"],
        pools["atoms"] if axiom.index == 1 else pools["psi"],
        pools["chi"] if axiom.index == 3 else [None],
        range(1, model.agent_count + 1) if per_agent else [1],
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
    return EquivalenceResult(False, model._order[next(bits(differ))])
