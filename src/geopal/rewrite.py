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
body are eliminated first.  Every step strictly decreases
`formula.complexity`, so both strategies (recursive innermost and one-step
outermost) terminate.

The effort schema is the one member of the set whose soundness is not
guaranteed by the update semantics; `check_axiom` probes each schema
empirically on random models and reports re-verified counterexamples.  Its
instantiation pool is deliberately small: the atoms p and q, one boolean
layer over them, one modal layer over them, and boolean combinations of the
two layers (these last are what catch the effort schema).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .formula import (
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
    UnsupportedOperator,
)
from .product import random_product_model
from .sslmodel import random_ssl_model
from .topomodel import random_topomodel

SEMANTICS = ("topo", "ssl", "product")

_ALLOWED = {
    "topo": (Atom, Top, Bot, Not, And, Or, Implies, Interior, Closure, Announce),
    "ssl": (Atom, Top, Bot, Not, And, Or, Implies, Know, Possible, Effort, EffortDual, Announce),
    "product": (Atom, Top, Bot, Not, And, Or, Implies, KnowI, Announce),
}

_AXIOM_RANGE = {"topo": 4, "ssl": 5, "product": 4}


def _check_semantics(semantics: str):
    if semantics not in SEMANTICS:
        raise ValueError(f"unknown semantics {semantics!r}, expected one of {SEMANTICS}")


def validate_operators(f: Formula, semantics: str):
    _check_semantics(semantics)
    allowed = _ALLOWED[semantics]
    from .formula import walk

    for node in walk(f):
        if not isinstance(node, allowed):
            raise UnsupportedOperator(
                f"operator {type(node).__name__} is outside the {semantics} fragment"
            )


def normalize_duals(f: Formula) -> Formula:
    """Rewrite C, L, D into ~I~, ~K~, ~E~ form, bottom-up."""
    match f:
        case Atom() | Top() | Bot():
            return f
        case Closure(b):
            return Not(Interior(Not(normalize_duals(b))))
        case Possible(b):
            return Not(Know(Not(normalize_duals(b))))
        case EffortDual(b):
            return Not(Effort(Not(normalize_duals(b))))
        case Not(b):
            return Not(normalize_duals(b))
        case Interior(b):
            return Interior(normalize_duals(b))
        case Know(b):
            return Know(normalize_duals(b))
        case Effort(b):
            return Effort(normalize_duals(b))
        case KnowI(agent, b):
            return KnowI(agent, normalize_duals(b))
        case And(a, b):
            return And(normalize_duals(a), normalize_duals(b))
        case Or(a, b):
            return Or(normalize_duals(a), normalize_duals(b))
        case Implies(a, b):
            return Implies(normalize_duals(a), normalize_duals(b))
        case Announce(a, b):
            return Announce(normalize_duals(a), normalize_duals(b))
    raise TypeError(f"not a formula node: {f!r}")


def _single_step(announced: Formula, body: Formula) -> Formula:
    """One schema application to [announced] body; body must not be an announcement."""
    a = announced
    match body:
        case Atom() | Top() | Bot():
            return Implies(a, body)
        case Not(x):
            return Implies(a, Not(Announce(a, x)))
        case And(x, y):
            return And(Announce(a, x), Announce(a, y))
        case Or(x, y):
            return Or(Announce(a, x), Announce(a, y))
        case Implies(x, y):
            return Implies(Announce(a, x), Announce(a, y))
        case Interior(x):
            return Implies(a, Interior(Announce(a, x)))
        case Know(x):
            return Implies(a, Know(Announce(a, x)))
        case Effort(x):
            return Implies(a, Effort(Announce(a, x)))
        case KnowI(agent, x):
            return Implies(a, KnowI(agent, Announce(a, x)))
    raise TypeError(f"no reduction schema for body {type(body).__name__}")


def _push(announced: Formula, body: Formula, trace: list | None) -> Formula:
    if trace is not None:
        trace.append((announced, body))
    a = announced
    match body:
        case Atom() | Top() | Bot():
            return Implies(a, body)
        case Not(x):
            return Implies(a, Not(_push(a, x, trace)))
        case And(x, y):
            return And(_push(a, x, trace), _push(a, y, trace))
        case Or(x, y):
            return Or(_push(a, x, trace), _push(a, y, trace))
        case Implies(x, y):
            return Implies(_push(a, x, trace), _push(a, y, trace))
        case Interior(x):
            return Implies(a, Interior(_push(a, x, trace)))
        case Know(x):
            return Implies(a, Know(_push(a, x, trace)))
        case Effort(x):
            return Implies(a, Effort(_push(a, x, trace)))
        case KnowI(agent, x):
            return Implies(a, KnowI(agent, _push(a, x, trace)))
    raise TypeError(f"no reduction schema for body {type(body).__name__}")


def _eliminate(f: Formula, trace: list | None) -> Formula:
    match f:
        case Atom() | Top() | Bot():
            return f
        case Not(b):
            return Not(_eliminate(b, trace))
        case Interior(b):
            return Interior(_eliminate(b, trace))
        case Know(b):
            return Know(_eliminate(b, trace))
        case Effort(b):
            return Effort(_eliminate(b, trace))
        case KnowI(agent, b):
            return KnowI(agent, _eliminate(b, trace))
        case And(a, b):
            return And(_eliminate(a, trace), _eliminate(b, trace))
        case Or(a, b):
            return Or(_eliminate(a, trace), _eliminate(b, trace))
        case Implies(a, b):
            return Implies(_eliminate(a, trace), _eliminate(b, trace))
        case Announce(a, b):
            return _push(_eliminate(a, trace), _eliminate(b, trace), trace)
    raise TypeError(f"not a formula node: {f!r}")


def _outermost_step(f: Formula) -> Formula | None:
    """Rewrite at the outermost applicable announcement, or None if none left."""
    if isinstance(f, Announce) and not isinstance(f.body, Announce):
        return _single_step(f.announced, f.body)
    match f:
        case Atom() | Top() | Bot():
            return None
        case Not(b) | Interior(b) | Closure(b) | Know(b) | Possible(b) | Effort(b) | EffortDual(b):
            inner = _outermost_step(b)
            return None if inner is None else type(f)(inner)
        case KnowI(agent, b):
            inner = _outermost_step(b)
            return None if inner is None else KnowI(agent, inner)
        case And(a, b) | Or(a, b) | Implies(a, b) | Announce(a, b):
            left = _outermost_step(a)
            if left is not None:
                return type(f)(left, b)
            right = _outermost_step(b)
            return None if right is None else type(f)(a, right)
    raise TypeError(f"not a formula node: {f!r}")


def reduce(
    f: Formula,
    semantics: str,
    strategy: str = "innermost",
    trace: list | None = None,
) -> Formula:
    """Equivalent announcement-free formula for the given semantics.

    `trace`, when provided, collects the (announced, body) pair of every
    schema application under the innermost strategy.
    """
    validate_operators(f, semantics)
    f = normalize_duals(f)
    if strategy == "innermost":
        return _eliminate(f, trace)
    if strategy == "outermost":
        while True:
            step = _outermost_step(f)
            if step is None:
                return f
            f = step
    raise ValueError(f"unknown strategy {strategy!r}")


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
    """Both sides of the reduction equivalence, instantiated."""
    index = axiom.index
    if index == 1:
        if not isinstance(psi, (Atom, Top, Bot)):
            raise ValueError("the atomic schema takes an atom on the right")
        return Announce(phi, psi), Implies(phi, psi)
    if index == 2:
        return Announce(phi, Not(psi)), Implies(phi, Not(Announce(phi, psi)))
    if index == 3:
        return Announce(phi, And(psi, chi)), And(Announce(phi, psi), Announce(phi, chi))
    if axiom.semantics == "topo":
        return Announce(phi, Interior(psi)), Implies(phi, Interior(Announce(phi, psi)))
    if axiom.semantics == "product":
        return (
            Announce(phi, KnowI(agent, psi)),
            Implies(phi, KnowI(agent, Announce(phi, psi))),
        )
    if index == 4:
        return Announce(phi, Know(psi)), Implies(phi, Know(Announce(phi, psi)))
    return Announce(phi, Effort(psi)), Implies(phi, Effort(Announce(phi, psi)))


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

    Disagreements are re-verified through the pointwise evaluators before
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
            lhs_map = _truth_map(model, lhs)
            rhs_map = _truth_map(model, rhs)
            for locus, lhs_value in lhs_map.items():
                rhs_value = rhs_map[locus]
                if lhs_value == rhs_value:
                    continue
                # Re-verify through the single-locus path before recording.
                if model.satisfies(locus, lhs) != lhs_value:
                    continue
                if model.satisfies(locus, rhs) != rhs_value:
                    continue
                # A fresh equal model: the report must not keep this one's memo alive.
                counterexamples.append(
                    Counterexample(replace(model), locus, phi, psi, chi, lhs, rhs, lhs_value, rhs_value)
                )
                break
    return ValidityReport(axiom, sample_size, seed, tuple(counterexamples))


def _instantiations(axiom: AxiomId, pools, model):
    if axiom.index == 1:
        for phi in pools["phi"]:
            for psi in pools["atoms"]:
                yield phi, psi, None, 1
    elif axiom.index == 3:
        for phi in pools["phi"]:
            for psi in pools["psi"]:
                for chi in pools["chi"]:
                    yield phi, psi, chi, 1
    elif axiom.semantics == "product" and axiom.index == 4:
        for phi in pools["phi"]:
            for psi in pools["psi"]:
                for agent in range(1, model.agent_count + 1):
                    yield phi, psi, None, agent
    else:
        for phi in pools["phi"]:
            for psi in pools["psi"]:
                yield phi, psi, None, 1


# ---------------------------------------------------------------------------
# Extensional equivalence


@dataclass(frozen=True)
class EquivalenceResult:
    equal: bool
    witness: object | None = None

    def __bool__(self) -> bool:
        return self.equal


def equivalent_on(model, f: Formula, g: Formula) -> EquivalenceResult:
    """Whether two formulas agree at every locus of the model."""
    f_map = _truth_map(model, f)
    g_map = _truth_map(model, g)
    for locus, value in f_map.items():
        if g_map[locus] != value:
            return EquivalenceResult(False, locus)
    return EquivalenceResult(True)
