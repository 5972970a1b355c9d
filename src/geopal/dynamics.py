"""Iterated announcements: limit models, truthful repetition, common
knowledge as a greatest fixpoint, and the muddy children scenario.

The limit of announcing f is the first model that announcing f again does
not change.  All models here are finite, so every limit is reached at a
finite stage: each effective update removes at least one point, situation
member or world.  Transfinite behaviour (limits reached only past stage
omega on infinite spaces) is out of reach of this implementation by
construction and is flagged as such in reports.

The muddy children protocol is run twice: on the product-topological model
(indiscrete factor per child: nobody sees their own forehead) and through
an independent partition-based oracle that never touches the topological
machinery.  The two runs must agree round for round.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from functools import reduce as fold
from itertools import islice, product as cartesian
from typing import Iterable

from .formula import And, Atom, Formula, KnowI, Model, Not, Or
from .product import ProductModel, World, knowledge_interior
from .topology import Topology

# ---------------------------------------------------------------------------
# Announcement limits


def _fixpoint(value, step):
    """The stages of an iterated run: value, then step of the last stage
    for as long as step returns neither None (a halt) nor its argument."""
    yield value
    while (following := step(value)) is not None and following != value:
        value = following
        yield value


@dataclass(frozen=True)
class LimitTrace:
    """Record of an iterated announcement run.

    `sizes` covers every stage, and `stage_count` is the number of updates
    that changed the model.  For unpointed runs the outcome is "empty" or
    "stabilized-nonempty"; pointed runs may instead halt with outcome
    "halted-at-locus" when the announcement stops being true at the
    tracked locus.

    A run stabilizes only when announcing f leaves the model unchanged, and
    an update keeps exactly the loci where f holds, so f holds at every
    locus of a stabilized limit: `announcement_valid_in_limit` is True
    there, and None on an empty limit or a halted run.
    """

    sizes: tuple[int, ...]
    outcome: str
    limit: object
    final_locus: object = None

    @property
    def stage_count(self) -> int:
        return len(self.sizes) - 1

    @property
    def announcement_valid_in_limit(self) -> bool | None:
        return True if self.outcome == "stabilized-nonempty" else None


def limit_model(model: Model, f: Formula) -> LimitTrace:
    """Announce f repeatedly until the model stops changing."""
    sizes = []
    for model in _fixpoint(model, lambda stage: stage.update(f)):
        sizes.append(model.size)
    return LimitTrace(tuple(sizes), "empty" if model.is_empty else "stabilized-nonempty", model)


def announce_while_true(model: Model, locus, f: Formula) -> LimitTrace:
    """Repeat the announcement only while it is true at the tracked locus.

    The locus survives every stage (it satisfies each announcement made);
    for subset-space models the tracked situation shrinks with its
    neighbourhood.  Stops when f fails at the locus or the model is stable.
    """
    locus = model.locus(locus)

    def step(stage):
        nonlocal locus
        holds = stage.truth(f)
        if locus not in holds:
            return None
        # An update that leaves the model unchanged leaves the locus unchanged.
        locus = stage.track(locus, holds)
        return stage.update(f)

    sizes = []
    for model in _fixpoint(model, step):
        sizes.append(model.size)
    halted = locus not in model.truth(f)
    return LimitTrace(tuple(sizes), "halted-at-locus" if halted else "stabilized-nonempty", model, locus)


# ---------------------------------------------------------------------------
# Common knowledge as a greatest fixpoint


@dataclass(frozen=True)
class CommonKnowledge:
    worlds: frozenset
    iterations: int


def common_knowledge_extension(model: ProductModel, f: Formula) -> CommonKnowledge:
    """Greatest fixpoint of E -> (f) meet every agent's knowledge of E.

    Computed by downward iteration from the extension of f, each round one
    box over the agents' joint relation; on a finite model the fixpoint
    arrives within |worlds| rounds.  `iterations` counts the rounds that
    strictly shrank the candidate set.
    """
    if not isinstance(model, ProductModel):
        raise TypeError("common knowledge extension is defined on product models")
    base = model.table(f)
    agents = range(1, model.agent_count + 1)
    rounds = list(_fixpoint(base, lambda current: base & knowledge_interior(model, current, *agents)))
    return CommonKnowledge(model._read(rounds[-1]), len(rounds) - 1)


# ---------------------------------------------------------------------------
# Muddy children

CHILD_NAMES = string.ascii_lowercase


def child_atom(child: str) -> Atom:
    return Atom(f"m_{child}")


def father_formula(n: int) -> Formula:
    """At least one child is muddy."""
    return fold(Or, (child_atom(name) for name in CHILD_NAMES[:n]))


def ignorance_formula(n: int) -> Formula:
    """No child knows their own state (muddy or clean)."""
    return _ignorance(_knowledge_checks(n))


def _knowledge_checks(n: int) -> tuple[tuple[str, KnowI, KnowI], ...]:
    """Per child: the name, K_i m_child and K_i ~m_child."""
    checks = []
    for i, name in enumerate(CHILD_NAMES[:n]):
        atom = child_atom(name)
        checks.append((name, KnowI(i + 1, atom), KnowI(i + 1, Not(atom))))
    return tuple(checks)


def _ignorance(checks) -> Formula:
    return fold(And, (And(Not(muddy), Not(clean)) for _, muddy, clean in checks))


def muddy_model(n: int, muddy: Iterable[str]) -> tuple[ProductModel, World]:
    """Product model for n children, plus the actual world.

    Each child is an indiscrete two-point factor (she cannot observe her
    own forehead); worlds are all bit tuples, m_<child> true where the
    child's coordinate is 1.
    """
    _check_children(n)
    names = CHILD_NAMES[:n]
    muddy = frozenset(muddy)
    unknown = muddy - set(names)
    if unknown:
        raise ValueError(f"unknown children {sorted(unknown)}, have {list(names)}")
    indiscrete = Topology((0, 1), (0b11, 0b11))
    worlds = frozenset(cartesian((0, 1), repeat=n))
    valuation = {
        f"m_{name}": frozenset(w for w in worlds if w[i] == 1)
        for i, name in enumerate(names)
    }
    actual = tuple(1 if name in muddy else 0 for name in names)
    return ProductModel((indiscrete,) * n, worlds, valuation), actual


def _check_children(n: int):
    if not 1 <= n <= len(CHILD_NAMES):
        raise ValueError(f"supported range is 1..{len(CHILD_NAMES)} children")


_KNOWS_MUDDY = "knows-muddy"
_KNOWS_CLEAN = "knows-clean"
_UNKNOWN = "unknown"


def _knowledge_states(model: ProductModel, actual: World, checks) -> dict[str, str]:
    """Each child's state at the actual world, read from `_knowledge_checks`
    formulas: the ignorance formula's own nodes, so the memo finds them by identity."""
    states = {}
    bit = 1 << model._bit[actual]
    for name, knows_muddy, knows_clean in checks:
        if model.table(knows_muddy) & bit:
            states[name] = _KNOWS_MUDDY
        elif model.table(knows_clean) & bit:
            states[name] = _KNOWS_CLEAN
        else:
            states[name] = _UNKNOWN
    return states


@dataclass(frozen=True)
class MuddyScenario:
    n: int
    muddy: frozenset
    actual: World
    rounds: tuple[frozenset, ...]
    """World sets: initial, after the father's announcement, then after each
    truthful ignorance round."""
    knowledge: tuple[dict, ...]
    """Per post-father stage: child -> knows-muddy | knows-clean | unknown."""
    ignorance_rounds: int
    stop_reason: str
    unpointed_sizes: tuple[int, ...]
    unpointed_outcome: str

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rounds)


def muddy_scenario(n: int, muddy: Iterable[str]) -> MuddyScenario:
    """Run the full protocol on the product-topological model."""
    muddy = frozenset(muddy)
    if not muddy:
        raise ValueError("at least one child must be muddy, or the announcement is false")
    model, actual = muddy_model(n, muddy)
    father = father_formula(n)
    after_father = model.update(father)
    checks = _knowledge_checks(n)
    ignorance = _ignorance(checks)
    pointed = announce_while_true(after_father, actual, ignorance)
    # Each stage read back is a memo hit: the run is not repeated.
    stages = list(islice(_fixpoint(after_father, lambda stage: stage.update(ignorance)), len(pointed.sizes)))
    rounds = tuple(frozenset(stage.loci()) for stage in (model, *stages))
    knowledge = tuple(_knowledge_states(stage, actual, checks) for stage in stages)
    unpointed = limit_model(after_father, ignorance)
    return MuddyScenario(
        n=n,
        muddy=muddy,
        actual=actual,
        rounds=rounds,
        knowledge=knowledge,
        ignorance_rounds=pointed.stage_count,
        stop_reason=pointed.outcome,
        unpointed_sizes=unpointed.sizes,
        unpointed_outcome=unpointed.outcome,
    )


@dataclass(frozen=True)
class OracleTrace:
    rounds: tuple[frozenset, ...]
    knowledge: tuple[dict, ...]
    ignorance_rounds: int
    unpointed_sizes: tuple[int, ...]
    unpointed_outcome: str


def kripke_oracle(n: int, muddy: Iterable[str]) -> OracleTrace:
    """Muddy children on equivalence-class semantics, built from scratch.

    Agent i's accessibility identifies worlds differing only at coordinate
    i; announcements delete worlds.  Used purely as a differential oracle
    for the product-topological run.
    """
    _check_children(n)
    muddy = frozenset(muddy)
    names = CHILD_NAMES[:n]
    if not muddy:
        raise ValueError("at least one child must be muddy, or the announcement is false")
    if not muddy <= set(names):
        raise ValueError(f"unknown children {sorted(muddy - set(names))}")
    actual = tuple(1 if name in muddy else 0 for name in names)

    def flip(world: tuple, i: int, value: int) -> tuple:
        return world[:i] + (value,) + world[i + 1 :]

    def knows_own(world: tuple, i: int, alive: frozenset) -> bool:
        seen = {v[i] for b in (0, 1) for v in (flip(world, i, b),) if v in alive}
        return len(seen) == 1

    def ignorant_everywhere(world: tuple, alive: frozenset) -> bool:
        return all(not knows_own(world, i, alive) for i in range(n))

    def states(world: tuple, alive: frozenset) -> dict[str, str]:
        result = {}
        for i, name in enumerate(names):
            if knows_own(world, i, alive):
                result[name] = _KNOWS_MUDDY if world[i] == 1 else _KNOWS_CLEAN
            else:
                result[name] = _UNKNOWN
        return result

    everything = frozenset(
        tuple((index >> i) & 1 for i in range(n)) for index in range(1 << n)
    )
    after_father = frozenset(w for w in everything if any(w))
    rounds = [everything, after_father]
    knowledge = [states(actual, after_father)]
    alive = after_father
    ignorance_rounds = 0
    while ignorant_everywhere(actual, alive):
        shrunk = frozenset(w for w in alive if ignorant_everywhere(w, alive))
        if shrunk == alive:
            break
        alive = shrunk
        ignorance_rounds += 1
        rounds.append(alive)
        knowledge.append(states(actual, alive))

    unpointed_sizes = [len(after_father)]
    current = after_father
    while True:
        shrunk = frozenset(w for w in current if ignorant_everywhere(w, current))
        if shrunk == current:
            break
        current = shrunk
        unpointed_sizes.append(len(current))
    return OracleTrace(
        rounds=tuple(rounds),
        knowledge=tuple(knowledge),
        ignorance_rounds=ignorance_rounds,
        unpointed_sizes=tuple(unpointed_sizes),
        unpointed_outcome="empty" if not current else "stabilized-nonempty",
    )
