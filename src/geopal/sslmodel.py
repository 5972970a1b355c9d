"""Subset-space models: neighbourhood-situation semantics, announcement
update and persistence checking.

Truth lives on neighbourhood situations (s, U) with s in U in sigma.  The
collection sigma is any family of nonempty subsets of the carrier; it need
not be a topology.  Knowledge quantifies inside the current neighbourhood,
effort quantifies over its refinements in sigma.

The announcement update shrinks every neighbourhood individually:
U_f = {t in U : (t, U) satisfies f}, empty results dropped, and the carrier
becomes the set of points that still occur in a satisfying situation.  Two
neighbourhoods that shrink to the same point set merge, since the semantics
only ever consults the point set.  The oracle `satisfies` is `formula.holds`
over the model's own clauses: atoms, K/L, E/D, and that update spelled out.

A model is its own truth-set evaluator, like the other two kinds: it
states its atoms, K/L and E/D (`_modal`) and its announcement
(`_announce`) for `formula.tabulate`.  Truth tables are int masks whose bit
i is the i-th situation in `loci()` order.  K/L read one mask per sigma
member (its situations), E/D one mask per situation (its refinements
around the point), and `apply_update` returns, with the updated model, each
new situation's mask of the old situations that shrink to it.  The update
memo keeps the two together, so an announcement's body, read through the
updated model's `table`, is lifted back bit by bit, merged neighbourhoods
included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from random import Random
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .formula import (
    Announce,
    Atom,
    Effort,
    EffortDual,
    Formula,
    Know,
    Model,
    Possible,
    check_fragment,
    holds,
)
from .topology import bits, fmt_set, json_field, json_labels, json_list, json_valuation, parse_label


class Situation(NamedTuple):
    point: Hashable
    nbhd: frozenset

    def __str__(self) -> str:
        return f"({self.point}, {fmt_set(self.nbhd)})"


@dataclass(frozen=True)
class SSLModel(Model):
    """Carrier, collection of observation sets, and valuation.

    sigma members must be nonempty subsets of the carrier; they are stored
    deduplicated in a canonical order (by size, then by point index).
    Treat instances as immutable: each model memoizes its truth masks and
    announcement updates (see `formula.Model`), so a mutated model would
    keep answering for its old contents.
    """

    points: tuple[Hashable, ...]
    sigma: tuple[frozenset, ...]
    valuation: dict[str, frozenset] = field(default_factory=dict)
    fragment = "ssl"

    def __post_init__(self):
        index = {label: i for i, label in enumerate(self.points)}
        if len(index) != len(self.points):
            raise ValueError("duplicate point labels")
        for member in self.sigma:
            if not member:
                raise ValueError("sigma members must be nonempty")
            if not all(p in index for p in member):
                raise ValueError(f"sigma member {set(member)!r} not within the carrier")
        canonical = sorted(
            {frozenset(m) for m in self.sigma},
            key=lambda m: (len(m), sorted(index[p] for p in m)),
        )
        object.__setattr__(self, "sigma", tuple(canonical))
        for atom, area in self.valuation.items():
            if not all(p in index for p in area):
                raise ValueError(f"valuation of {atom!r} not within the carrier")

    @classmethod
    def from_sets(
        cls,
        points: Iterable[Hashable],
        sigma: Iterable[Iterable[Hashable]],
        valuation: Mapping[str, Iterable[Hashable]] = (),
    ) -> "SSLModel":
        return cls(
            tuple(points),
            tuple(frozenset(m) for m in sigma),
            {atom: frozenset(area) for atom, area in dict(valuation).items()},
        )

    @classmethod
    def disjoint_union(cls, models: Sequence["SSLModel"]) -> tuple["SSLModel", tuple[int, ...]]:
        """The disjoint union of the models, point x of the i-th labelled
        (i, x), and each model's block: the mask of its situations in the
        union, which are its own in its own order.

        No member meets two models, so knowledge and effort at a situation
        read only its model's block, and the update of the union is the
        union of the updates: a formula's table on the union is, block by
        block, its table on each model.  The union of one model is that
        model."""
        if len(models) == 1:
            return models[0], (models[0]._all,)
        points, sigma, valuation, blocks = [], [], {}, []
        start = 0
        for i, model in enumerate(models):
            points += ((i, point) for point in model.points)
            sigma += (frozenset((i, point) for point in member) for member in model.sigma)
            for atom, area in model.valuation.items():
                valuation.setdefault(atom, set()).update((i, point) for point in area)
            count = sum(map(len, model.sigma))
            blocks.append(((1 << count) - 1) << start)
            start += count
        union = cls(tuple(points), tuple(sigma), {atom: frozenset(area) for atom, area in valuation.items()})
        return union, tuple(blocks)

    def atom_set(self, name: str) -> frozenset:
        return self.valuation.get(name, frozenset())

    @property
    def is_empty(self) -> bool:
        return not self.points

    @property
    def size(self) -> int:
        """Points plus set sizes: strictly decreases under any update that changes the model."""
        return len(self.points) + sum(len(u) for u in self.sigma)

    # Derived state, built on first use.  Equality and repr see only the
    # fields, and __getstate__ keeps it out of pickles.
    @cached_property
    def _around(self) -> dict[Hashable, list[frozenset]]:
        """The sigma members around each point, in sigma order: one pass
        over the members, where testing every member at every point would
        be quadratic on a disjoint union."""
        around = {point: [] for point in self.points}
        for member in self.sigma:
            for point in member:
                around[point].append(member)
        return around

    @cached_property
    def _situations(self) -> tuple["Situation", ...]:
        around = self._around
        return tuple(Situation(point, member) for point in self.points for member in around[point])

    @cached_property
    def _all(self) -> int:
        return (1 << len(self._situations)) - 1

    @cached_property
    def _member_masks(self) -> tuple[int, ...]:
        """The situations of each sigma member, in sigma order."""
        position = {member: k for k, member in enumerate(self.sigma)}
        masks = [0] * len(self.sigma)
        for i, (_, member) in enumerate(self._situations):
            masks[position[member]] |= 1 << i
        return tuple(masks)

    @cached_property
    def _refinement_masks(self) -> tuple[int, ...]:
        """For each situation (x, U), the situations (x, V) with V within U.

        The situations of a point are consecutive, one per member around
        it, so each mask is read off that point's members and shifted to
        where its situations start."""
        masks = []
        for point in self.points:
            members = self._around[point]
            start = len(masks)
            for member in members:
                masks.append(sum(1 << k for k, smaller in enumerate(members) if smaller <= member) << start)
        return tuple(masks)

    @property
    def _order(self) -> tuple["Situation", ...]:
        """The situation at each mask bit."""
        return self._situations

    # The benchmark harness under bench/ traces and patches `table` in this
    # class's own namespace.
    table = Model.table

    def updated(self, satisfying: int) -> "SSLModel":
        """The update to the situations of the mask, built once per mask."""
        return self._pulled(satisfying)[0]

    def _pulled(self, satisfying: int) -> tuple["SSLModel", tuple[int, ...]]:
        """The update to the mask with its pull table (see `apply_update`),
        memoized together."""
        cached = self._updates.get(satisfying)
        if cached is None:
            cached = self._updates[satisfying] = apply_update(self, satisfying)
        return cached

    # Each `sum` below adds masks with no bit in common: single situations,
    # or sigma members, which partition the situations.
    def _modal(self, f: Formula, tb: int | None) -> int:
        """The mask of an atom, or of K/L/E/D over the body's mask."""
        match f:
            case Atom(name):
                area = self.atom_set(name)
                return sum(1 << i for i, (point, _) in enumerate(self._situations) if point in area)
            case Know():
                outside = ~tb
                return sum(m for m in self._member_masks if not m & outside)
            case Possible():
                return sum(m for m in self._member_masks if m & tb)
            case Effort():
                outside = ~tb
                return sum(1 << i for i, r in enumerate(self._refinement_masks) if not r & outside)
            case EffortDual():
                return sum(1 << i for i, r in enumerate(self._refinement_masks) if r & tb)
        check_fragment(f, "ssl")  # raises: every modal node of the fragment is matched above

    def _announce(self, f: Formula, ta: int) -> int:
        """Situations failing the announcement satisfy it vacuously; the
        body's table on the update is lifted back through the pull table."""
        inner, pull = self._pulled(ta)
        return (self._all - ta) | sum(pull[j] for j in bits(inner.table(f.body)))

    def _holds(self, situation: "Situation", f: Formula) -> bool:
        """Atoms, K/L over the current set, E/D over its refinements around the point."""
        point, nbhd = situation
        match f:
            case Atom(name):
                return point in self.atom_set(name)
            case Know(b) | Possible(b):
                return _QUANTIFIER[type(f)](holds(self, Situation(t, nbhd), b) for t in nbhd)
            case Effort(b) | EffortDual(b):
                refinements = (v for v in self.sigma if point in v and v <= nbhd)
                return _QUANTIFIER[type(f)](holds(self, Situation(point, v), b) for v in refinements)

    def _announced(self, situation: "Situation", a: Formula) -> tuple["SSLModel", "Situation"]:
        """The update by a, spelled out situation by situation, and the situation in it."""
        point, nbhd = situation
        shrunk = {u: frozenset(t for t in u if holds(self, Situation(t, u), a)) for u in self.sigma}
        surviving = frozenset().union(*shrunk.values())
        updated = SSLModel(
            tuple(p for p in self.points if p in surviving),
            tuple(u for u in shrunk.values() if u),
            {atom: area & surviving for atom, area in self.valuation.items()},
        )
        return updated, Situation(point, shrunk[nbhd])

    def locus(self, situation) -> "Situation":
        """The (point, set) pair as a situation, checked to be one of this model's."""
        point, nbhd = situation
        nbhd = frozenset(nbhd)
        if nbhd not in self.sigma or point not in nbhd:
            raise ValueError(f"({point!r}, {set(nbhd)!r}) is not a neighbourhood situation of this model")
        return Situation(point, nbhd)

    def track(self, situation: "Situation", holds: frozenset) -> "Situation":
        """Where a situation is after the update to `holds`: its set shrinks."""
        point, nbhd = situation
        return Situation(point, frozenset(t for t in nbhd if Situation(t, nbhd) in holds))

    def parse_locus(self, text: str) -> "Situation":
        if "@" not in text:
            raise ValueError("ssl loci are written point@member,member (e.g. s@s,t)")
        point, _, members = text.partition("@")
        return Situation(parse_label(point), frozenset(parse_label(m) for m in members.split(",")))

    @classmethod
    def from_json(cls, data: dict) -> "SSLModel":
        return cls.from_sets(
            json_labels(data.get("points", []), "points"),
            [json_labels(member, "a set") for member in json_list(json_field(data, "sets"), "sets")],
            {
                atom: json_labels(area, f"valuation of {atom!r}")
                for atom, area in json_valuation(data).items()
            },
        )

    def to_json(self) -> dict:
        order = {label: i for i, label in enumerate(self.points)}
        return {
            "kind": "ssl",
            "points": list(self.points),
            "sets": [sorted(member, key=order.get) for member in self.sigma],
            "valuation": {
                atom: sorted(area, key=order.get) for atom, area in sorted(self.valuation.items())
            },
        }

    def describe(self) -> str:
        sigma = " ".join(fmt_set(u) for u in self.sigma)
        val = " ".join(f"v({a})={fmt_set(s)}" for a, s in sorted(self.valuation.items()))
        return f"ssl points={list(self.points)} sigma=[{sigma}] {val}"

    def summary(self) -> list[str]:
        return [
            "kind: ssl",
            f"points: {' '.join(map(str, self.points)) or '(none)'}",
            f"sets: {' '.join(fmt_set(m) for m in self.sigma) or '(none)'}",
        ]


def situations(model: SSLModel) -> list[Situation]:
    """All neighbourhood situations, ordered by point then by sigma position."""
    return model.loci()


# Each dual pair differs only in its quantifier: "for every" or "for some".
_QUANTIFIER = {Know: all, Possible: any, Effort: all, EffortDual: any}


# Read by the benchmark harness under bench/, which still names the
# evaluator class.
SslEvaluator = SSLModel


def apply_update(model: SSLModel, satisfying: int) -> tuple[SSLModel, tuple[int, ...]]:
    """Update from a precomputed mask of satisfying situations.

    Returns the new model and its pull table: for each new situation, in
    `loci()` order, the mask of the old situations that shrink to it.  Two
    members that shrink to the same set merge, so a new situation can pull
    from several old ones.
    """
    situations = model._situations
    shrunk = {}
    for member, mask in zip(model.sigma, model._member_masks):
        kept = mask & satisfying
        if kept:
            shrunk[member] = frozenset(situations[i].point for i in bits(kept))
    surviving = {situations[i].point for i in bits(satisfying)}
    new_points = tuple(p for p in model.points if p in surviving)
    new_valuation = {atom: area & surviving for atom, area in model.valuation.items()}
    updated = SSLModel(new_points, tuple(shrunk.values()), new_valuation)
    pull = dict.fromkeys(updated._situations, 0)
    for i in bits(satisfying):
        point, member = situations[i]
        pull[point, shrunk[member]] |= 1 << i
    return updated, tuple(pull.values())


@dataclass(frozen=True)
class PersistenceWitness:
    """A point where the formula holds on the larger set but not the smaller."""

    point: Hashable
    larger: frozenset
    smaller: frozenset


def is_persistent(model: SSLModel, f: Formula) -> PersistenceWitness | None:
    """None when truth of f survives every neighbourhood shrink (f -> E f is
    valid), else a witness: at the first situation where f holds and E f
    fails, the first refinement in sigma order that fails f."""
    table = model.table(f)
    lost = table & ~model.table(Effort(f))
    if not lost:
        return None
    i = next(bits(lost))
    point, larger = model._situations[i]
    smaller = model._situations[next(bits(model._refinement_masks[i] & ~table))].nbhd
    return PersistenceWitness(point, larger, smaller)


@dataclass(frozen=True)
class ImmunityReport:
    checks: int
    violations: tuple[tuple[Situation, Formula], ...]

    @property
    def immune(self) -> bool:
        return not self.violations


def persistence_immunity_check(
    model: SSLModel, f: Formula, announcements: Iterable[Formula]
) -> ImmunityReport:
    """Verify that a persistent truth survives any public announcement.

    For every situation where f holds and every announcement in the list,
    [announcement] f must hold there too.  Requires f persistent in the
    model; violations are collected rather than raised (none are expected).
    """
    if is_persistent(model, f) is not None:
        raise ValueError("formula is not persistent in this model")
    table = model.table(f)
    checks = 0
    violations = []
    for chi in announcements:
        checks += table.bit_count()
        violations += ((model._situations[i], chi) for i in bits(table & ~model.table(Announce(chi, f))))
    return ImmunityReport(checks, tuple(violations))


def random_ssl_model(
    seed: int,
    max_points: int = 5,
    max_sets: int = 5,
    atoms: tuple[str, ...] = ("p", "q"),
) -> SSLModel:
    """Deterministic random model with integer point labels."""
    rng = Random(seed)
    n = rng.randint(1, max_points)
    points = tuple(range(n))
    sigma = []
    for _ in range(rng.randint(1, max_sets)):
        member = frozenset(p for p in points if rng.random() < 0.5)
        if member:
            sigma.append(member)
    if not sigma:
        sigma.append(frozenset(points))
    valuation = {
        atom: frozenset(p for p in points if rng.random() < 0.5) for atom in atoms
    }
    return SSLModel(points, tuple(sigma), valuation)
