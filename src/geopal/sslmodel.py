"""Subset-space models: neighbourhood-situation semantics, announcement
update and persistence checking.

Truth lives on neighbourhood situations (s, U) with s in U in sigma.  The
collection sigma is any family of nonempty subsets of the points; it need
not be a topology.  Knowledge quantifies inside the current neighbourhood,
effort quantifies over its refinements in sigma.  The announcement update
shrinks every neighbourhood individually: U_f = {t in U : (t, U) satisfies
f}, empty results dropped, and only the points of surviving situations stay.

A model is its own truth-set evaluator, like the other two kinds: it
states its atom masks and the relations of K/L and E/D (`_relation`) over
int masks of the root model's situations, by point, then by set in sigma
order.  An update is the root's fields plus its carrier, the mask of its
surviving situations (`formula.Model.updated`): set U becomes
{y : (y, U) in the carrier}, an announcement's body needs no lifting, and
atoms and K/L read the root's masks.  Two sets that shrink to the same set
stay two bits of equal truth, read out once.  Effort is not inherited:
(x, V) refines (x, U) when V's surviving points lie within U's, which can
hold when V is not within U, so each model compiles its own relation, one
shift per signed distance between bits.  The oracle `satisfies` is
`formula.holds` over the model's quantifier clauses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from random import Random
from typing import Hashable, Iterable, Mapping, NamedTuple

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
    """Points, collection of observation sets, valuation, and the carrier:
    a mask with a bit per situation, and one past them while the points in
    no set survive (default: all of them; an update drops those points).

    sigma members must be nonempty subsets of the points; they are stored
    deduplicated in a canonical order (by size, then by point index).
    Treat instances as immutable: each model memoizes its truth masks and
    announcement updates (see `formula.Model`), so a mutated model would
    keep answering for its old contents.
    """

    points: tuple[Hashable, ...]
    sigma: tuple[frozenset, ...]
    valuation: dict[str, frozenset] = field(default_factory=dict)
    carrier: int | None = None
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
        object.__setattr__(self, "sigma", _canonical({frozenset(m) for m in self.sigma}, index))
        for atom, area in self.valuation.items():
            if not all(p in index for p in area):
                raise ValueError(f"valuation of {atom!r} not within the carrier")
        self._default_carrier(self._listed)

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

    # Derived state, built on first use; the root's index is handed to its updates.
    _shared = ("_situations", "_members", "_atoms", "_listed", "_point_pairs")
    # Each update compiles its own E/D relation (`_effort`).
    _compiled = frozenset({Effort})

    @cached_property
    def _situations(self) -> tuple["Situation", ...]:
        """The root's situation at each bit: by point, then by set in sigma
        order, in one pass over the members."""
        around = {point: [] for point in self.points}
        for member in self.sigma:
            for point in member:
                around[point].append(member)
        return tuple(Situation(point, member) for point, members in around.items() for member in members)

    @cached_property
    def _members(self) -> tuple:
        """K and L's relation: the root's situations of each sigma member, in
        sigma order, as `preimage` pairs, each member needing itself."""
        masks = dict.fromkeys(self.sigma, 0)
        for i, (_, member) in enumerate(self._situations):
            masks[member] |= 1 << i
        return tuple(zip(masks.values(), masks.values())), ()

    @cached_property
    def _atoms(self) -> dict[str, int]:
        """Each atom's mask over the root's situations."""
        situations = self._situations
        return {
            atom: sum(1 << i for i, (point, _) in enumerate(situations) if point in area)
            for atom, area in self.valuation.items()
        }

    @cached_property
    def _listed(self) -> int:
        """Every situation, and the bit past them if some point is in no set."""
        count = sum(map(len, self.sigma))
        return (1 << count) - 1 | (len(set().union(*self.sigma)) < len(self.points)) << count

    @cached_property
    def _all(self) -> int:
        """The surviving situations: the carrier without its stray-point bit."""
        return self.carrier & (1 << len(self._situations)) - 1

    @cached_property
    def _point_pairs(self) -> tuple:
        """Each ordered pair of the root's situations at one point, as
        (bit, other bit, set, other set), by point and then by bit."""
        rows = {}
        for i, (point, member) in enumerate(self._situations):
            rows.setdefault(point, []).append((i, member))
        return tuple(
            (at, to, smaller, larger) for row in rows.values() for at, smaller in row for to, larger in row if to != at
        )

    @cached_property
    def _effort(self) -> tuple:
        """E and D's relation, refinement, as `preimage` moves, one per signed
        distance between bits: each carries the situations (x, V) in its mask
        to (x, U), for V's surviving points within U's, both surviving."""
        pairs = self._point_pairs
        if not pairs:  # no point lies in two sets
            return (), ()
        everything, shrunk = self._all, self._shrunk
        moves = {}
        for at, to, smaller, larger in pairs:
            if everything >> at & everything >> to & 1 and shrunk[smaller] <= shrunk[larger]:
                moves[to - at] = moves.get(to - at, 0) | 1 << at
        return (), tuple((mask, max(d, 0), max(-d, 0)) for d, mask in moves.items())

    @cached_property
    def _shrunk(self) -> dict[frozenset, frozenset]:
        """Each sigma member's surviving points."""
        situations, everything = self._situations, self._all
        return {
            member: frozenset(situations[i].point for i in bits(mask & everything)) if mask & ~everything else member
            for member, (mask, _) in zip(self.sigma, self._members[0])
        }

    @cached_property
    def _contents(self) -> tuple[tuple, tuple[frozenset, ...], dict[str, frozenset]]:
        """The points, sets and valuation as a fresh model of this one lists
        them: the sets shrunk to their surviving points, equal sets once, and
        the points in them (and in no set, while the carrier keeps those)."""
        if self.carrier == self._listed:
            return self.points, self.sigma, self.valuation
        surviving = set().union(*self._shrunk.values())
        if self.carrier >> len(self._situations):
            surviving.update(set(self.points).difference(*self.sigma))
        points = tuple(p for p in self.points if p in surviving)
        sigma = _canonical({member for member in self._shrunk.values() if member}, self._index)
        return points, sigma, {atom: area & surviving for atom, area in self.valuation.items()}

    @cached_property
    def _index(self) -> dict[Hashable, int]:
        return {label: i for i, label in enumerate(self.points)}

    @cached_property
    def _order(self) -> tuple["Situation", ...]:
        """The situation at each bit: its point and its set's surviving points."""
        if self.carrier == self._listed:
            return self._situations
        shrunk = self._shrunk
        return tuple(Situation(point, shrunk[member]) for point, member in self._situations)

    def _loci(self, mask: int) -> list["Situation"]:
        """The situations at the bits of the mask, as a fresh model lists them."""
        index, rank = self._index, {member: k for k, member in enumerate(self._contents[1])}
        return sorted(self._read(mask), key=lambda s: (index[s.point], rank[s.nbhd]))

    @property
    def size(self) -> int:
        """Points plus set sizes: strictly decreases under any update that changes the model."""
        points, sigma, _ = self._contents
        return len(points) + sum(map(len, sigma))

    # The benchmark harness under bench/ traces and patches `table` and
    # `updated` in this class's own namespace.
    table = Model.table
    updated = Model.updated

    def _relation(self, f: Formula) -> tuple:
        """K/L: the current set's situations; E/D: refinements around the point."""
        kind = type(f)
        if kind is Know or kind is Possible:
            return self._members
        if kind is Effort or kind is EffortDual:
            return self._effort
        check_fragment(f, "ssl")  # raises: every modal node of the fragment is matched above

    def _holds(self, situation: "Situation", f: Formula) -> bool:
        """Atoms, K/L over the current set, E/D over its refinements around the point."""
        point, nbhd = situation
        match f:
            case Atom(name):
                return point in self.valuation.get(name, ())
            case Know(b) | Possible(b):
                return _QUANTIFIER[type(f)](holds(self, Situation(t, nbhd), b) for t in nbhd)
            case Effort(b) | EffortDual(b):
                refinements = (v for v in self._contents[1] if point in v and v <= nbhd)
                return _QUANTIFIER[type(f)](holds(self, Situation(point, v), b) for v in refinements)

    def locus(self, situation) -> "Situation":
        """The (point, set) pair as a situation, checked to be one of this model's."""
        point, nbhd = situation
        nbhd = frozenset(nbhd)
        if nbhd not in self._contents[1] or point not in nbhd:
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
        points, sigma, valuation = self._contents
        return {
            "kind": "ssl",
            "points": list(points),
            "sets": [sorted(member, key=self._index.get) for member in sigma],
            "valuation": {atom: sorted(area, key=self._index.get) for atom, area in sorted(valuation.items())},
        }

    def describe(self) -> str:
        points, sigma, valuation = self._contents
        val = " ".join(f"v({a})={fmt_set(s)}" for a, s in sorted(valuation.items()))
        return f"ssl points={list(points)} sigma=[{' '.join(map(fmt_set, sigma))}] {val}"

    def summary(self) -> list[str]:
        points, sigma, _ = self._contents
        return [
            "kind: ssl",
            f"points: {' '.join(map(str, points)) or '(none)'}",
            f"sets: {' '.join(map(fmt_set, sigma)) or '(none)'}",
        ]


def situations(model: SSLModel) -> list[Situation]:
    """All neighbourhood situations, ordered by point then by sigma position."""
    return model.loci()


def _canonical(sets: Iterable[frozenset], index: Mapping[Hashable, int]) -> tuple[frozenset, ...]:
    """The sets by size, then by the indices of their points."""
    return tuple(sorted(sets, key=lambda m: (len(m), sorted(index[p] for p in m))))


# Each dual pair differs only in its quantifier: "for every" or "for some".
_QUANTIFIER = {Know: all, Possible: any, Effort: all, EffortDual: any}


# Read by the benchmark harness under bench/, which still names the
# evaluator class.
SslEvaluator = SSLModel


@dataclass(frozen=True)
class PersistenceWitness:
    """A point where the formula holds on the larger set but not the smaller."""

    point: Hashable
    larger: frozenset
    smaller: frozenset


def is_persistent(model: SSLModel, f: Formula) -> PersistenceWitness | None:
    """None when truth of f survives every neighbourhood shrink (f -> E f is
    valid), else a witness: at the first situation, in `loci()` order, where
    f holds and E f fails, the first refinement in sigma order that fails f."""
    table = model.table(f)
    lost = table & ~model.table(Effort(f))
    if not lost:
        return None
    point, larger = model._loci(lost)[0]
    failing = model._read(model._all - table)
    smaller = next(v for v in model._contents[1] if v <= larger and Situation(point, v) in failing)
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
        checks += len(model._read(table))
        violations += ((situation, chi) for situation in model._loci(table & ~model.table(Announce(chi, f))))
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
