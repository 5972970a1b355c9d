"""Finite topological spaces stored as minimal neighbourhoods.

A space carries an indexed tuple of point labels and, for each point x,
the bitmask of its minimal open U_x: the intersection of every open
around x.  Every finite space is Alexandrov, so these masks fix the
topology: a set is open exactly when it contains U_x for each of its points,
and the interior of A is {x : U_x within A}.  The enumerated family of opens
is derived on demand, for output and for the quantifier-form oracles; it
can be exponential in the number of points, so nothing else reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Hashable, Iterable


class TopologyError(ValueError):
    pass


def bits(mask: int):
    """Indices of the set bits, ascending.

    A mask of at most 64 bits drops its lowest set bit at each step.  A
    wider one is read from its binary digits, reversed so that index i is
    bit i, with `str.find` skipping the zeros: linear in the width, where
    dropping bits one by one from a wide int is quadratic.
    """
    if mask >> 64:
        digits = bin(mask)[:1:-1]
        index = digits.find("1")
        while index >= 0:
            yield index
            index = digits.find("1", index + 1)
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def preimage(relation: tuple, mask: int) -> int:
    """The loci related to some locus of the mask, itself included (every
    relation here is reflexive).  A relation is `(pairs, moves)`: a pair
    `(need, members)` adds the members when the mask meets `need`, a move
    `(source, up, down)` the mask's bits in `source` shifted up or down."""
    pairs, moves = relation
    result = mask
    for need, members in pairs:
        if need & mask:
            result |= members
    for source, up, down in moves:
        result |= (mask & source) << up >> down
    return result


@dataclass(frozen=True)
class Violation:
    """One failed axiom, with the offending sets as label frozensets."""

    axiom: str  # "empty-set" | "full-set" | "union" | "intersection"
    witnesses: tuple[frozenset, ...]

    def __str__(self) -> str:
        shown = ", ".join("{" + ", ".join(map(str, sorted(w, key=repr))) + "}" for w in self.witnesses)
        return f"{self.axiom} axiom violated by {shown}" if shown else f"{self.axiom} axiom violated"


@dataclass(frozen=True)
class Topology:
    """Finite topological space: point labels plus each point's minimal open."""

    points: tuple[Hashable, ...]
    minimal: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise TopologyError("duplicate point labels")
        if len(self.minimal) != len(self.points):
            raise TopologyError(f"{len(self.points)} points but {len(self.minimal)} minimal opens")
        full = self.full_mask
        for i, nbhd in enumerate(self.minimal):
            if not nbhd >> i & 1:
                raise TopologyError(f"minimal open {nbhd:b} of point {self.points[i]!r} does not contain it")
            if nbhd & ~full:
                raise TopologyError(f"minimal open {nbhd:b} not within the carrier")
            for j in bits(nbhd):
                if self.minimal[j] & ~nbhd:
                    raise TopologyError(f"minimal open of {self.points[j]!r} not within that of {self.points[i]!r}")

    @classmethod
    def from_sets(cls, points: Iterable[Hashable], opens: Iterable[Iterable[Hashable]]) -> "Topology":
        """Space from an enumerated family of opens, checked to be a topology."""
        opens = list(opens)
        space = generate_from_subbasis(points, opens)
        problems = verify_topology(space.points, [space.mask(open_) for open_ in opens])
        if problems:
            raise TopologyError(f"not a topology: {problems[0]}")
        return space

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    @cached_property
    def opens(self) -> tuple[int, ...]:
        """Every open, ascending: the unions of minimal opens, and the empty set."""
        opens = {0}
        for nbhd in set(self.minimal):
            opens |= {open_ | nbhd for open_ in opens}
        return tuple(sorted(opens))

    @cached_property
    def _index(self) -> dict:
        return {label: i for i, label in enumerate(self.points)}

    def index(self, label: Hashable) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise TopologyError(f"point {label!r} not in the carrier") from None

    def mask(self, labels: Iterable[Hashable]) -> int:
        result = 0
        for label in labels:
            result |= 1 << self.index(label)
        return result

    def labels(self, mask: int) -> frozenset:
        return frozenset(self.points[i] for i in bits(mask))

    @cached_property
    def relation(self) -> tuple:
        """Each minimal open with the points it is minimal for, as `preimage`
        pairs: the interior is the box over this relation, the closure its diamond."""
        groups = {}
        for i, nbhd in enumerate(self.minimal):
            groups[nbhd] = groups.get(nbhd, 0) | 1 << i
        return tuple(groups.items()), ()

    def interior(self, area: int) -> int:
        """The points whose minimal open is inside the area: the largest open inside it."""
        if area & ~self.full_mask:
            raise TopologyError("area not within the carrier")
        return self.full_mask & ~preimage(self.relation, self.full_mask & ~area)

    def closure(self, area: int) -> int:
        """The points whose minimal open meets the area."""
        if area & ~self.full_mask:
            raise TopologyError("area not within the carrier")
        return preimage(self.relation, area)

    @classmethod
    def from_json(cls, data) -> "Topology":
        """Space from a {"points": [...], "opens": [[...], ...]} object, verified."""
        points = json_labels(json_field(data, "points"), "points")
        opens = [json_labels(open_, "an open") for open_ in json_list(json_field(data, "opens"), "opens")]
        return cls.from_sets(points, opens)

    def to_json(self) -> dict:
        return {"points": list(self.points), "opens": [sorted(self.labels(o), key=repr) for o in self.opens]}

    def restrict(self, carrier: int) -> "Topology":
        """Induced topology on a sub-carrier (labels preserved, indices packed)."""
        if carrier & ~self.full_mask:
            raise TopologyError("sub-carrier not within the carrier")
        points = tuple(self.points[i] for i in bits(carrier))
        minimal = tuple(compress_mask(self.minimal[i] & carrier, carrier) for i in bits(carrier))
        return Topology(points, minimal)


def compress_mask(mask: int, carrier: int) -> int:
    """Re-express a subset of the carrier in the packed index space of the carrier."""
    result = 0
    position = 0
    for i in bits(carrier):
        if mask >> i & 1:
            result |= 1 << position
        position += 1
    return result


# ---------------------------------------------------------------------------
# Model files and point labels, shared by every model kind.  Model files are
# outside input: each field is checked before it is used.


def json_field(data, key: str):
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object with field {key!r}, got {data!r}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    return data[key]


def json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def json_labels(value, what: str) -> list:
    """A list of point labels: JSON numbers or strings."""
    for label in json_list(value, what):
        if isinstance(label, (list, dict)):
            raise ValueError(f"{what}: a point label must be a number or a string, got {label!r}")
    return value


def json_valuation(data) -> dict:
    """The optional "valuation" object; callers check each atom's area."""
    valuation = data.get("valuation", {})
    if not isinstance(valuation, dict):
        raise ValueError(f"valuation must be an object, got {valuation!r}")
    return valuation


def parse_label(text: str):
    """A point label written on the command line: an integer if it reads as one."""
    try:
        return int(text)
    except ValueError:
        return text


def fmt_set(labels) -> str:
    return "{" + ",".join(map(str, sorted(labels, key=repr))) + "}"


def generate_from_subbasis(points: Iterable[Hashable], subbasis: Iterable[Iterable[Hashable]]) -> Topology:
    """Smallest topology containing the subbasis sets.

    Each point's minimal open is the intersection of every subbasis set
    containing it (the whole carrier when none does).
    """
    pts = tuple(points)
    indiscrete = Topology(pts, ((1 << len(pts)) - 1,) * len(pts))
    masks = [indiscrete.mask(member) for member in subbasis]
    return Topology(pts, _minimal_opens(len(pts), masks))


def _minimal_opens(n: int, masks: list[int]) -> tuple[int, ...]:
    """For each point, the intersection of the carrier and every mask containing it."""
    full = (1 << n) - 1
    minimal = []
    for i in range(n):
        nbhd = full
        for mask in masks:
            if mask >> i & 1:
                nbhd &= mask
        minimal.append(nbhd)
    return tuple(minimal)


def verify_topology(points: tuple[Hashable, ...], opens: Iterable[int]) -> list[Violation]:
    """All axiom violations of a family of index masks over the points.

    The list is empty when the family is a topology.  Closure under binary
    unions and intersections is checked, which on a finite family is
    equivalent to closure under arbitrary unions and finite intersections.
    """

    def labels(mask: int) -> frozenset:
        return frozenset(points[i] for i in bits(mask))

    violations = []
    present = set(opens)
    family = sorted(present)
    full = (1 << len(points)) - 1
    if 0 not in present:
        violations.append(Violation("empty-set", (frozenset(),)))
    if full not in present:
        violations.append(Violation("full-set", (labels(full),)))
    for i, a in enumerate(family):
        for b in family[i + 1 :]:
            if a | b not in present:
                violations.append(Violation("union", (labels(a), labels(b))))
            if a & b not in present:
                violations.append(Violation("intersection", (labels(a), labels(b))))
    return violations


def random_topology(seed: int, n: int, k: int) -> Topology:
    """Deterministic random topology on points 0..n-1 from k random subbasis sets."""
    if n > 12:
        raise TopologyError("random topologies are capped at 12 points")
    rng = Random(seed)
    masks = [rng.randrange(1 << n) for _ in range(k)]
    return Topology(tuple(range(n)), _minimal_opens(n, masks))
