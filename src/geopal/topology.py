"""Finite topological spaces with opens stored explicitly as bitmasks.

A space carries an indexed tuple of point labels (at most 64) and the full
family of opens, each open a bitmask over the point indices.  Opens are
kept explicit rather than as a basis: the models are small and every
consumer (interior scans, axiom verification, subspaces) enumerates the
family anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from random import Random
from typing import Hashable, Iterable

MAX_POINTS = 64


class TopologyError(ValueError):
    pass


def bits(mask: int):
    """Indices of the set bits, ascending."""
    index = 0
    while mask:
        if mask & 1:
            yield index
        mask >>= 1
        index += 1


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
    """Finite topological space: point labels plus the family of opens."""

    points: tuple[Hashable, ...]
    opens: tuple[int, ...]

    def __post_init__(self):
        if len(self.points) > MAX_POINTS:
            raise TopologyError(f"at most {MAX_POINTS} points supported, got {len(self.points)}")
        if len(set(self.points)) != len(self.points):
            raise TopologyError("duplicate point labels")
        object.__setattr__(self, "opens", tuple(sorted(set(self.opens))))
        full = self.full_mask
        for open_ in self.opens:
            if open_ & ~full:
                raise TopologyError(f"open {open_:b} not within the carrier")

    @classmethod
    def from_sets(cls, points: Iterable[Hashable], opens: Iterable[Iterable[Hashable]]) -> "Topology":
        pts = tuple(points)
        index = {label: i for i, label in enumerate(pts)}
        masks = []
        for open_ in opens:
            mask = 0
            for label in open_:
                if label not in index:
                    raise TopologyError(f"open member {label!r} not in the carrier")
                mask |= 1 << index[label]
            masks.append(mask)
        return cls(pts, tuple(masks))

    @property
    def full_mask(self) -> int:
        return (1 << len(self.points)) - 1

    @cached_property
    def _index(self) -> dict:
        return {label: i for i, label in enumerate(self.points)}

    @cached_property
    def _opens_set(self) -> frozenset[int]:
        return frozenset(self.opens)

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

    def is_open(self, mask: int) -> bool:
        return mask in self._opens_set

    def interior(self, area: int) -> int:
        """Union of all opens contained in the area (the largest such open)."""
        if area & ~self.full_mask:
            raise TopologyError("area not within the carrier")
        result = 0
        for open_ in self.opens:
            if open_ & ~area == 0:
                result |= open_
        return result

    def closure(self, area: int) -> int:
        """Complement of the interior of the complement."""
        if area & ~self.full_mask:
            raise TopologyError("area not within the carrier")
        return self.full_mask & ~self.interior(self.full_mask & ~area)

    @classmethod
    def from_json(cls, data) -> "Topology":
        """Space from a {"points": [...], "opens": [[...], ...]} object, verified."""
        points = json_labels(json_field(data, "points"), "points")
        opens = [json_labels(open_, "an open") for open_ in json_list(json_field(data, "opens"), "opens")]
        space = cls.from_sets(points, opens)
        problems = verify_topology(space)
        if problems:
            raise TopologyError(f"not a topology: {problems[0]}")
        return space

    def to_json(self) -> dict:
        return {"points": list(self.points), "opens": [sorted(self.labels(o), key=repr) for o in self.opens]}

    def restrict(self, carrier: int) -> "Topology":
        """Induced topology on a sub-carrier (labels preserved, indices packed)."""
        if carrier & ~self.full_mask:
            raise TopologyError("sub-carrier not within the carrier")
        points = tuple(self.points[i] for i in bits(carrier))
        opens = {compress_mask(open_ & carrier, carrier) for open_ in self.opens}
        return Topology(points, tuple(opens))


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

    Built from the minimal neighbourhood of each point (the intersection of
    every subbasis set containing it) closed under binary union; on a finite
    carrier that is exactly closure under the topology axioms.
    """
    pts = tuple(points)
    probe = Topology(pts, (0, (1 << len(pts)) - 1))
    masks = [probe.mask(member) for member in subbasis]
    return Topology(pts, _close_masks(len(pts), masks))


def _close_masks(n: int, subbasis_masks: list[int]) -> tuple[int, ...]:
    full = (1 << n) - 1
    minimal = []
    for i in range(n):
        nbhd = full
        for mask in subbasis_masks:
            if mask >> i & 1:
                nbhd &= mask
        minimal.append(nbhd)
    opens = {0, full}
    queue = list(set(minimal))
    while queue:
        new = queue.pop()
        if new in opens:
            continue
        opens.add(new)
        queue.extend(new | other for other in opens)
    return tuple(sorted(opens))


def verify_topology(space: Topology) -> list[Violation]:
    """All axiom violations; empty list when the family is a topology.

    Closure under binary unions and intersections is checked, which on a
    finite family is equivalent to closure under arbitrary unions and
    finite intersections.
    """
    violations = []
    opens = space.opens
    present = space._opens_set
    if 0 not in present:
        violations.append(Violation("empty-set", (frozenset(),)))
    if space.full_mask not in present:
        violations.append(Violation("full-set", (space.labels(space.full_mask),)))
    for i, a in enumerate(opens):
        for b in opens[i + 1 :]:
            if a | b not in present:
                violations.append(Violation("union", (space.labels(a), space.labels(b))))
            if a & b not in present:
                violations.append(Violation("intersection", (space.labels(a), space.labels(b))))
    return violations


def random_topology(seed: int, n: int, k: int) -> Topology:
    """Deterministic random topology on points 0..n-1 from k random subbasis sets."""
    if n > 12:
        raise TopologyError("random topologies are capped at 12 points")
    rng = Random(seed)
    masks = [rng.randrange(1 << n) for _ in range(k)]
    return Topology(tuple(range(n)), _close_masks(n, masks))
