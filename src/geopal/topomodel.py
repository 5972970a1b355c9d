"""Single-agent topological models and their announcement update.

Two evaluators are provided.  `extension` computes the truth set of a
formula bottom-up with bitmask operations and is the default everywhere.
`satisfies` spells out the quantifier clauses for the modalities
(exists-open-forall for interior, forall-open-exists for closure) and is
kept purely as a differential-testing oracle for `extension`: it never
calls `extension`, and it announces by finding the surviving points one by
one before both paths share `_restrict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Hashable, Iterable, Mapping

from .formula import (
    And,
    Announce,
    Atom,
    Bot,
    Closure,
    Formula,
    Implies,
    Interior,
    Not,
    Or,
    Top,
    check_fragment,
)
from .topology import (
    Topology,
    TopologyError,
    bits,
    compress_mask,
    fmt_set,
    json_labels,
    json_valuation,
    parse_label,
    random_topology,
)


@dataclass(frozen=True)
class TopoModel:
    """A topological space plus a valuation mapping atoms to point masks.

    Atoms absent from the valuation denote the empty set.  Treat instances
    as immutable: updates return fresh models.
    """

    space: Topology
    valuation: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        full = self.space.full_mask
        for atom, mask in self.valuation.items():
            if mask & ~full:
                raise TopologyError(f"valuation of {atom!r} not within the carrier")

    @classmethod
    def from_sets(
        cls,
        points: Iterable[Hashable],
        opens: Iterable[Iterable[Hashable]],
        valuation: Mapping[str, Iterable[Hashable]],
    ) -> "TopoModel":
        space = Topology.from_sets(points, opens)
        return cls(space, {atom: space.mask(area) for atom, area in valuation.items()})

    def atom_mask(self, name: str) -> int:
        return self.valuation.get(name, 0)

    @property
    def is_empty(self) -> bool:
        return not self.space.points

    @property
    def size(self) -> int:
        return len(self.space.points)

    def loci(self) -> tuple:
        return self.space.points

    def truth(self, f: Formula) -> frozenset:
        """The points where f holds."""
        return self.space.labels(extension(self, f))

    def update(self, f: Formula) -> "TopoModel":
        return update(self, f)

    def satisfies(self, point: Hashable, f: Formula) -> bool:
        """Truth at one point through the quantifier-form oracle."""
        check_fragment(f, "topo")
        return satisfies(self, point, f)

    def locus(self, point: Hashable) -> Hashable:
        """The point, checked to be one of this model's."""
        self.space.index(point)
        return point

    def track(self, point: Hashable, holds: frozenset) -> Hashable:
        """Where a locus is after the update to `holds`: points keep their label."""
        return point

    def parse_locus(self, text: str) -> Hashable:
        return parse_label(text)

    @classmethod
    def from_json(cls, data: dict) -> "TopoModel":
        space = Topology.from_json(data)
        valuation = {
            atom: space.mask(json_labels(area, f"valuation of {atom!r}"))
            for atom, area in json_valuation(data).items()
        }
        return cls(space, valuation)

    def to_json(self) -> dict:
        valuation = {
            atom: sorted(self.space.labels(mask), key=repr) for atom, mask in sorted(self.valuation.items())
        }
        return {"kind": "topo", **self.space.to_json(), "valuation": valuation}

    def describe(self) -> str:
        opens = " ".join(fmt_set(self.space.labels(o)) for o in self.space.opens)
        val = " ".join(f"v({a})={fmt_set(self.space.labels(m))}" for a, m in sorted(self.valuation.items()))
        return f"topo points={list(self.space.points)} opens=[{opens}] {val}"

    def summary(self) -> list[str]:
        return [
            "kind: topo",
            f"points: {' '.join(map(str, self.space.points)) or '(none)'}",
            f"opens: {len(self.space.opens)}",
        ]


def extension(model: TopoModel, f: Formula) -> int:
    """Truth set of the formula as a mask over the model's points."""
    space = model.space
    full = space.full_mask
    match f:
        case Atom(name):
            return model.atom_mask(name)
        case Top():
            return full
        case Bot():
            return 0
        case Not(b):
            return full & ~extension(model, b)
        case And(a, b):
            return extension(model, a) & extension(model, b)
        case Or(a, b):
            return extension(model, a) | extension(model, b)
        case Implies(a, b):
            return (full & ~extension(model, a)) | extension(model, b)
        case Interior(b):
            return space.interior(extension(model, b))
        case Closure(b):
            return space.closure(extension(model, b))
        case Announce(a, b):
            announced = extension(model, a)
            updated = _restrict(model, announced)
            inner = extension(updated, b)
            # Points failing the announcement satisfy it vacuously; surviving
            # points defer to the updated model, mapped back through labels.
            surviving_true = 0
            for packed_index, label in enumerate(updated.space.points):
                if inner >> packed_index & 1:
                    surviving_true |= 1 << space.index(label)
            return (full & ~announced) | surviving_true
    check_fragment(f, "topo")  # raises: every node of the fragment is matched above


def satisfies(model: TopoModel, point: Hashable, f: Formula) -> bool:
    """Quantifier-form evaluation at a single point (differential oracle)."""
    space = model.space
    s = space.index(point)
    match f:
        case Atom(name):
            return bool(model.atom_mask(name) >> s & 1)
        case Top():
            return True
        case Bot():
            return False
        case Not(b):
            return not satisfies(model, point, b)
        case And(a, b):
            return satisfies(model, point, a) and satisfies(model, point, b)
        case Or(a, b):
            return satisfies(model, point, a) or satisfies(model, point, b)
        case Implies(a, b):
            return not satisfies(model, point, a) or satisfies(model, point, b)
        case Interior(b):
            return any(
                open_ >> s & 1 and all(satisfies(model, space.points[t], b) for t in bits(open_))
                for open_ in space.opens
            )
        case Closure(b):
            return all(
                not open_ >> s & 1 or any(satisfies(model, space.points[t], b) for t in bits(open_))
                for open_ in space.opens
            )
        case Announce(a, b):
            if not satisfies(model, point, a):
                return True
            carrier = sum(1 << t for t, label in enumerate(space.points) if satisfies(model, label, a))
            return satisfies(_restrict(model, carrier), point, b)
    check_fragment(f, "topo")  # raises: every node of the fragment is matched above


def update(model: TopoModel, f: Formula) -> TopoModel:
    """Announcement update: restrict carrier, topology and valuation to (f)."""
    return _restrict(model, extension(model, f))


def _restrict(model: TopoModel, carrier: int) -> TopoModel:
    """The subspace model on the points of the carrier mask."""
    space = model.space.restrict(carrier)
    valuation = {
        atom: compress_mask(mask & carrier, carrier)
        for atom, mask in model.valuation.items()
    }
    return TopoModel(space, valuation)


def random_topomodel(seed: int, n: int, k: int, atoms: tuple[str, ...] = ("p", "q")) -> TopoModel:
    """Deterministic random model: random topology plus random valuation."""
    space = random_topology(seed, n, k)
    rng = Random(seed ^ 0x5EED)
    valuation = {atom: rng.randrange(1 << n) for atom in atoms}
    return TopoModel(space, valuation)
