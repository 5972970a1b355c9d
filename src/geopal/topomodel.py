"""Single-agent topological models and their announcement update.

A model is its own truth-set evaluator, like the other two kinds: it
states its atoms and `I`/`C` (`_modal`), and `formula.Model.table` runs
`formula.tabulate` over them, so the depth of Python recursion is the depth
of announcement nesting.  `extension(model, f)` is that table as a
function.

The update by an announcement is the subspace on its truth set.  It keeps
the root's space and valuation and is told apart by its carrier, the mask
of its points (`formula.Model.updated`), so nothing is re-indexed: atoms
are root masks `& carrier`, and the subspace's interior and closure are
expressions over the root's, `I_S(A) = S & I((X - S) | A)` and
`C_S(A) = S & C(A)`.  Only the output (`to_json`, `describe`, `summary`)
builds the subspace as a space of its own (`Topology.restrict`).

The memos are `formula.Model`'s: masks by formula, so a formula evaluated
once on a model (a shared subformula of two formulas, a repeated `truth`,
an equal formula built anew) is not evaluated again there, and updates by
the announced formula's truth mask, so `update(f) is update(f)`.

`satisfies` is `formula.holds` over the model's quantifier clauses for
atoms, interior (exists-open-forall) and closure (forall-open-exists) over
the subspace opens, kept purely as a differential-testing oracle for the
table: it never reads one, and it announces by finding the surviving
points one by one before both paths share `updated`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Hashable, Iterable, Mapping

from .formula import (
    Atom,
    Closure,
    Formula,
    Interior,
    Model,
    check_fragment,
    holds,
)
from .topology import (
    Topology,
    TopologyError,
    bits,
    fmt_set,
    json_labels,
    json_valuation,
    parse_label,
    random_topology,
)


@dataclass(frozen=True)
class TopoModel(Model):
    """A topological space, a valuation mapping atoms to point masks, and
    the carrier: the mask of the points of this model (default: all).

    Atoms absent from the valuation denote the empty set.  Treat instances
    as immutable: updates return fresh models.
    """

    space: Topology
    valuation: dict[str, int] = field(default_factory=dict)
    carrier: int | None = None
    fragment = "topo"

    def __post_init__(self):
        full = self.space.full_mask
        self._default_carrier(full)
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

    @property
    def _order(self) -> tuple:
        """The point at each mask bit."""
        return self.space.points

    def _holds(self, point: Hashable, f: Formula) -> bool:
        """Atoms, and I/C as exists-open-forall and forall-open-exists over
        the subspace opens (each root open meet the carrier)."""
        space, carrier = self.space, self.carrier
        s = space.index(point)
        match f:
            case Atom(name):
                return bool(self.valuation.get(name, 0) >> s & 1)
            case Interior(b) | Closure(b):
                outer, inner = (any, all) if type(f) is Interior else (all, any)
                return outer(
                    inner(holds(self, space.points[t], b) for t in bits(open_ & carrier))
                    for open_ in space.opens if open_ >> s & 1
                )

    def _modal(self, f: Formula, body: int | None) -> int:
        """The mask of an atom, or of I/C over the body's mask, in the subspace."""
        kind = type(f)
        carrier = self.carrier
        if kind is Atom:
            return self.valuation.get(f.name, 0) & carrier
        if kind is Interior:
            return carrier & self.space.interior((self.space.full_mask - carrier) | body)
        if kind is Closure:
            return carrier & self.space.closure(body)
        check_fragment(f, "topo")  # raises: every modal node of the fragment is matched above

    def locus(self, point: Hashable) -> Hashable:
        """The point, checked to be one of this model's."""
        if not self.carrier >> self.space.index(point) & 1:
            raise TopologyError(f"point {point!r} not in the carrier")
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

    def _subspace(self) -> Topology:
        """The carrier as a space of its own, for output."""
        return self.space.restrict(self.carrier)

    def _areas(self) -> list[tuple[str, frozenset]]:
        """Each atom's points in this model, by atom."""
        return [(atom, self.space.labels(mask & self.carrier)) for atom, mask in sorted(self.valuation.items())]

    def to_json(self) -> dict:
        valuation = {atom: sorted(area, key=repr) for atom, area in self._areas()}
        return {"kind": "topo", **self._subspace().to_json(), "valuation": valuation}

    def describe(self) -> str:
        space = self._subspace()
        opens = " ".join(fmt_set(space.labels(o)) for o in space.opens)
        val = " ".join(f"v({a})={fmt_set(area)}" for a, area in self._areas())
        return f"topo points={list(space.points)} opens=[{opens}] {val}"

    def summary(self) -> list[str]:
        return [
            "kind: topo",
            f"points: {' '.join(map(str, self.loci())) or '(none)'}",
            f"opens: {len(self._subspace().opens)}",
        ]


# The table, the oracle and the announcement update as functions:
# extension(model, f), the truth set of f as a mask over the model's points
# (memoized); satisfies(model, point, f); and update(model, f), the
# subspace on the truth set of f.
extension = TopoModel.table
satisfies = TopoModel.satisfies
update = TopoModel.update


def random_topomodel(seed: int, n: int, k: int, atoms: tuple[str, ...] = ("p", "q")) -> TopoModel:
    """Deterministic random model: random topology plus random valuation."""
    space = random_topology(seed, n, k)
    rng = Random(seed ^ 0x5EED)
    valuation = {atom: rng.randrange(1 << n) for atom in atoms}
    return TopoModel(space, valuation)
