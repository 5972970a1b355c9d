"""Single-agent topological models and their announcement update.

`extension` computes the truth set of a formula as a bitmask over the
model's points and is the default everywhere.  It is `formula.tabulate`,
the truth-set loop all three model kinds share: the model states only its
atoms, `I`/`C` (`_modal`) and its announcement (`_announce`), whose body is
evaluated on the subspace model by a nested pass, so the depth of Python
recursion is the depth of announcement nesting.

The memos are `formula.Model`'s: masks by formula, so a formula evaluated
once on a model (a shared subformula of two formulas, a repeated `truth`,
an equal formula built anew) is not evaluated again there, and subspaces by
the announced formula's truth mask, so `update(f) is update(f)` and every
announcement of the same set restricts the space once.  Subspaces keep
their own masks.

`satisfies` is `formula.holds` over the model's quantifier clauses for
atoms, interior (exists-open-forall) and closure (forall-open-exists), kept
purely as a differential-testing oracle for `extension`: it never calls
`extension`, and it announces by finding the surviving points one by one
before both paths share `_updated`.
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
    tabulate,
)
from .topology import (
    Topology,
    TopologyError,
    bits,
    compress_mask,
    expand_mask,
    fmt_set,
    json_labels,
    json_valuation,
    parse_label,
    random_topology,
)


@dataclass(frozen=True)
class TopoModel(Model):
    """A topological space plus a valuation mapping atoms to point masks.

    Atoms absent from the valuation denote the empty set.  Treat instances
    as immutable: updates return fresh models.
    """

    space: Topology
    valuation: dict[str, int] = field(default_factory=dict)
    fragment = "topo"

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

    @property
    def _order(self) -> tuple:
        """The point at each mask bit."""
        return self.space.points

    def _mask(self, f: Formula) -> int:
        return extension(self, f)

    def _updated(self, carrier: int) -> "TopoModel":
        """The subspace model on the points of the carrier mask, built once per carrier."""
        subspace = self._updates.get(carrier)
        if subspace is None:
            valuation = {
                atom: compress_mask(mask & carrier, carrier)
                for atom, mask in self.valuation.items()
            }
            subspace = self._updates[carrier] = TopoModel(self.space.restrict(carrier), valuation)
        return subspace

    def _holds(self, point: Hashable, f: Formula) -> bool:
        """Atoms, and I/C as exists-open-forall and forall-open-exists."""
        space = self.space
        s = space.index(point)
        match f:
            case Atom(name):
                return bool(self.atom_mask(name) >> s & 1)
            case Interior(b) | Closure(b):
                outer, inner = (any, all) if type(f) is Interior else (all, any)
                return outer(
                    inner(holds(self, space.points[t], b) for t in bits(open_))
                    for open_ in space.opens if open_ >> s & 1
                )

    # The model's clauses for `formula.tabulate`, over masks.

    @property
    def _all(self) -> int:
        return self.space.full_mask

    def _modal(self, f: Formula, body: int | None) -> int:
        """The mask of an atom, or of I/C over the body's mask."""
        kind = type(f)
        if kind is Atom:
            return self.atom_mask(f.name)
        if kind is Interior:
            return self.space.interior(body)
        if kind is Closure:
            return self.space.closure(body)
        check_fragment(f, "topo")  # raises: every modal node of the fragment is matched above

    def _announce(self, f: Formula, announced: int) -> int:
        """Points failing the announcement satisfy it vacuously; surviving
        points defer to the subspace, whose indices pack the carrier's."""
        inner = extension(self._updated(announced), f.body)
        return (self.space.full_mask & ~announced) | expand_mask(inner, announced)

    def _announced(self, point: Hashable, a: Formula) -> tuple["TopoModel", Hashable]:
        """The subspace of the points where a holds, found one by one."""
        carrier = sum(1 << t for t, label in enumerate(self.space.points) if holds(self, label, a))
        return self._updated(carrier), point

    def locus(self, point: Hashable) -> Hashable:
        """The point, checked to be one of this model's."""
        self.space.index(point)
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
    """Truth set of the formula as a mask over the model's points (memoized)."""
    return tabulate(model, f)


# The oracle and the announcement update as functions: satisfies(model,
# point, f), and update(model, f), which restricts carrier, topology and
# valuation to the truth set of f.
satisfies = TopoModel.satisfies
update = TopoModel.update


def random_topomodel(seed: int, n: int, k: int, atoms: tuple[str, ...] = ("p", "q")) -> TopoModel:
    """Deterministic random model: random topology plus random valuation."""
    space = random_topology(seed, n, k)
    rng = Random(seed ^ 0x5EED)
    valuation = {atom: rng.randrange(1 << n) for atom in atoms}
    return TopoModel(space, valuation)
