"""Product-topological models with coordinate-wise knowledge modalities.

A model is a list of factor topologies, a set of surviving worlds (tuples
of factor points, one per factor) and a valuation on worlds.  A fresh model
has the full cartesian product as its world set; announcements restrict it.

Agent i's knowledge quantifies along coordinate i: K_i f holds at w when
some factor-i open around w_i keeps f true at every surviving variant of w
along that coordinate.  The quantifier is relativized to surviving worlds;
factor topologies are never rebuilt.  This is the update under which the
announcement/knowledge reduction law is sound, and it makes announcements
with non-rectangular extensions (the interesting ones) actually remove
worlds.  The oracle `satisfies` is `formula.holds` over the model's own
clauses: atoms, K_i over the factor opens, and announcements world by world.

Truth tables are int masks.  Bit i stands for the i-th world of the root
model (the model no announcement produced) in `loci()` order, and every
model an announcement restricts it to keeps that index, so lifting a table
through an announcement is plain `&` and `|`.  Only listed worlds are
indexed, never the full cartesian product.  K_i reads a per-agent table,
built once per root model from its lines (the worlds that agree on every
coordinate but the agent's): for each world, the mask of listed variants
inside its coordinate's minimal open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as cartesian
from random import Random
from typing import Iterable, Mapping

from .formula import (
    Atom,
    Formula,
    KnowI,
    Model,
    UnsupportedOperator,
    check_fragment,
    holds,
    tabulate,
    walk,
)
from .topology import (
    Topology,
    bits,
    fmt_set,
    json_field,
    json_labels,
    json_list,
    json_valuation,
    parse_label,
    random_topology,
)

World = tuple


@dataclass(frozen=True)
class ProductModel(Model):
    """Factor topologies, surviving worlds and a valuation on worlds.

    Treat instances as immutable: each model memoizes its truth masks, their
    read-out as world sets, and its announcement updates (see
    `formula.Model`); updated models share their root's world index.
    """

    factors: tuple[Topology, ...]
    worlds: frozenset[World]
    valuation: dict[str, frozenset] = field(default_factory=dict)
    fragment = "product"

    def __post_init__(self):
        n = len(self.factors)
        if n < 1:
            raise ValueError("at least one factor required")
        for world in self.worlds:
            if len(world) != n:
                raise ValueError(f"world {world!r} has wrong arity")
            for factor, label in zip(self.factors, world):
                factor.index(label)
        for atom, area in self.valuation.items():
            if not area <= self.worlds:
                raise ValueError(f"valuation of {atom!r} mentions non-surviving worlds")

    @classmethod
    def full(
        cls,
        factors: Iterable[Topology],
        valuation: Mapping[str, Iterable[World]] = (),
    ) -> "ProductModel":
        factors = tuple(factors)
        worlds = frozenset(cartesian(*(f.points for f in factors)))
        val = {atom: frozenset(map(tuple, area)) for atom, area in dict(valuation).items()}
        return cls(factors, worlds, val)

    @property
    def agent_count(self) -> int:
        return len(self.factors)

    def atom_set(self, name: str) -> frozenset:
        return self.valuation.get(name, frozenset())

    @property
    def is_empty(self) -> bool:
        return not self.worlds

    @property
    def size(self) -> int:
        return len(self.worlds)

    # The index, built on first use.  Equality and repr see only the
    # fields, and __getstate__ keeps it out of pickles.
    # `_restrict` hands `_order`, `_bit` and `_lines` down to every model it
    # builds, so a family of updates shares one index.
    @cached_property
    def _order(self) -> tuple[World, ...]:
        """The world at each mask bit: this root model's worlds, sorted."""
        try:
            return tuple(sorted(self.worlds))
        except TypeError:  # labels of mixed types in one factor: factor order
            return tuple(sorted(self.worlds, key=lambda w: tuple(map(Topology.index, self.factors, w))))

    @cached_property
    def _bit(self) -> dict[World, int]:
        return {world: i for i, world in enumerate(self._order)}

    @cached_property
    def _all(self) -> int:
        """The mask of this model's worlds."""
        bit = self._bit
        return sum(1 << bit[world] for world in self.worlds)

    @cached_property
    def _lines(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Per agent, `knowledge_interior`'s (need, members) pairs, built on first use."""
        return {}

    def _mask(self, f: Formula) -> int:
        """The mask of the worlds where f holds (memoized on the model)."""
        table = self._tables.get(f)
        return ProductEvaluator(self).table(f) if table is None else table

    def _updated(self, mask: int) -> "ProductModel":
        """Drop the worlds outside the mask; factors are untouched."""
        return (self._updates.get(mask) or ProductEvaluator(self).updated(mask)).model

    def satisfies(self, world, f: Formula) -> bool:
        """The shared oracle, after checking that every K_i names a factor;
        it scans the factor opens for K_i instead of calling `knowledge_interior`."""
        for node in walk(f):
            if type(node) is KnowI:
                _check_agent(self, node.agent)
        return super().satisfies(world, f)

    def _holds(self, world: World, f: Formula) -> bool:
        """Atoms, and K_i as some factor-i open keeping b at every surviving variant."""
        match f:
            case Atom(name):
                return world in self.atom_set(name)
            case KnowI(agent, b):
                factor = self.factors[agent - 1]
                position = factor.index(world[agent - 1])
                return any(
                    all(v not in self.worlds or holds(self, v, b) for v in self.variants(world, agent, open_))
                    for open_ in factor.opens if open_ >> position & 1
                )

    def _announced(self, world: World, a: Formula) -> tuple["ProductModel", World]:
        """The worlds where a holds, found one by one."""
        return _restrict(self, frozenset(w for w in self.worlds if holds(self, w, a))), world

    def locus(self, world) -> World:
        """The world as a tuple, checked to be surviving."""
        world = tuple(world)
        if world not in self.worlds:
            raise ValueError(f"world {world!r} is not surviving in this model")
        return world

    def parse_locus(self, text: str) -> World:
        return tuple(parse_label(part) for part in text.split(","))

    @classmethod
    def from_json(cls, data: dict) -> "ProductModel":
        def worlds(value, what: str) -> frozenset:
            return frozenset(tuple(json_labels(w, "a world")) for w in json_list(value, what))

        factors = []
        for i, body in enumerate(json_list(json_field(data, "factors"), "factors")):
            try:
                factors.append(Topology.from_json(body))
            except ValueError as error:
                raise ValueError(f"factor {i}: {error}") from None
        valuation = {
            atom: worlds(area, f"valuation of {atom!r}") for atom, area in json_valuation(data).items()
        }
        listed = json_field(data, "worlds")
        if listed == "all":
            return cls.full(factors, valuation)
        return cls(tuple(factors), worlds(listed, "worlds"), valuation)

    def to_json(self) -> dict:
        return {
            "kind": "product",
            "factors": [factor.to_json() for factor in self.factors],
            "worlds": sorted(map(list, self.worlds)),
            "valuation": {atom: sorted(map(list, area)) for atom, area in sorted(self.valuation.items())},
        }

    def describe(self) -> str:
        factors = "; ".join(
            f"points={list(f.points)} opens=[{' '.join(fmt_set(f.labels(o)) for o in f.opens)}]"
            for f in self.factors
        )
        val = " ".join(
            f"v({a})={{{','.join(map(str, sorted(s)))}}}" for a, s in sorted(self.valuation.items())
        )
        return f"product [{factors}] worlds={len(self.worlds)} {val}"

    def summary(self) -> list[str]:
        return ["kind: product", f"worlds: {' '.join(map(fmt_world, sorted(self.worlds))) or '(none)'}"]

    def variants(self, world: World, agent: int, open_mask: int):
        """Worlds obtained by moving coordinate `agent` through an open (1-based)."""
        factor = self.factors[agent - 1]
        prefix, suffix = world[: agent - 1], world[agent:]
        for i in bits(open_mask):
            yield prefix + (factor.points[i],) + suffix


class ProductEvaluator:
    """One model's clauses for `formula.tabulate`: atoms and K_i over world
    masks (`_modal`), and an announcement's body read on the restricted
    model (`_announce`), whose masks index the same worlds.

    Tables and announcement updates (per announced truth mask) live in the
    model's memo, shared by every evaluator of that model; the memo holds
    the updated models' evaluators, never the model itself.
    """

    def __init__(self, model: ProductModel):
        self.model = model
        self._all = model._all
        self._tables = model._tables
        self._updates = model._updates

    def updated(self, mask: int) -> "ProductEvaluator":
        cached = self._updates.get(mask)
        if cached is None:
            model = self.model
            cached = self._updates[mask] = ProductEvaluator(_restrict(model, model._read(mask)))
        return cached

    def table(self, f: Formula) -> int:
        return tabulate(self, f)

    def _modal(self, f: Formula, tb: int | None) -> int:
        match f:
            case Atom(name):
                bit = self.model._bit
                return sum(1 << bit[world] for world in self.model.atom_set(name))
            case KnowI(agent):
                _check_agent(self.model, agent)
                return knowledge_interior(self.model, tb, agent)
        check_fragment(f, "product")  # raises: every modal node of the fragment is matched above

    def _announce(self, f: Formula, ta: int) -> int:
        tb2 = self.updated(ta).table(f.body)
        return (self._all - ta) | (ta & tb2)


def _check_agent(model: ProductModel, agent: int):
    """Raise UnsupportedOperator unless the model has a factor for the agent."""
    if agent > model.agent_count:
        raise UnsupportedOperator(f"agent {agent} out of range for {model.agent_count} factors")


def knowledge_interior(model: ProductModel, area: int, agent: int) -> int:
    """The mask of the worlds where agent i knows membership in the area mask.

    A world qualifies when some factor-i open around its i-th coordinate
    keeps every surviving variant along that coordinate inside the area.
    The condition is monotone in the open, so the minimal open of that
    coordinate decides it: the world's `need` mask, its listed variants in
    that open, must meet no surviving world outside the area.
    """
    worlds = model._all
    outside = worlds & ~area
    known = 0
    for need, members in _knowledge_table(model, agent):
        if not need & outside:
            known |= members
    return known & worlds


def _knowledge_table(model: ProductModel, agent: int) -> tuple[tuple[int, int], ...]:
    """(need, members) pairs over the root's worlds: `members` is every world
    whose listed variants inside its coordinate's minimal open are `need`."""
    table = model._lines.get(agent)
    if table is None:
        axis = agent - 1
        factor = model.factors[axis]
        lines = {}
        for i, world in enumerate(model._order):
            line = lines.setdefault(world[:axis] + world[agent:], [])
            line.append((factor.index(world[axis]), 1 << i))
        groups = {}
        for line in lines.values():
            for position, bit in line:
                minimal = factor.minimal[position]
                need = sum(other_bit for other, other_bit in line if minimal >> other & 1)
                groups[need] = groups.get(need, 0) | bit
        table = model._lines[agent] = tuple(groups.items())
    return table


def _restrict(model: ProductModel, surviving: frozenset) -> ProductModel:
    """The model on the surviving worlds, indexed like its parent.

    The surviving worlds are a subset of a checked model's, so the
    constructor's checks are skipped.
    """
    restricted = object.__new__(ProductModel)
    vars(restricted).update(
        factors=model.factors,
        worlds=surviving,
        valuation={atom: area & surviving for atom, area in model.valuation.items()},
        _order=model._order,
        _bit=model._bit,
        _lines=model._lines,
    )
    return restricted


def fmt_world(world: World) -> str:
    return "(" + ",".join(map(str, world)) + ")"


def h_open(model: ProductModel, area: Iterable[World], axis: int) -> bool:
    """Whether every member of the area has an axis-open slice inside it:
    whether it lies within its own knowledge interior on the full product.

    Axis 1 is the classical horizontal direction for two factors; general n
    is handled by fixing all other coordinates.  The area is a subset of the
    raw cartesian product, not of the surviving worlds.
    """
    if not 1 <= axis <= model.agent_count:
        raise ValueError(f"axis {axis} out of range")
    area = frozenset(map(tuple, area))
    full = ProductModel.full(model.factors)
    if not area <= full.worlds:
        raise ValueError("area is not a subset of the full product")
    bit = full._bit
    mask = sum(1 << bit[world] for world in area)
    return not mask & ~knowledge_interior(full, mask, axis)


def random_product_model(
    seed: int,
    max_factors: int = 3,
    max_points: int = 4,
    atoms: tuple[str, ...] = ("p", "q"),
) -> ProductModel:
    """Deterministic random model: 2..max_factors factors, full world set."""
    rng = Random(seed)
    count = rng.randint(2, max_factors)
    factors = tuple(
        random_topology(rng.randrange(1 << 30), rng.randint(1, max_points), rng.randint(0, 3))
        for _ in range(count)
    )
    full = ProductModel.full(factors)
    valuation = {
        atom: frozenset(w for w in full.loci() if rng.random() < 0.5) for atom in atoms
    }
    return ProductModel(factors, full.worlds, valuation)
