"""Product-topological models with coordinate-wise knowledge modalities.

A model is a list of factor topologies, a set of listed worlds (tuples of
factor points, one per factor), a valuation on worlds and a carrier, the
mask of the surviving worlds.  Every listed world of a fresh model survives
(`full` lists the whole cartesian product); announcements shrink the carrier.

Agent i's knowledge quantifies along coordinate i: K_i f holds at w when
some factor-i open around w_i keeps f true at every surviving variant of w
along that coordinate.  The quantifier is relativized to surviving worlds;
factor topologies are never rebuilt.  This is the update under which the
announcement/knowledge reduction law is sound, and it makes announcements
with non-rectangular extensions (the interesting ones) actually remove
worlds.  The oracle `satisfies` is `formula.holds` over the model's own
clauses: atoms, K_i over the factor opens, and announcements world by world.

A model is its own truth-set evaluator, like the other two kinds: it
states its atom masks and the relation K_i is a box over (`_relation`).
Truth tables are int masks.  Bit i stands for the i-th listed world of the
root model (the model no announcement produced) in sorted order.  An
update keeps the root's fields and index and is told apart by its carrier,
the mask of its surviving worlds (`formula.Model.updated`), so an
announcement's body needs no lifting and an atom is a root mask
`& carrier`.  Only listed worlds are indexed, and the form of K_i's
relation depends on whether the root lists the whole cartesian product.

When it does, the index is mixed radix.  Each factor's labels are ranked
(sorted, or in factor order for every factor when the labels of some
factor do not compare), and a world's bit is the sum over factors j of its
j-th coordinate's rank times `place_j`, the product of the sizes of the
factors after j; this is the sorted order whenever each factor's labels
compare.  The worlds whose coordinate i has rank r are a block of
`place_i` ones repeated every `size_i * place_i` bits, shifted up by
`r * place_i`, so moving coordinate i from point b to point a shifts a
mask by `(rank a - rank b) * place_i`.  K_i's relation is then moves, one
per length, with no loop over worlds: the variant at every point a whose
minimal open holds a world's coordinate.  A root listing only part of the
product would need an index exponential in the number of factors for
that, so its relation is pairs built from its lines (the worlds that
agree on every coordinate but the agent's): each world's listed variants
inside its coordinate's minimal open.  Either is built once per root
model and handed to its updates; both are the set encodings of symbolic
DEL model checking (van Benthem, van Eijck, Gattinger & Su, LORI 2015).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as cartesian
from math import prod
from random import Random
from typing import Iterable, Mapping, Sequence

from .formula import (
    Atom,
    Formula,
    KnowI,
    Model,
    UnsupportedOperator,
    check_fragment,
    holds,
    walk,
)
from .topology import (
    Topology,
    _lazy,
    bits,
    fmt_set,
    json_field,
    json_labels,
    json_list,
    json_valuation,
    parse_label,
    preimage,
    random_topology,
)

World = tuple


@dataclass(frozen=True)
class ProductModel(Model):
    """Factor topologies, listed worlds, a valuation on worlds, and the
    carrier: the mask of the surviving worlds (default: every listed one).

    Treat instances as immutable: each model memoizes its truth masks, their
    read-out as world sets, and its announcement updates (see
    `formula.Model`); updated models share their root's world index.
    """

    factors: tuple[Topology, ...]
    worlds: frozenset[World]
    valuation: dict[str, frozenset] = field(default_factory=dict)
    carrier: int | None = None
    fragment = "product"

    def __post_init__(self):
        n = len(self.factors)
        if n < 1:
            raise ValueError("at least one factor required")
        # The worlds in the order given (a file's list), so an error names the first offender.
        for world in self.worlds:
            if len(world) != n:
                raise ValueError(f"world {world!r} has wrong arity")
        for factor, labels in zip(self.factors, zip(*self.worlds)):
            for label in dict.fromkeys(labels):
                factor.index(label)
        object.__setattr__(self, "worlds", frozenset(self.worlds))
        for atom, area in self.valuation.items():
            if not area <= self.worlds:
                raise ValueError(f"valuation of {atom!r} mentions non-surviving worlds")
        self._default_carrier((1 << len(self.worlds)) - 1)

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

    # The index, built on first use and handed to every update (`_shared`).
    # Equality and repr see only the fields, and __getstate__ keeps it out
    # of pickles.
    _shared = ("_order", "_bit", "_atoms", "_radix", "_knowledge")

    @_lazy
    def _order(self) -> tuple[World, ...]:
        """The world at each mask bit: the listed worlds, sorted.  The whole
        product is listed in mixed-radix order (`_radix`), which is its
        sorted order whenever the labels of each factor compare."""
        if self._radix is not None:
            # The listed tuples themselves: valuation worlds then find their
            # bits by identity, and labels read out as the model lists them.
            listed = {world: world for world in self.worlds}
            return tuple(map(listed.__getitem__, cartesian(*(labels for labels, _, _ in self._radix))))
        try:
            return tuple(sorted(self.worlds))
        except TypeError:  # labels of mixed types in one factor: factor order
            return tuple(sorted(self.worlds, key=lambda w: tuple(map(Topology.index, self.factors, w))))

    @_lazy
    def _bit(self) -> dict[World, int]:
        return {world: i for i, world in enumerate(self._order)}

    @_lazy
    def _atoms(self) -> dict[str, int]:
        """Each atom's mask over the listed worlds."""
        return {atom: _mask(self._bit, area) for atom, area in self.valuation.items()}

    @_lazy
    def _radix(self) -> tuple[tuple[Sequence, int, list[int]], ...] | None:
        """When the listed worlds are the whole product, per factor: its
        labels by rank (sorted, or in factor order for every factor when the
        labels of some factor do not compare), its place value, and each
        point's shift, its rank times the place.  None when only part of
        the product is listed."""
        factors = self.factors
        if not self.worlds or len(self.worlds) != prod([len(factor.points) for factor in factors]):
            return None
        try:
            ranked = [sorted(factor.points) for factor in factors]
        except TypeError:  # labels of mixed types in one factor
            ranked = [factor.points for factor in factors]
        place = len(self.worlds)
        radix = []
        for factor, labels in zip(factors, ranked):
            place //= len(labels)
            shifts = [0] * len(labels)
            for rank, label in enumerate(labels):
                shifts[factor.index(label)] = rank * place
            radix.append((labels, place, shifts))
        return tuple(radix)

    @_lazy
    def _knowledge(self) -> dict[int, tuple]:
        """Per agent, K_i's relation, built on first use (`_agent_relation`)."""
        return {}

    # The benchmark harness under bench/ traces and patches `table` and
    # `updated` in this class's own namespace.
    table = Model.table
    updated = Model.updated

    def _relation(self, f: Formula) -> tuple:
        """K_i: the variants inside coordinate i's minimal open."""
        if type(f) is KnowI:
            return self._agent_relation(f.agent)
        check_fragment(f, "product")  # raises: every modal node of the fragment is matched above

    def _agent_relation(self, agent: int) -> tuple:
        """The agent's relation, checked to name a factor and built once per
        root: moves when `_radix` is set (`_shift_table`), else pairs."""
        _check_agent(self, agent)
        if agent not in self._knowledge:
            build = _knowledge_table if self._radix is None else _shift_table
            self._knowledge[agent] = build(self, agent)
        return self._knowledge[agent]

    def satisfies(self, world, f: Formula) -> bool:
        """The shared oracle, after checking that every K_i names a factor;
        it scans the factor opens for K_i instead of calling `knowledge_interior`."""
        for node in walk(f):
            if type(node) is KnowI:
                _check_agent(self, node.agent)
        return super().satisfies(world, f)

    def _surviving(self, world: World) -> bool:
        i = self._bit.get(world)
        return i is not None and bool(self.carrier >> i & 1)

    def _holds(self, world: World, f: Formula) -> bool:
        """Atoms, and K_i as some factor-i open keeping b at every surviving variant."""
        match f:
            case Atom(name):
                return world in self.valuation.get(name, ())
            case KnowI(agent, b):
                factor = self.factors[agent - 1]
                position = factor.index(world[agent - 1])
                return any(
                    all(not self._surviving(v) or holds(self, v, b) for v in self.variants(world, agent, open_))
                    for open_ in factor.opens if open_ >> position & 1
                )

    def locus(self, world) -> World:
        """The world as a tuple, checked to be surviving."""
        world = tuple(world)
        if not self._surviving(world):
            raise ValueError(f"world {world!r} is not surviving in this model")
        return world

    def parse_locus(self, text: str) -> World:
        return tuple(parse_label(part) for part in text.split(","))

    @classmethod
    def from_json(cls, data: dict) -> "ProductModel":
        def worlds(value, what: str) -> list:
            return [tuple(json_labels(w, "a world")) for w in json_list(value, what)]

        factors = []
        for i, body in enumerate(json_list(json_field(data, "factors"), "factors")):
            try:
                factors.append(Topology.from_json(body))
            except ValueError as error:
                raise ValueError(f"factor {i}: {error}") from None
        valuation = {
            atom: frozenset(worlds(area, f"valuation of {atom!r}")) for atom, area in json_valuation(data).items()
        }
        listed = json_field(data, "worlds")
        if listed == "all":
            return cls.full(factors, valuation)
        return cls(tuple(factors), worlds(listed, "worlds"), valuation)

    def ordered(self, worlds: Iterable[World]) -> list[World]:
        """The worlds in `loci()` order, which is sorted order whenever the
        labels of each factor compare."""
        return sorted(worlds, key=self._bit.__getitem__)

    def _areas(self) -> list[tuple[str, list[World]]]:
        """Each atom's surviving worlds in `loci()` order, by atom."""
        order = self._order
        return [(atom, [order[i] for i in bits(mask & self.carrier)]) for atom, mask in sorted(self._atoms.items())]

    def to_json(self) -> dict:
        return {
            "kind": "product",
            "factors": [factor.to_json() for factor in self.factors],
            "worlds": list(map(list, self.loci())),
            "valuation": {atom: list(map(list, area)) for atom, area in self._areas()},
        }

    def describe(self) -> str:
        factors = "; ".join(
            f"points={list(f.points)} opens=[{' '.join(fmt_set(f.labels(o)) for o in f.opens)}]"
            for f in self.factors
        )
        val = " ".join(f"v({a})={{{','.join(map(str, area))}}}" for a, area in self._areas())
        return f"product [{factors}] worlds={self.size} {val}"

    def summary(self) -> list[str]:
        return ["kind: product", f"worlds: {' '.join(map(fmt_world, self.loci())) or '(none)'}"]

    def variants(self, world: World, agent: int, open_mask: int):
        """Worlds obtained by moving coordinate `agent` through an open (1-based)."""
        factor = self.factors[agent - 1]
        prefix, suffix = world[: agent - 1], world[agent:]
        for i in bits(open_mask):
            yield prefix + (factor.points[i],) + suffix


# Read by the benchmark harness under bench/, which still names the
# evaluator class.
ProductEvaluator = ProductModel


def _check_agent(model: ProductModel, agent: int):
    """Raise UnsupportedOperator unless the model has a factor for the agent."""
    if not 1 <= agent <= model.agent_count:
        raise UnsupportedOperator(f"agent {agent} out of range for {model.agent_count} factors")


def knowledge_interior(model: ProductModel, area: int, *agents: int) -> int:
    """The mask of the worlds where each of the agents knows membership in
    the area mask.

    A world qualifies for agent i when some factor-i open around its i-th
    coordinate keeps every surviving variant along that coordinate inside
    the area.  The condition is monotone in the open, so the minimal open
    of that coordinate decides it: its variants in that open must include
    no surviving world outside the area.  That is the box over the agent's
    relation (`ProductModel._agent_relation`), and `preimage` distributes
    over concatenated relations, so the agents' boxes meet in one box over
    their joint relation.
    """
    relations = [model._agent_relation(agent) for agent in agents]
    joint = sum((pairs for pairs, _ in relations), ()), sum((moves for _, moves in relations), ())
    worlds = model._all
    return worlds & ~preimage(joint, worlds & ~area)


def _knowledge_table(model: ProductModel, agent: int) -> tuple:
    """`preimage` pairs over the root's worlds: `members` is every world
    whose listed variants inside its coordinate's minimal open are `need`."""
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
    return tuple(groups.items()), ()


def _shift_table(model: ProductModel, agent: int) -> tuple:
    """`preimage` moves over the root's worlds: a world outside the area
    whose coordinate b lies in the minimal open of another point a makes
    its variant at a ignorant, and that variant's bit is the world's moved
    up or down by the difference of their shifts.  Moves of equal length
    share a triple, its mask the worlds they start from.  A world outside
    the area is itself ignorant (b = a), which is no move."""
    factor = model.factors[agent - 1]
    _, place, shifts = model._radix[agent - 1]
    period = len(factor.points) * place
    first = ((1 << place) - 1) * (((1 << len(model._order)) - 1) // ((1 << period) - 1))
    moves = {}
    for point, minimal in enumerate(factor.minimal):
        for other in bits(minimal & ~(1 << point)):
            length = shifts[point] - shifts[other]
            moves[length] = moves.get(length, 0) | first << shifts[other]
    return (), tuple((mask, max(length, 0), max(-length, 0)) for length, mask in moves.items())


def _mask(bit: dict[World, int], worlds: Iterable[World]) -> int:
    """The mask of the worlds' bits, set in a byte buffer: linear in the index."""
    buffer = bytearray((len(bit) + 7) // 8)
    for world in worlds:
        i = bit[world]
        buffer[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buffer, "little")


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
    mask = _mask(full._bit, area)
    return not mask & ~knowledge_interior(full, mask, axis)


def random_product_model(
    seed: int,
    max_factors: int = 3,
    max_points: int = 4,
    atoms: tuple[str, ...] = ("p", "q"),
) -> ProductModel:
    """Deterministic random model: 2..max_factors factors, full world set.
    Each atom's worlds are drawn in `loci()` order: the factors' points are
    0..n-1, so the cartesian order of their tuples is the sorted order."""
    rng = Random(seed)
    count = rng.randint(2, max_factors)
    factors = tuple(
        random_topology(rng.randrange(1 << 30), rng.randint(1, max_points), rng.randint(0, 3))
        for _ in range(count)
    )
    worlds = list(cartesian(*(f.points for f in factors)))
    valuation = {
        atom: frozenset(w for w in worlds if rng.random() < 0.5) for atom in atoms
    }
    return ProductModel(factors, frozenset(worlds), valuation)
