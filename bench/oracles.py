"""Reference evaluators that share no code with the evaluators they check.

Each oracle spells out the quantifier clause of every operator at a single
locus, the way `geopal.topomodel.satisfies` does for topological models:

    ssl       K f  at (x, U): every y in U has (y, U) |= f
              L f  at (x, U): some  y in U has (y, U) |= f
              E f  at (x, U): every V in sigma with x in V <= U has (x, V) |= f
              D f  at (x, U): some  V in sigma with x in V <= U has (x, V) |= f
    product   Ki f at w: some open O of factor i around w_i such that every
              surviving world that differs from w only at coordinate i, by a
              point of O, satisfies f
    topo      I f  at x: some open O around x with every point of O |= f
              C f  at x: every open O around x has a point that satisfies f

An announcement [!a] b holds where a fails, and elsewhere b is evaluated in
the model restricted to the loci satisfying a.  For subset spaces each
neighbourhood shrinks to the points where a holds on it, empty ones are
dropped and equal ones merge; for products the surviving world set shrinks;
for topologies the carrier and the opens shrink.

The oracles read models only through their public fields (points, opens,
sigma, worlds, valuation) and use no geopal evaluator, table or update.
Results are memoized per (formula node, locus) on one model, so a reduced
formula that is a large shared DAG costs its number of distinct nodes, not
its tree size.  The memo is keyed by node identity; the oracle keeps every
node it has seen alive, so identities stay valid for its lifetime.
"""

from __future__ import annotations

from geopal.formula import (
    And,
    Announce,
    Atom,
    Bot,
    Closure,
    Effort,
    EffortDual,
    Implies,
    Interior,
    Know,
    KnowI,
    Not,
    Or,
    Possible,
    Top,
)


class _Oracle:
    """Memoized pointwise evaluation on one fixed model."""

    def __init__(self):
        self._memo: dict[tuple[int, object], bool] = {}
        self._alive: dict[int, object] = {}
        self._updates: dict[int, "_Oracle"] = {}

    def holds(self, locus, f) -> bool:
        key = (id(f), locus)
        value = self._memo.get(key)
        if value is None:
            self._alive[id(f)] = f
            value = self._clause(locus, f)
            self._memo[key] = value
        return value

    def _boolean(self, locus, f):
        match f:
            case Atom(name):
                return self._atom(locus, name)
            case Top():
                return True
            case Bot():
                return False
            case Not(b):
                return not self.holds(locus, b)
            case And(a, b):
                return self.holds(locus, a) and self.holds(locus, b)
            case Or(a, b):
                return self.holds(locus, a) or self.holds(locus, b)
            case Implies(a, b):
                return not self.holds(locus, a) or self.holds(locus, b)
            case Announce(a, b):
                if not self.holds(locus, a):
                    return True
                inner, moved = self._announced(a, locus)
                return inner.holds(moved, b)
        return None

    def updated(self, a) -> "_Oracle":
        """Oracle of the model after announcing a."""
        inner = self._updates.get(id(a))
        if inner is None:
            self._alive[id(a)] = a
            inner = self._restrict(a)
            self._updates[id(a)] = inner
        return inner

    def _announced(self, a, locus):
        return self.updated(a), self._move(a, locus)

    def _move(self, a, locus):
        return locus

    def loci(self) -> list:
        raise NotImplementedError

    def state(self) -> tuple:
        """The model as a comparable value."""
        raise NotImplementedError


class TopoOracle(_Oracle):
    """Points are indices into the carrier; opens are frozensets of indices."""

    def __init__(self, labels, opens, valuation):
        super().__init__()
        self.labels = tuple(labels)
        self.opens = tuple(frozenset(o) for o in opens)
        self.valuation = {atom: frozenset(area) for atom, area in valuation.items()}

    @classmethod
    def of(cls, model) -> "TopoOracle":
        space = model.space
        n = len(space.points)
        opens = [{i for i in range(n) if mask >> i & 1} for mask in space.opens]
        valuation = {a: {i for i in range(n) if m >> i & 1} for a, m in model.valuation.items()}
        return cls(range(n), opens, valuation)

    def loci(self):
        return list(self.labels)

    def state(self):
        return self.labels, frozenset(self.opens), frozenset(self.valuation.items())

    def _atom(self, x, name):
        return x in self.valuation.get(name, ())

    def _clause(self, x, f):
        match f:
            case Interior(b):
                return any(x in o and all(self.holds(y, b) for y in o) for o in self.opens)
            case Closure(b):
                return all(x not in o or any(self.holds(y, b) for y in o) for o in self.opens)
        value = self._boolean(x, f)
        if value is None:
            raise TypeError(f"{type(f).__name__} has no topological clause")
        return value

    def _restrict(self, a):
        keep = frozenset(x for x in self.labels if self.holds(x, a))
        return TopoOracle(
            [x for x in self.labels if x in keep],
            {o & keep for o in self.opens},
            {atom: area & keep for atom, area in self.valuation.items()},
        )


class SslOracle(_Oracle):
    """Loci are (point, neighbourhood) pairs with point in neighbourhood."""

    def __init__(self, points, sigma, valuation):
        super().__init__()
        self.points = tuple(points)
        self.sigma = tuple(dict.fromkeys(frozenset(u) for u in sigma))
        self.valuation = {atom: frozenset(area) for atom, area in valuation.items()}

    @classmethod
    def of(cls, model) -> "SslOracle":
        return cls(model.points, model.sigma, model.valuation)

    def loci(self):
        return [(x, u) for x in self.points for u in self.sigma if x in u]

    def state(self):
        return self.points, frozenset(self.sigma), frozenset(self.valuation.items())

    def _atom(self, locus, name):
        return locus[0] in self.valuation.get(name, ())

    def _clause(self, locus, f):
        x, u = locus
        match f:
            case Know(b):
                return all(self.holds((y, u), b) for y in u)
            case Possible(b):
                return any(self.holds((y, u), b) for y in u)
            case Effort(b):
                return all(self.holds((x, v), b) for v in self.sigma if x in v and v <= u)
            case EffortDual(b):
                return any(self.holds((x, v), b) for v in self.sigma if x in v and v <= u)
        value = self._boolean(locus, f)
        if value is None:
            raise TypeError(f"{type(f).__name__} has no subset-space clause")
        return value

    def _shrink(self, a, u):
        return frozenset(y for y in u if self.holds((y, u), a))

    def _restrict(self, a):
        sigma = [s for s in (self._shrink(a, u) for u in self.sigma) if s]
        alive = frozenset().union(*sigma) if sigma else frozenset()
        return SslOracle(
            [x for x in self.points if x in alive],
            sigma,
            {atom: area & alive for atom, area in self.valuation.items()},
        )

    def _move(self, a, locus):
        return locus[0], self._shrink(a, locus[1])


class ProductOracle(_Oracle):
    """Loci are surviving worlds; factor opens are frozensets of points."""

    def __init__(self, factors, worlds, valuation):
        super().__init__()
        self.factors = tuple(factors)
        self.worlds = frozenset(worlds)
        self.valuation = {atom: frozenset(area) for atom, area in valuation.items()}

    @classmethod
    def of(cls, model) -> "ProductOracle":
        factors = [
            [frozenset(f.points[i] for i in range(len(f.points)) if mask >> i & 1) for mask in f.opens]
            for f in model.factors
        ]
        return cls(factors, model.worlds, model.valuation)

    def loci(self):
        return sorted(self.worlds)

    def state(self):
        return self.worlds, frozenset(self.valuation.items())

    def _atom(self, w, name):
        return w in self.valuation.get(name, ())

    def _clause(self, w, f):
        if isinstance(f, KnowI):
            i = f.agent - 1
            if i >= len(self.factors):
                raise ValueError(f"agent {f.agent} out of range")
            return any(
                w[i] in o
                and all(
                    self.holds(v, f.body)
                    for v in (w[:i] + (t,) + w[i + 1:] for t in o)
                    if v in self.worlds
                )
                for o in self.factors[i]
            )
        value = self._boolean(w, f)
        if value is None:
            raise TypeError(f"{type(f).__name__} has no product clause")
        return value

    def _restrict(self, a):
        keep = frozenset(w for w in self.worlds if self.holds(w, a))
        return ProductOracle(
            self.factors, keep, {atom: area & keep for atom, area in self.valuation.items()}
        )


def oracle_for(model) -> _Oracle:
    """The oracle of the model's semantics, built from its public fields."""
    from geopal.product import ProductModel
    from geopal.sslmodel import SSLModel
    from geopal.topomodel import TopoModel

    if isinstance(model, TopoModel):
        return TopoOracle.of(model)
    if isinstance(model, SSLModel):
        return SslOracle.of(model)
    if isinstance(model, ProductModel):
        return ProductOracle.of(model)
    raise TypeError(f"no oracle for {type(model).__name__}")


def oracle_locus(model, locus):
    """The oracle's name for a geopal locus (topo loci become indices)."""
    from geopal.sslmodel import SSLModel
    from geopal.topomodel import TopoModel

    if isinstance(model, TopoModel):
        return model.space.points.index(locus)
    if isinstance(model, SSLModel):
        return (locus[0], frozenset(locus[1]))
    return tuple(locus)
