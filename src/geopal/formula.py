"""Formula language shared by all three geometric semantics.

Concrete syntax (whitespace-insensitive):

    true  false        constants
    p, mud_a, x2       atoms: lowercase identifier [a-z][a-zA-Z0-9_]*
    ~f                 negation
    f & g,  f | g      conjunction / disjunction
    f -> g             implication, right-associative
    I f,  C f          interior and closure
    K f,  L f          knowledge and its dual
    E f,  D f          effort (neighbourhood refinement) and its dual
    K1 f, K12 f        indexed knowledge of agent 1, 2, ..., for product
                       models: ASCII digits, no leading zero
    [!f] g             public announcement of f, then g
    <!f> g             announcement dual, parsed as ~[!f]~g

Prefixes (~ and the modal letters) bind tightest, then "&", then "|",
then "->".  `render` emits minimal parentheses and round-trips through
`parse`.

Nodes are immutable values that may be shared, so a formula is a DAG.
Each node caches its structural hash when it is built, and `==` walks two
formulas with an explicit stack, comparing each pair of node objects once,
so formula-keyed memos hash one node per lookup.  Parsing, `walk`,
`fold`, `repr`, pickling and both evaluation loops are iterative:
`tabulate` computes truth sets for every model kind, and `holds` recurses
only through a model's modal clauses.  `Model` is the half of the model
protocol the three kinds share: the memoized truth table, each box and
diamond as a preimage over the kind's relation, the read-out of a mask as
loci, the update by a formula and the oracle's entry point;
`disjoint_union` places models of any kinds side by side (`Tile`), each
with its own carrier, read by the same table loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

from .topology import _lazy, bits, preimage


class FormulaError(Exception):
    """Base class for errors raised by the formula layer."""


class ParseError(FormulaError):
    """Syntax error, annotated with the offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedOperator(FormulaError):
    """An operator was used under a semantics that does not interpret it."""


class Formula:
    """Base class for formula nodes; instances are immutable values.

    A node computes its structural hash once, when it is built, from its
    type, its scalar fields and its children's cached hashes, so `hash`
    costs O(1) and never recurses.  `==` is iterative (`_same_structure`).
    The cached hash depends on the process's string-hash seed, so pickles
    and copies carry a table of constructor arguments and rebuild each node.
    """

    __slots__ = ("_hash",)

    def __repr__(self) -> str:
        """Constructor syntax, `Not(body=Atom(name='p'))`, from an explicit stack."""
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                parts.append(item)
                continue
            stack.append(")")
            for position, name in reversed(list(enumerate(item.__match_args__))):
                value = getattr(item, name)
                label = (", " if position else "") + name + "="
                stack += value if isinstance(value, Formula) else repr(value), label
            stack.append(type(item).__name__ + "(")
        return "".join(parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Formula):
            return NotImplemented
        return (
            type(self) is type(other)
            and self._hash == other._hash
            and _same_structure(self, other)
        )

    def __reduce__(self):
        """Pickle and copy as a children-first table, one `(class, scalars, child
        indices)` row per node object: sharing is kept and nothing recurses."""
        table = []

        def row(node, kids) -> int:
            values = [getattr(node, name) for name in node.__match_args__]
            scalars = tuple(value for value in values if not isinstance(value, Formula))
            table.append((type(node), scalars, tuple(kids)))
            return len(table) - 1

        fold(self, row)
        return _from_table, (tuple(table),)

    def __str__(self) -> str:
        return render(self)


def _from_table(table) -> Formula:
    """The root of a `Formula.__reduce__` table, each node rebuilt by its constructor."""
    built = []
    for kind, scalars, kids in table:
        built.append(kind(*scalars, *(built[i] for i in kids)))
    return built[-1]


# Each node class writes its own __init__, which stores the fields and the
# cached hash; eq=False keeps the dataclass from generating a recursive
# __eq__ and __hash__ over the fields, and repr=False a recursive __repr__.
_node = dataclass(frozen=True, eq=False, slots=True, init=False, repr=False)
_set = object.__setattr__


@_node
class Atom(Formula):
    name: str

    def __init__(self, name: str):
        _set(self, "name", name)
        _set(self, "_hash", hash((Atom, name)))


@_node
class _Constant(Formula):
    def __init__(self):
        _set(self, "_hash", hash(type(self)))


@_node
class Top(_Constant):
    pass


@_node
class Bot(_Constant):
    pass


@_node
class _Unary(Formula):
    body: Formula

    def __init__(self, body: Formula):
        _set(self, "body", body)
        _set(self, "_hash", hash((type(self), body._hash)))


@_node
class Not(_Unary):
    pass


@_node
class _Binary(Formula):
    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "_hash", hash((type(self), left._hash, right._hash)))


@_node
class And(_Binary):
    pass


@_node
class Or(_Binary):
    pass


@_node
class Implies(_Binary):
    pass


@_node
class Interior(_Unary):
    pass


@_node
class Closure(_Unary):
    pass


@_node
class Know(_Unary):
    pass


@_node
class Possible(_Unary):
    pass


@_node
class Effort(_Unary):
    pass


@_node
class EffortDual(_Unary):
    pass


@_node
class KnowI(Formula):
    agent: int
    body: Formula

    def __init__(self, agent: int, body: Formula):
        if agent < 1:
            raise ValueError("agent index must be at least 1")
        _set(self, "agent", agent)
        _set(self, "body", body)
        _set(self, "_hash", hash((KnowI, agent, body._hash)))


@_node
class Announce(Formula):
    announced: Formula
    body: Formula

    def __init__(self, announced: Formula, body: Formula):
        _set(self, "announced", announced)
        _set(self, "body", body)
        _set(self, "_hash", hash((Announce, announced._hash, body._hash)))


TOP = Top()
BOT = Bot()

_PREFIX_NODES = {
    "I": Interior,
    "C": Closure,
    "K": Know,
    "L": Possible,
    "E": Effort,
    "D": EffortDual,
}
_PREFIX_LETTERS = {type_: letter for letter, type_ in _PREFIX_NODES.items()}


_LEAVES = frozenset({Atom, Top, Bot})
_UNARY = frozenset({Not, Interior, Closure, Know, Possible, Effort, EffortDual, KnowI})
_BINARY = frozenset({And, Or, Implies})


def children(f: Formula) -> tuple[Formula, ...]:
    """Immediate subformulas of a node, left to right."""
    kind = type(f)
    if kind in _UNARY:
        return (f.body,)
    if kind in _BINARY:
        return (f.left, f.right)
    if kind is Announce:
        return (f.announced, f.body)
    if kind in _LEAVES:
        return ()
    raise TypeError(f"not a formula node: {f!r}")


def rebuild(f: Formula, kids) -> Formula:
    """A node of f's kind (and agent) over new children; rebuild(f, children(f)) == f."""
    kind = type(f)
    if kind in _LEAVES:
        return f
    if kind is KnowI:
        return KnowI(f.agent, *kids)
    return kind(*kids)


def walk(f: Formula):
    """Yield each distinct node object once, root first (preorder); iterative,
    so shared subformulas of a reduced DAG are visited once, at any depth."""
    seen = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(reversed(children(node)))


def fold(f: Formula, step):
    """The value of `step(node, values)` at the root, where `values` lists the
    values of the node's children in order; iterative, so `step` runs once per
    distinct node object, children first, at any depth."""
    value = {}
    stack = [(f, None)]
    while stack:
        node, kids = stack.pop()
        if kids is not None:  # every kid is done
            value[id(node)] = step(node, [value[id(kid)] for kid in kids])
        elif id(node) not in value:
            kids = children(node)
            stack.append((node, kids))
            stack += [(kid, None) for kid in reversed(kids)]
    return value[id(f)]


def _same_structure(a: Formula, b: Formula) -> bool:
    """a == b, walking both in step with an explicit stack; each pair of node
    objects is compared once, so two equal DAGs cost their number of nodes,
    not their tree size."""
    seen = set()
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        kind = type(x)
        if kind is not type(y) or x._hash != y._hash:
            return False
        if (kind is Atom and x.name != y.name) or (kind is KnowI and x.agent != y.agent):
            return False
        seen.add((id(x), id(y)))
        stack += zip(children(x), children(y))
    return True


# The node classes each semantics interprets.
_BOOLEAN = _LEAVES | _BINARY | {Not, Announce}
FRAGMENTS = {
    "topo": _BOOLEAN | {Interior, Closure},
    "ssl": _BOOLEAN | {Know, Possible, Effort, EffortDual},
    "product": _BOOLEAN | {KnowI},
}

# Each diamond and its box, of which it is the dual ~B~.
DUALS = {Closure: Interior, Possible: Know, EffortDual: Effort}


def check_fragment(f: Formula, semantics: str):
    """Raise UnsupportedOperator at the first node outside the semantics' fragment."""
    allowed = FRAGMENTS[semantics]
    for node in walk(f):
        if type(node) not in allowed:
            raise UnsupportedOperator(
                f"operator {type(node).__name__} is outside the {semantics} fragment"
            )


def holds(model, locus, f: Formula) -> bool:
    """Truth of f at a checked locus, f within the model's fragment, in quantifier
    form: `[!a] b` holds where a fails, else b where `model._announced(locus, a)`
    moves the locus.  Atoms and modalities are the model's `_holds(locus, f)`,
    which calls `holds` per body.  Connectives and announcements run on an
    explicit stack, left operand first and short-circuiting, so only modal
    nesting costs Python stack."""
    todo, value = [(model, locus, f)], False
    while todo:
        item = todo.pop()
        if item is None:  # `value` is the left operand of the node below
            model, locus, node = todo.pop()
            kind = type(node)
            if kind is Not:
                value = not value
            elif kind is Or:
                if not value:
                    todo.append((model, locus, node.right))
            elif not value:  # & fails; -> and [!a] hold vacuously
                value = kind is not And
            elif kind is Announce:
                todo.append((*model._announced(locus, node.announced), node.body))
            else:
                todo.append((model, locus, node.right))
            continue
        model, locus, node = item
        kind = type(node)
        if kind is Top or kind is Bot:
            value = kind is Top
        elif kind in _BINARY or kind is Not or kind is Announce:
            todo += item, None, (model, locus, children(node)[0])
        else:
            value = model._holds(locus, node)
    return value


def tabulate(model, f: Formula):
    """The truth set of f on the model, as an int mask over its loci: the
    batch form of `holds`.

    The model supplies `_all`, the mask of every locus; `_tables`, a
    formula-keyed memo; `_modal(node, body_mask)` for atoms (`body_mask`
    None) and modalities (`Model._modal`); and `_announce(body, mask)` for
    `[!a] b`, which reads b's table on the update to a's mask.  The connectives
    use only `everything - x`, `&` and `|`.

    Postfix order over two explicit stacks: `todo` holds nodes, a `None`
    meaning "compute the node below me", and `done` the finished sets.  Each
    node reference costs one memo lookup; any other node is computed once
    its children's sets are on `done`, then stored, at any input depth."""
    tables, everything = model._tables, model._all
    todo, done = [f], []
    while todo:
        node = todo.pop()
        if node is not None:
            value = tables.get(node)
            if value is not None:
                done.append(value)
                continue
            kind = type(node)
            todo += node, None
            if kind in _BINARY:
                todo += node.right, node.left
            elif kind is Announce:
                todo.append(node.announced)
            elif kind in _UNARY:
                todo.append(node.body)
            continue
        node = todo.pop()
        kind = type(node)
        if kind is Not:
            value = everything - done.pop()
        elif kind is And:
            value = done.pop() & done.pop()
        elif kind is Or:
            value = done.pop() | done.pop()
        elif kind is Implies:
            right = done.pop()
            value = (everything - done.pop()) | right
        elif kind is Announce:
            value = model._announce(node.body, done.pop())
        elif kind is Top:
            value = everything
        elif kind is Bot:
            value = everything - everything
        else:
            value = model._modal(node, done.pop() if kind in _UNARY else None)
        tables[node] = value
        done.append(value)
    return done.pop()


class Model:
    """The half of the model protocol that topological, subset-space and
    product models share; each kind is a frozen dataclass deriving from it.

    A kind supplies `fragment`, its key in `FRAGMENTS`; `_order`, the locus
    at each mask bit; `_atoms` and `_relation(f)`, its atom masks and the
    relation of a modal node, for `_modal`; `_holds`, its clauses for
    `holds`; and `locus`.  The base states `_modal` and `table(f)`, f's
    truth mask memoized in `_tables`, and reads truth and updates through it.
    `_value(node, kid_masks)` is one node's mask from its children's, the
    reading `rewrite._single_step` is given to build masks instead of nodes;
    `tabulate` keeps its own inline copy of the connectives, which is
    faster, and a test pins the two together.

    A model is its root's fields (the root is the model no announcement
    produced) plus `carrier`, the mask of its loci over the root's index;
    its constructor calls `_default_carrier`.  The base states the rest:
    `updated(mask)`, the same fields with the mask as carrier, memoized in
    `_updates` by that mask and handed the derived state the kind names in
    `_shared`; `_announce(body, mask)`, which reads the body's table on
    the update to the announced mask with no re-indexing; the oracle's
    `_announced`, which finds the surviving loci one by one; `size` and
    `is_empty`.  Two bits of a subset-space model can be one situation, so
    `SSLModel` states its own `size` and `_loci`.

    The memos are built on first use; equality and repr see only the
    fields, the carrier included, and `__getstate__` keeps the memos out
    of pickles and copies.

    Every relation of an update is its root's, except for the node kinds
    in `_compiled` (E on subset spaces), which each model compiles for its
    own carrier, `_compile(f, carrier)` (a kind may skip the update).
    `tile(count)` is the `disjoint_union` of `count` copies: its update
    gives each copy its own carrier, so one `tabulate` pass reads
    a formula on several updates of one model at once.
    """

    fragment: str
    _shared: tuple[str, ...] = ()
    _compiled: frozenset = frozenset()

    @_lazy
    def _tables(self) -> dict[Formula, int]:
        return {}

    @_lazy
    def _truths(self) -> dict[Formula, frozenset]:
        return {}

    @_lazy
    def _updates(self) -> dict[int, object]:
        return {}

    def __getstate__(self) -> dict:
        """Pickles and copies carry the fields, not the memo."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def _default_carrier(self, every: int):
        """Set an unset carrier to the mask of every locus; refuse one beyond it."""
        if self.carrier is None:
            object.__setattr__(self, "carrier", every)
        elif self.carrier & ~every:
            raise ValueError("carrier not within the model's loci")

    @property
    def _all(self) -> int:
        return self.carrier

    @property
    def size(self) -> int:
        return self._all.bit_count()

    @property
    def is_empty(self) -> bool:
        return not self.size

    def updated(self, carrier: int) -> "Model":
        """The update to the loci of the carrier mask, built once per mask:
        this model's fields and `_shared` state with that carrier.  The mask
        is within a checked model's loci, so the constructor is skipped."""
        model = self._updates.get(carrier)
        if model is None:
            model = self._updates[carrier] = object.__new__(type(self))
            state = vars(model)
            for name in (*self.__dataclass_fields__, *self._shared):
                state[name] = getattr(self, name)
            state["carrier"] = carrier
        return model

    def _compile(self, f: Formula, carrier: int) -> tuple:
        """The relation of f, of a kind in `_compiled`, on the update to the carrier."""
        return self.updated(carrier)._relation(f)

    def _value(self, f: Formula, kids) -> int:
        """The mask of a node of f's kind (and atom or agent) whose children
        have the masks `kids`: `rebuild` read on this model's masks.  An
        announcement's one kid is the announced mask, as in `tabulate`."""
        kind = type(f)
        everything = self._all
        if kind is Not:
            return everything - kids[0]
        if kind is And:
            return kids[0] & kids[1]
        if kind is Or:
            return kids[0] | kids[1]
        if kind is Implies:
            return (everything - kids[0]) | kids[1]
        if kind is Announce:
            return self._announce(f.body, kids[0])
        if kind is Top:
            return everything
        if kind is Bot:
            return everything - everything
        return self._modal(f, kids[0] if kids else None)

    def _modal(self, f: Formula, body: int | None) -> int:
        """The mask of an atom, or of a box or diamond over f's relation."""
        everything = self._all
        if type(f) is Atom:
            return self._atoms.get(f.name, 0) & everything
        relation = self._relation(f)
        if type(f) in DUALS:
            return everything & preimage(relation, body)
        return everything & ~preimage(relation, everything & ~body)

    def _announce(self, body: Formula, announced: int) -> int:
        """The mask of [a] body, where a holds on the announced mask: loci
        failing the announcement satisfy it vacuously, and the update indexes
        the same loci, so the body's table on it needs no lifting."""
        return (self._all - announced) | (announced & self.updated(announced).table(body))

    def _announced(self, locus, a: Formula) -> tuple["Model", object]:
        """The update to the loci where a holds, found one by one, and the locus in it."""
        order = self._order
        holding = sum(1 << i for i in bits(self._all) if holds(self, order[i], a))
        return self.updated(holding), self.track(locus, self._read(holding))

    def loci(self) -> list:
        """The loci, in mask order on topological and product models."""
        return self._loci(self._all)

    def _loci(self, mask: int) -> list:
        """The loci at the bits of the mask, in mask order."""
        order = self._order
        return [order[i] for i in bits(mask)]

    def _read(self, mask: int) -> frozenset:
        """The loci at the bits of the mask."""
        order = self._order
        return frozenset(order[i] for i in bits(mask))

    def table(self, f: Formula) -> int:
        """The mask of the loci where f holds, memoized per model."""
        table = self._tables.get(f)
        return tabulate(self, f) if table is None else table

    def truth(self, f: Formula) -> frozenset:
        """The loci where f holds: the mask read out once per formula."""
        truth = self._truths.get(f)
        if truth is None:
            truth = self._truths[f] = self._read(self.table(f))
        return truth

    def update(self, f: Formula) -> "Model":
        """The announcement update, memoized: the same truth set gives the same model object."""
        return self.updated(self.table(f))

    def satisfies(self, locus, f: Formula) -> bool:
        """Truth at one checked locus through the quantifier clauses.

        A differential oracle for `truth`: it reads no table, and announces
        through `_announced`, locus by locus.
        """
        locus = self.locus(locus)
        check_fragment(f, self.fragment)
        return holds(self, locus, f)

    def track(self, locus, holds: frozenset):
        """Where a locus is after the update to `holds`: unchanged, except on
        subset-space models, where a situation's set shrinks."""
        return locus

    def tile(self, count: int) -> "Model":
        """`count` copies of this model side by side: their `disjoint_union`."""
        return disjoint_union((self,) * count)[0]


def disjoint_union(models) -> tuple[Model, tuple[int, ...]]:
    """The models side by side (`Tile`), and each model's block: the mask
    of its loci in the union.  The union of one model is that model."""
    if len(models) == 1:
        return models[0], (models[0]._all,)
    union = Tile(tuple(models))
    return union, tuple(model._all << offset for model, offset in zip(models, union._offsets))


class Tile(Model):
    """The disjoint union of models of any kinds and roots, built with no
    code per kind: block g's bit i is the union's bit `offset + i`, the
    offset being the sum of the earlier blocks' widths (`len(_order)`).
    Modal truth is invariant under disjoint unions, so a table on the union
    is, block by block, that block's own table shifted up by its offset.

    Its atom masks are the blocks' own, shifted and OR-ed, and each modal
    node's relation the blocks' own, shifted and concatenated, with moves of
    equal `(up, down)` merged, built once per node kind (and agent).  An
    update is the root's blocks with a new carrier, handed the root's
    offsets, atoms and relations but no reference to the root union.  It
    rebuilds only the kinds some block compiles per update (`_compiled`),
    from each block's `_compile(f, part)` for its part of the carrier,
    skipping empty blocks and reusing whole ones.  The base states the rest.
    """

    def __init__(self, blocks: tuple, carrier: int | None = None, root: tuple | None = None):
        if root is None:
            offsets, atoms, compiled, width = [], {}, frozenset(), 0
            for block in blocks:
                offsets.append(width)
                for atom, mask in block._atoms.items():
                    atoms[atom] = atoms.get(atom, 0) | mask << width
                compiled |= block._compiled
                width += len(block._order)
            root = tuple(offsets), atoms, compiled, {}
            carrier = sum(block._all << offset for block, offset in zip(blocks, offsets))
        self._blocks, self.carrier, self._root = blocks, carrier, root
        self._offsets, self._atoms, self._compiled, self._fixed = root
        # A union is read as soon as it is built, so its memos are made here.
        self._tables, self._updates, self._relations = {}, {}, {}

    @_lazy
    def _order(self) -> tuple:
        """(g, locus) at each bit, for each locus of block g."""
        return tuple((g, locus) for g, block in enumerate(self._blocks) for locus in block._order)

    def _relation(self, f: Formula) -> tuple:
        """The blocks' relations of f, shifted and concatenated.  A modal
        node's relation is fixed by its box and, for K_i, its agent."""
        kind = DUALS.get(type(f), type(f))
        key = kind, getattr(f, "agent", None)
        compiled = kind in self._compiled
        relations = self._relations if compiled else self._fixed
        relation = relations.get(key)
        if relation is None:
            pairs, moves, carrier = [], {}, self.carrier
            for block, offset in zip(self._blocks, self._offsets):
                part = block._all
                if compiled:
                    part &= carrier >> offset
                    if not part:
                        continue
                own_pairs, own_moves = block._relation(f) if part == block._all else block._compile(f, part)
                pairs += ((need << offset, members << offset) for need, members in own_pairs)
                for source, up, down in own_moves:
                    moves[up, down] = moves.get((up, down), 0) | source << offset
            moves = tuple((source, up, down) for (up, down), source in moves.items())
            relation = relations[key] = tuple(pairs), moves
        return relation

    def updated(self, carrier: int) -> "Tile":
        """The root's blocks with the carrier mask, built once per mask."""
        tile = self._updates.get(carrier)
        if tile is None:
            tile = self._updates[carrier] = Tile(self._blocks, carrier, self._root)
        return tile


# ---------------------------------------------------------------------------
# Parsing

_DIGITS = "0123456789"  # str.isdigit also accepts "²" and other scripts' digits
_IDENT_FOLLOW = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ" + _DIGITS + "_"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        two = text[i : i + 2]
        if two in ("[!", "<!", "->"):
            tokens.append((two, None, i))
            i += 2
        elif ch in "()&|]>~":
            tokens.append((ch, None, i))
            i += 1
        elif ch == "K" and i + 1 < n and text[i + 1] in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            if text[i + 1] == "0" or j - i - 1 > 100:
                raise ParseError("agent index must be at least 1, in at most 100 digits", i + 1)
            tokens.append(("KI", int(text[i + 1 : j]), i))
            i = j
        elif ch in _PREFIX_NODES:
            tokens.append(("PREFIX", ch, i))
            i += 1
        elif ch.islower():
            j = i + 1
            while j < n and text[j] in _IDENT_FOLLOW:
                j += 1
            word = text[i:j]
            if word == "true":
                tokens.append(("TRUE", None, i))
            elif word == "false":
                tokens.append(("FALSE", None, i))
            else:
                tokens.append(("IDENT", word, i))
            i = j
        elif ch == "[" or ch == "<":
            raise ParseError(f"announcements are written '[!f] g' or '<!f> g', found {ch!r}", i)
        elif ch.isupper():
            raise ParseError(f"unknown operator {ch!r}", i)
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", None, n))
    return tokens


# Each bracket that opens a nested formula: the token that closes it, and
# the context an error names when that token is missing.
_BRACKETS = {
    "(": (")", "to close '('"),
    "[!": ("]", "to close the announcement '[!'"),
    "<!": (">", "to close the announcement '<!'"),
}
_CONNECTIVES = frozenset({"&", "|", "->"})


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula; raises ParseError with a position.

    One loop over the tokens.  An open bracket saves the context around it
    (the prefixes before it, and the operands and connectives read so far)
    on an explicit stack, so nesting depth costs no Python stack.  A closed
    announcement `[!f]` or `<!f>` is a prefix of the unary formula after it.
    """
    tokens = _tokenize(text)
    brackets = []  # (opener, prefixes, items) of each enclosing open bracket
    prefixes, items = [], []  # items alternate operands and connectives
    i = 0
    while True:
        kind, value, pos = tokens[i]
        i += 1
        if kind in ("~", "PREFIX", "KI"):
            prefixes.append((kind, value))
            continue
        if kind in _BRACKETS:
            brackets.append((kind, prefixes, items))
            prefixes, items = [], []
            continue
        if kind == "TRUE":
            operand = TOP
        elif kind == "FALSE":
            operand = BOT
        elif kind == "IDENT":
            operand = Atom(value)
        else:
            raise ParseError(f"expected a formula, found {kind!r}", pos)
        # After an operand a connective continues the formula; any other
        # token ends it, and must close the innermost open bracket.
        while True:
            items.append(_prefixed(prefixes, operand) if prefixes else operand)
            kind, _, pos = tokens[i]
            if kind in _CONNECTIVES:
                items.append(kind)
                prefixes = []
                i += 1
                break
            operand = _infix(items) if len(items) > 1 else items[0]
            if not brackets:
                if kind != "EOF":
                    raise ParseError(f"unexpected trailing {kind!r}", pos)
                return operand
            opener, prefixes, items = brackets.pop()
            closer, context = _BRACKETS[opener]
            if kind != closer:
                raise ParseError(f"expected {closer!r} {context}", pos)
            i += 1
            if opener != "(":
                prefixes.append((opener, operand))
                break


def _prefixed(prefixes, f: Formula) -> Formula:
    """f under a run of prefixes, wrapped from the inside out."""
    for kind, value in reversed(prefixes):
        if kind == "~":
            f = Not(f)
        elif kind == "PREFIX":
            f = _PREFIX_NODES[value](f)
        elif kind == "KI":
            f = KnowI(value, f)
        elif kind == "[!":
            f = Announce(value, f)
        else:  # "<!"
            f = Not(Announce(value, Not(f)))
    return f


def _infix(items) -> Formula:
    """Operands joined by connectives: "&" binds tightest, then "|", both
    grouping to the left; "->" binds loosest and groups to the right."""
    conjunction, disjunction, antecedents = items[0], None, []
    for connective, operand in zip(items[1::2], items[2::2]):
        if connective == "&":
            conjunction = And(conjunction, operand)
            continue
        disjunction = conjunction if disjunction is None else Or(disjunction, conjunction)
        conjunction = operand
        if connective == "->":
            antecedents.append(disjunction)
            disjunction = None
    result = conjunction if disjunction is None else Or(disjunction, conjunction)
    for antecedent in reversed(antecedents):
        result = Implies(antecedent, result)
    return result


# ---------------------------------------------------------------------------
# Rendering

# Binding levels: implication 0, disjunction 1, conjunction 2, prefixes 3,
# leaves 4.  An operand is parenthesized when its own level is below the
# level its context requires.


def render(f: Formula) -> str:
    """Concrete syntax with minimal parentheses; parse(render(f)) == f."""
    return fold(f, _render_step)[0]


# Binary connectives: symbol, own level, levels required of the two operands.
_INFIX = {And: (" & ", 2, 2, 3), Or: (" | ", 1, 1, 2), Implies: (" -> ", 0, 1, 0)}


def _operand(value: tuple[str, int], required: int) -> str:
    text, level = value
    return "(" + text + ")" if level < required else text


def _render_step(f: Formula, kids) -> tuple[str, int]:
    kind = type(f)
    if kind in _INFIX:
        symbol, level, left, right = _INFIX[kind]
        return _operand(kids[0], left) + symbol + _operand(kids[1], right), level
    if kind is Announce:
        prefix = "[!" + _operand(kids[0], 0) + "] "
    elif kind is Not:
        prefix = "~"
    elif kind is KnowI:
        prefix = f"K{f.agent} "
    elif kids:
        prefix = _PREFIX_LETTERS[kind] + " "
    else:
        return (f.name if kind is Atom else "true" if kind is Top else "false"), 4
    return prefix + _operand(kids[-1], 3), 3  # the body of a prefix or an announcement


# ---------------------------------------------------------------------------
# Complexity


def complexity(f: Formula) -> int:
    """Termination measure for announcement elimination, counted over f as a
    tree: every reduction schema instance strictly shrinks it, and it is
    strictly monotone in each subterm, so a step anywhere shrinks the whole."""
    return fold(f, _complexity_step)


def _complexity_step(f: Formula, kids) -> int:
    if type(f) is Announce:
        return (4 + kids[0]) * kids[1]
    return 1 + sum(kids)


# ---------------------------------------------------------------------------
# Fuzzing support for the test suites


def random_formula(
    rng: Random,
    max_depth: int,
    atoms: tuple[str, ...] = ("p", "q"),
    modal: str = "",
    agents: int = 0,
    announce_depth: int = 0,
) -> Formula:
    """Random formula over the given operator repertoire.

    `modal` is a string of prefix letters from "ICKLED"; `agents` > 0 adds
    K1 to Kn; `announce_depth` bounds announcement nesting inside announced
    formulas.
    """
    choices = ["leaf", "leaf", "not", "and", "or", "implies"]
    choices += [f"prefix:{letter}" for letter in modal]
    if agents > 0:
        choices.append("knowi")
    if announce_depth > 0:
        choices += ["announce", "announce_dual"]
    if max_depth <= 0:
        choices = ["leaf"]
    pick = rng.choice(choices)
    sub = lambda: random_formula(rng, max_depth - 1, atoms, modal, agents, announce_depth)
    if pick == "leaf":
        return rng.choice([Atom(rng.choice(atoms)), Atom(rng.choice(atoms)), TOP, BOT])
    if pick == "not":
        return Not(sub())
    if pick == "and":
        return And(sub(), sub())
    if pick == "or":
        return Or(sub(), sub())
    if pick == "implies":
        return Implies(sub(), sub())
    if pick.startswith("prefix:"):
        return _PREFIX_NODES[pick.split(":")[1]](sub())
    if pick == "knowi":
        return KnowI(rng.randint(1, agents), sub())
    announced = random_formula(rng, max_depth - 1, atoms, modal, agents, announce_depth - 1)
    if pick == "announce":
        return Announce(announced, sub())
    return Not(Announce(announced, Not(sub())))
