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
    K1 f .. K9 f       indexed knowledge, for product models
    [!f] g             public announcement of f, then g
    <!f> g             announcement dual, parsed as ~[!f]~g

Prefixes (~ and the modal letters) bind tightest, then "&", then "|",
then "->".  `render` emits minimal parentheses and round-trips through
`parse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random


class FormulaError(Exception):
    """Base class for errors raised by the formula layer."""


class ParseError(FormulaError):
    """Syntax error, annotated with the offset into the source text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnsupportedOperator(FormulaError):
    """An operator was used under a semantics that does not interpret it."""


@dataclass(frozen=True)
class Formula:
    """Base class for formula nodes; instances are immutable values."""

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class Top(Formula):
    pass


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Interior(Formula):
    body: Formula


@dataclass(frozen=True)
class Closure(Formula):
    body: Formula


@dataclass(frozen=True)
class Know(Formula):
    body: Formula


@dataclass(frozen=True)
class Possible(Formula):
    body: Formula


@dataclass(frozen=True)
class Effort(Formula):
    body: Formula


@dataclass(frozen=True)
class EffortDual(Formula):
    body: Formula


@dataclass(frozen=True)
class KnowI(Formula):
    agent: int
    body: Formula

    def __post_init__(self):
        if self.agent < 1:
            raise ValueError("agent index must be at least 1")


@dataclass(frozen=True)
class Announce(Formula):
    announced: Formula
    body: Formula


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


def postorder(f: Formula, kids):
    """Yield each distinct node object once, after every node of `kids(node)`
    (`children`, or a subset of them); iterative, so a pass over it can read
    each kid's value by `id` and visits shared subformulas of a reduced DAG
    once, at any depth."""
    seen = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if node is None:  # every kid of the node below it is done
            yield stack.pop()
        elif id(node) not in seen:
            seen.add(id(node))
            stack += node, None
            stack.extend(reversed(kids(node)))


def fold(f: Formula, step):
    """The value of `step(node, values)` at the root, where `values` lists the
    values of the node's children in order; iterative over `postorder`, so
    `step` runs once per distinct node object, at any depth."""
    value = {}
    for node in postorder(f, children):
        value[id(node)] = step(node, [value[id(kid)] for kid in children(node)])
    return value[id(f)]


# The node classes each semantics interprets.
_BOOLEAN = _LEAVES | _BINARY | {Not, Announce}
FRAGMENTS = {
    "topo": _BOOLEAN | {Interior, Closure},
    "ssl": _BOOLEAN | {Know, Possible, Effort, EffortDual},
    "product": _BOOLEAN | {KnowI},
}


def check_fragment(f: Formula, semantics: str):
    """Raise UnsupportedOperator at the first node outside the semantics' fragment."""
    allowed = FRAGMENTS[semantics]
    for node in walk(f):
        if type(node) not in allowed:
            raise UnsupportedOperator(
                f"operator {type(node).__name__} is outside the {semantics} fragment"
            )


# ---------------------------------------------------------------------------
# Parsing

_IDENT_FOLLOW = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"


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
        elif ch == "K" and i + 1 < n and text[i + 1].isdigit():
            digit = text[i + 1]
            if digit == "0":
                raise ParseError("agent index must be at least 1", i + 1)
            tokens.append(("KI", int(digit), i))
            i += 2
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


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str, context: str):
        token = self.advance()
        if token[0] != kind:
            raise ParseError(f"expected {kind!r} {context}", token[2])
        return token

    def formula(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.advance()
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek()[0] == "|":
            self.advance()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek()[0] == "&":
            self.advance()
            left = And(left, self.unary())
        return left

    def unary(self) -> Formula:
        # A run of prefix operators is read in a loop and wrapped from the
        # inside out, so "~~~...p" costs no stack depth; announcements recurse.
        prefixes = []
        while self.peek()[0] in ("~", "PREFIX", "KI"):
            prefixes.append(self.advance())
        result = self.operand()
        for kind, value, _ in reversed(prefixes):
            if kind == "~":
                result = Not(result)
            elif kind == "PREFIX":
                result = _PREFIX_NODES[value](result)
            else:
                result = KnowI(value, result)
        return result

    def operand(self) -> Formula:
        kind, value, pos = self.advance()
        if kind == "[!":
            announced = self.formula()
            self.expect("]", "to close the announcement '[!'")
            return Announce(announced, self.unary())
        if kind == "<!":
            announced = self.formula()
            self.expect(">", "to close the announcement '<!'")
            return Not(Announce(announced, Not(self.unary())))
        if kind == "(":
            inner = self.formula()
            self.expect(")", "to close '('")
            return inner
        if kind == "TRUE":
            return TOP
        if kind == "FALSE":
            return BOT
        if kind == "IDENT":
            return Atom(value)
        raise ParseError(f"expected a formula, found {kind!r}", pos)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a formula; raises ParseError with a position."""
    parser = _Parser(text)
    result = parser.formula()
    kind, _, pos = parser.peek()
    if kind != "EOF":
        raise ParseError(f"unexpected trailing {kind!r}", pos)
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
    K1..Kn; `announce_depth` bounds announcement nesting inside announced
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
