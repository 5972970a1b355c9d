"""Exact interval arithmetic on [-1, 1] for the infinite-conjunction demo.

Finite unions of rational-endpoint intervals, with open/closed endpoint
flags and degenerate points as closed [x, x].  Everything is exact
(`fractions.Fraction`); no floats anywhere, so endpoint comparisons are
decidable and the reports are bit-stable.

The point of the module: for the family A_n = [-c/n, c/n], the interior of
the intersection over all n is empty, while the intersection of the
interiors is the single point {0}.  Interior commutes with finite
intersections but not with this countable one, and the two announcement
orders therefore update to different carriers.  Every finite truncation
agrees; the divergence appears only at the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

LOWER = Fraction(-1)
UPPER = Fraction(1)


def _exact(value, what: str) -> Fraction:
    """An int, a Fraction or a "p/q" string as a Fraction; a float is refused,
    since its binary expansion is rarely the rational that was meant."""
    if isinstance(value, float):
        raise ValueError(f"{what} {value!r} is a float; give an int, a Fraction or a 'p/q' string")
    return Fraction(value)


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        object.__setattr__(self, "lo", _exact(self.lo, "endpoint"))
        object.__setattr__(self, "hi", _exact(self.hi, "endpoint"))
        if self.lo > self.hi:
            raise ValueError("empty interval: lower endpoint above upper")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("a degenerate interval must be closed on both sides")
        if self.lo < LOWER or self.hi > UPPER:
            raise ValueError("endpoints must stay within [-1, 1]")

    @classmethod
    def closed(cls, lo, hi) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def open(cls, lo, hi) -> "Interval":
        return cls(lo, hi, False, False)

    @classmethod
    def point(cls, x) -> "Interval":
        return cls(x, x, True, True)

    @property
    def degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, x) -> bool:
        x = Fraction(x)
        above = x > self.lo or (x == self.lo and self.lo_closed)
        below = x < self.hi or (x == self.hi and self.hi_closed)
        return above and below

    def __str__(self) -> str:
        if self.degenerate:
            return "{" + str(self.lo) + "}"
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


def _connects(first: Interval, second: Interval) -> bool:
    # second.lo >= first.lo by sort order; they merge when they overlap or
    # touch without a gap.
    if second.lo < first.hi:
        return True
    return second.lo == first.hi and (first.hi_closed or second.lo_closed)


def _join(first: Interval, second: Interval) -> Interval:
    if second.hi > first.hi:
        hi, hi_closed = second.hi, second.hi_closed
    elif second.hi == first.hi:
        hi, hi_closed = first.hi, first.hi_closed or second.hi_closed
    else:
        hi, hi_closed = first.hi, first.hi_closed
    lo_closed = first.lo_closed or (second.lo == first.lo and second.lo_closed)
    return Interval(first.lo, hi, lo_closed, hi_closed)


@dataclass(frozen=True)
class IntervalSet:
    """Normalized finite union: sorted, disjoint, with strict gaps."""

    parts: tuple[Interval, ...] = ()

    def __post_init__(self):
        ordered = sorted(self.parts, key=lambda p: (p.lo, not p.lo_closed))
        merged: list[Interval] = []
        for part in ordered:
            if merged and _connects(merged[-1], part):
                merged[-1] = _join(merged[-1], part)
            else:
                merged.append(part)
        object.__setattr__(self, "parts", tuple(merged))

    @classmethod
    def of(cls, *parts: Interval) -> "IntervalSet":
        return cls(tuple(parts))

    @property
    def is_empty(self) -> bool:
        return not self.parts

    def contains(self, x) -> bool:
        return any(part.contains(x) for part in self.parts)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self.parts + other.parts)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        pieces = []
        for a in self.parts:
            for b in other.parts:
                piece = _intersect_parts(a, b)
                if piece is not None:
                    pieces.append(piece)
        return IntervalSet(tuple(pieces))

    def __str__(self) -> str:
        if not self.parts:
            return "{}"
        return " u ".join(str(part) for part in self.parts)


EMPTY = IntervalSet()


def _intersect_parts(a: Interval, b: Interval) -> Interval | None:
    if a.lo > b.lo:
        lo, lo_closed = a.lo, a.lo_closed
    elif b.lo > a.lo:
        lo, lo_closed = b.lo, b.lo_closed
    else:
        lo, lo_closed = a.lo, a.lo_closed and b.lo_closed
    if a.hi < b.hi:
        hi, hi_closed = a.hi, a.hi_closed
    elif b.hi < a.hi:
        hi, hi_closed = b.hi, b.hi_closed
    else:
        hi, hi_closed = a.hi, a.hi_closed and b.hi_closed
    if lo > hi:
        return None
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def euclid_interior(area: IntervalSet) -> IntervalSet:
    """Interior in the carrier [-1, 1]: open every endpoint but a closed -1
    or 1, which the carrier bounds; degenerate points vanish."""
    return IntervalSet(
        tuple(
            Interval(
                part.lo,
                part.hi,
                part.lo_closed and part.lo == LOWER,
                part.hi_closed and part.hi == UPPER,
            )
            for part in area.parts
            if not part.degenerate
        )
    )


def euclid_closure(area: IntervalSet) -> IntervalSet:
    """Close every endpoint; touching parts merge."""
    return IntervalSet(
        tuple(Interval(part.lo, part.hi, True, True) for part in area.parts)
    )


def random_interval_set(seed: int, max_parts: int = 5, denominator: int = 12) -> IntervalSet:
    """Deterministic random set with small rational endpoints."""
    rng = Random(seed)
    parts = []
    for _ in range(rng.randint(0, max_parts)):
        a = Fraction(rng.randint(-denominator, denominator), denominator)
        b = Fraction(rng.randint(-denominator, denominator), denominator)
        lo, hi = min(a, b), max(a, b)
        if lo == hi:
            parts.append(Interval.point(lo))
        else:
            parts.append(Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5))
    return IntervalSet(tuple(parts))


# ---------------------------------------------------------------------------
# The harmonic family and the limit comparison


@dataclass(frozen=True)
class HarmonicFamily:
    """The nested family with endpoints +-scale/n, n >= start."""

    scale: Fraction = Fraction(1)
    closed: bool = True
    start: int = 1

    def __post_init__(self):
        object.__setattr__(self, "scale", _exact(self.scale, "scale"))
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.start < 1:
            raise ValueError("start must be at least 1")

    def member(self, n: int) -> IntervalSet:
        if n < self.start:
            raise ValueError(f"index {n} below start {self.start}")
        lo, hi = -self.scale / n, self.scale / n
        lo_closed, hi_closed = self.closed, self.closed
        if lo < LOWER:
            lo, lo_closed = LOWER, True
        if hi > UPPER:
            hi, hi_closed = UPPER, True
        return IntervalSet.of(Interval(lo, hi, lo_closed, hi_closed))


def finite_meet(family: HarmonicFamily, n: int) -> IntervalSet:
    """Intersection of the members from start to n, in closed form: member n.

    The members are nested: scale/k falls as k grows, and clamping only
    widens the early members to the closed carrier [-1, 1].  So each member
    contains every later one, and the meet of members start..n is exactly
    member n, whatever the scale, shape and start.
    """
    if n < family.start:
        raise ValueError(f"index {n} below start {family.start}")
    return family.member(n)


def omega_limit(family: HarmonicFamily) -> IntervalSet:
    """Exact intersection over all indices: the single point {0}.

    Zero belongs to every member since scale/n stays positive; any other x
    drops out as soon as n exceeds scale/|x|.  Closed and open shapes give
    the same limit.
    """
    return IntervalSet.of(Interval.point(0))


@dataclass(frozen=True)
class DivergenceReport:
    """Interior-of-limit versus limit-of-interiors for the harmonic family."""

    interior_of_limit: IntervalSet
    limit_of_interiors: IntervalSet
    truncations: tuple[tuple[int, IntervalSet, IntervalSet], ...]

    @property
    def carriers_differ(self) -> bool:
        return self.interior_of_limit != self.limit_of_interiors

    @property
    def truncations_agree(self) -> bool:
        return all(first == second for _, first, second in self.truncations)

    def render(self) -> str:
        lines = [
            f"interior of the limit intersection : {self.interior_of_limit}",
            f"limit intersection of the interiors: {self.limit_of_interiors}",
            f"updated carriers differ            : {'yes' if self.carriers_differ else 'no'}",
        ]
        for n, first, second in self.truncations:
            verdict = "agree" if first == second else "DIVERGE"
            lines.append(f"truncation n={n:<4}: {first} vs {second} : {verdict}")
        return "\n".join(lines)


# The finite truncations the divergence report compares.
TRUNCATION_INDICES = (2, 10, 1000)


def divergence_report() -> DivergenceReport:
    """Compare the two evaluation orders exactly, limit and truncations."""
    closed_family = HarmonicFamily(Fraction(1), closed=True)
    open_family = HarmonicFamily(Fraction(1), closed=False)
    truncations = tuple(
        (n, euclid_interior(finite_meet(closed_family, n)), finite_meet(open_family, n))
        for n in TRUNCATION_INDICES
    )
    return DivergenceReport(
        interior_of_limit=euclid_interior(omega_limit(closed_family)),
        limit_of_interiors=omega_limit(open_family),
        truncations=truncations,
    )
