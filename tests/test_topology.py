"""Finite topology construction, axioms and operators."""

from random import Random

import pytest

from geopal.topology import (
    Topology,
    TopologyError,
    bits,
    compress_mask,
    generate_from_subbasis,
    random_topology,
    verify_topology,
)


def opens_as_sets(space):
    return {frozenset(space.labels(o)) for o in space.opens}


def test_sierpinski_from_subbasis():
    space = generate_from_subbasis([0, 1], [[0]])
    assert opens_as_sets(space) == {frozenset(), frozenset({0}), frozenset({0, 1})}


def test_empty_subbasis_gives_indiscrete():
    space = generate_from_subbasis([0, 1, 2], [])
    assert opens_as_sets(space) == {frozenset(), frozenset({0, 1, 2})}


def test_two_set_subbasis_closure():
    space = generate_from_subbasis([0, 1, 2], [[0, 1], [1, 2]])
    assert opens_as_sets(space) == {
        frozenset(),
        frozenset({1}),
        frozenset({0, 1}),
        frozenset({1, 2}),
        frozenset({0, 1, 2}),
    }


def test_subbasis_member_out_of_carrier_rejected():
    with pytest.raises(TopologyError):
        generate_from_subbasis([0, 1], [[0, 5]])


def test_verify_accepts_sierpinski():
    assert verify_topology((0, 1), [0b00, 0b01, 0b11]) == []


def test_verify_reports_union_violation():
    problems = verify_topology((0, 1), [0b00, 0b01, 0b10])
    axioms = {violation.axiom for violation in problems}
    assert "full-set" in axioms
    union_violations = [v for v in problems if v.axiom == "union"]
    assert union_violations and set(union_violations[0].witnesses) == {
        frozenset({0}),
        frozenset({1}),
    }


def test_verify_reports_missing_empty_set():
    assert any(violation.axiom == "empty-set" for violation in verify_topology((0, 1), [0b01, 0b11]))


def test_from_sets_rejects_a_non_topology():
    with pytest.raises(TopologyError, match=r"not a topology: union axiom violated by \{0\}, \{1\}"):
        Topology.from_sets([0, 1, 2], [[], [0], [1], [0, 1, 2]])
    with pytest.raises(TopologyError, match="not a topology: empty-set"):
        Topology.from_sets([0, 1], [[0], [0, 1]])


@pytest.mark.parametrize(
    "points, minimal, message",
    [
        ((0, 1), (0b10, 0b11), "does not contain it"),
        ((0, 1), (0b101, 0b11), "not within the carrier"),
        ((0, 1, 2), (0b011, 0b110, 0b100), "minimal open of 1 not within that of 0"),
        ((0, 1), (0b11,), "points but"),
    ],
    ids=["point-outside-its-open", "outside-carrier", "not-transitive", "wrong-count"],
)
def test_malformed_minimal_opens_rejected(points, minimal, message):
    with pytest.raises(TopologyError, match=message):
        Topology(points, minimal)


def test_interior_examples():
    sier = Topology.from_sets([0, 1], [[], [0], [0, 1]])
    assert sier.interior(sier.mask([1])) == 0
    assert sier.interior(sier.full_mask) == sier.full_mask
    space = generate_from_subbasis([0, 1, 2], [[0, 1], [1, 2]])
    assert space.labels(space.interior(space.mask([0, 1]))) == frozenset({0, 1})
    assert space.interior(space.mask([0, 2])) == 0


def test_closure_examples():
    sier = Topology.from_sets([0, 1], [[], [0], [0, 1]])
    assert sier.labels(sier.closure(sier.mask([0]))) == frozenset({0, 1})
    assert sier.closure(0) == 0
    closed = sier.full_mask & ~sier.mask([0])  # {1} is closed
    assert sier.closure(closed) == closed


def test_subspace_examples():
    sier = Topology.from_sets([0, 1], [[], [0], [0, 1]])
    sub = sier.restrict(sier.mask([0]))
    assert sub.points == (0,)
    assert opens_as_sets(sub) == {frozenset(), frozenset({0})}
    assert sier.restrict(sier.full_mask) == sier
    space = generate_from_subbasis([0, 1, 2], [[0, 1], [1, 2]])
    sub = space.restrict(space.mask([0, 2]))
    assert sub.points == (0, 2)
    assert opens_as_sets(sub) == {
        frozenset(),
        frozenset({0}),
        frozenset({2}),
        frozenset({0, 2}),
    }


def test_subspace_of_empty_carrier():
    sier = Topology.from_sets([0, 1], [[], [0], [0, 1]])
    sub = sier.restrict(0)
    assert sub.points == ()
    assert sub.opens == (0,)
    assert verify_topology(sub.points, sub.opens) == []


def test_random_topology_is_deterministic():
    assert random_topology(5, 6, 3) == random_topology(5, 6, 3)
    assert random_topology(0, 4, 0) == Topology(tuple(range(4)), (0b1111,) * 4)


def test_random_topology_always_verifies():
    for seed in range(500):
        space = random_topology(seed, 3 + seed % 6, seed % 5)
        assert verify_topology(space.points, space.opens) == []
        assert Topology.from_sets(space.points, [space.labels(o) for o in space.opens]) == space


def test_kuratowski_laws_on_random_pairs():
    rng = Random(31)
    for trial in range(500):
        space = random_topology(trial, 3 + trial % 5, 1 + trial % 4)
        full = space.full_mask
        a = rng.randrange(full + 1)
        b = rng.randrange(full + 1)
        ia = space.interior(a)
        assert ia & ~a == 0
        assert space.interior(ia) == ia
        assert space.interior(a & b) == space.interior(a) & space.interior(b)
        if a & ~b == 0:  # a subset of b: monotone
            assert ia & ~space.interior(b) == 0
        ca = space.closure(a)
        assert a & ~ca == 0
        assert space.closure(ca) == ca
        assert space.closure(a | b) == ca | space.closure(b)
        assert ia & ~a == 0 and a & ~ca == 0  # interior <= a <= closure


def test_restriction_composes():
    rng = Random(8)
    for trial in range(200):
        space = random_topology(trial, 3 + trial % 5, 2)
        full = space.full_mask
        first = rng.randrange(full + 1)
        second = rng.randrange(full + 1)
        direct = space.restrict(first & second)
        staged = space.restrict(first).restrict(compress_mask(first & second, first))
        assert staged == direct


def test_interior_is_largest_contained_open():
    for seed in range(60):
        space = random_topology(seed, 5, 3)
        for area in range(space.full_mask + 1):
            interior = space.interior(area)
            assert interior in space.opens
            for open_ in space.opens:
                if open_ & ~area == 0:
                    assert open_ & ~interior == 0


def test_bits_reads_narrow_and_wide_masks():
    rng = Random(8)
    for width in (1, 2, 8, 63, 64, 65, 66, 130, 1000, 20000):
        for mask in (rng.getrandbits(width), 1 << width - 1, (1 << width - 1) | 1, (1 << width) - 1):
            assert list(bits(mask)) == [i for i in range(width) if mask >> i & 1], width
    assert list(bits(0)) == []


def test_a_sum_of_spaces_beyond_sixty_four_points():
    # The sum of eight 12-point spaces: space i's point x is (i, x), at bit 12 * i + x.
    spaces = [random_topology(seed, 12, 3) for seed in range(8)]
    offsets = tuple(range(0, 96, 12))
    total = Topology(
        tuple((i, point) for i, space in enumerate(spaces) for point in space.points),
        tuple(nbhd << offset for space, offset in zip(spaces, offsets) for nbhd in space.minimal),
    )
    assert len(total.points) == 96 and total.points[13] == (1, 1)
    rng = Random(9)
    for _ in range(50):
        areas = [rng.randrange(1 << 12) for _ in spaces]
        area = sum(part << offset for part, offset in zip(areas, offsets))
        assert total.interior(area) == sum(s.interior(a) << o for s, a, o in zip(spaces, areas, offsets))
        assert total.closure(area) == sum(s.closure(a) << o for s, a, o in zip(spaces, areas, offsets))
