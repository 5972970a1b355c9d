"""Subset-space semantics, updates, persistence."""

import dataclasses
from collections import Counter
from pathlib import Path
from random import Random

import pytest

import geopal.sslmodel as sslmodel
from geopal.cli import load_model
from geopal.dynamics import limit_model
from geopal.formula import Announce, Effort, UnsupportedOperator, parse, random_formula
from geopal.rewrite import AxiomId, check_axiom, equivalent_on
from geopal.sslmodel import (
    SSLModel,
    Situation,
    is_persistent,
    persistence_immunity_check,
    random_ssl_model,
    situations,
)
from geopal.topology import bits, preimage

MERGE = Path(__file__).parent / "data" / "merge.ssl.json"


def pair_model(p_at=("s",)):
    return SSLModel.from_sets(["s", "t"], [["s"], ["s", "t"]], {"p": p_at})


def sit(point, *members):
    return Situation(point, frozenset(members))


def rebuilt(model, holding):
    """The update of a fresh model to the situations in `holding`, built as
    a fresh model of the shrunk sets: the reference for updates, which keep
    their root's fields and a carrier mask."""
    assert model.carrier == model._listed, "a fresh model"
    shrunk = [frozenset(t for t in u if Situation(t, u) in holding) for u in model.sigma]
    surviving = frozenset().union(*shrunk)
    return SSLModel(
        tuple(p for p in model.points if p in surviving),
        tuple(u for u in shrunk if u),
        {atom: area & surviving for atom, area in model.valuation.items()},
    )


def oracle_truth(model, f):
    return frozenset(s for s in model.loci() if model.satisfies(s, f))


def test_situations_enumeration_and_order():
    model = pair_model()
    assert situations(model) == [
        sit("s", "s"),
        sit("s", "s", "t"),
        sit("t", "s", "t"),
    ]
    assert situations(SSLModel.from_sets(["s"], [["s"]])) == [sit("s", "s")]
    assert situations(SSLModel.from_sets(["s"], [])) == []


def test_satisfies_knowledge_and_effort():
    model = pair_model()
    assert model.satisfies(sit("s", "s", "t"), parse("K p")) is False
    assert model.satisfies(sit("s", "s"), parse("K p")) is True
    assert model.satisfies(sit("s", "s", "t"), parse("D K p")) is True
    assert model.satisfies(sit("s", "s", "t"), parse("E K p")) is False
    assert model.satisfies(sit("s", "s", "t"), parse("true")) is True


def test_announcement_agrees_with_knowledge_reduction_here():
    model = pair_model()
    here = sit("s", "s", "t")
    assert model.satisfies(here, parse("[!p] K p")) is True
    assert model.satisfies(here, parse("p -> K [!p] p")) is True


def test_update_shrinks_each_neighbourhood():
    model = pair_model()
    updated = model.update(parse("p"))
    assert updated.to_json() == {"kind": "ssl", "points": ["s"], "sets": [["s"]], "valuation": {"p": ["s"]}}


def test_update_by_truth_is_identity():
    model = pair_model()
    assert model.update(parse("true")) == model


def test_update_by_unsatisfied_atom_empties():
    model = pair_model()
    updated = model.update(parse("q"))
    assert updated.is_empty
    assert situations(updated) == []


def test_update_monotone():
    rng = Random(3)
    for seed in range(200):
        model = random_ssl_model(seed)
        f = random_formula(rng, max_depth=4, modal="KLED", announce_depth=1)
        listed = model.update(f).to_json()
        assert set(listed["points"]) <= set(model.points)
        for member in listed["sets"]:
            assert any(set(member) <= original for original in model.sigma)


def test_stray_points_drop_on_any_update():
    # A point in no observation set can never occur in a situation.
    model = SSLModel.from_sets(["s", "t", "u"], [["s", "t"]], {"p": ["s", "t", "u"]})
    updated = model.update(parse("p"))  # p holds at every situation
    assert updated.to_json()["points"] == ["s", "t"]
    assert updated != model and updated.size == model.size - 1
    assert limit_model(model, parse("p")).sizes == (model.size, updated.size)


def test_persistence_boolean_confirmed():
    for seed in range(60):
        model = random_ssl_model(seed)
        rng = Random(seed)
        boolean = random_formula(rng, max_depth=4)
        assert is_persistent(model, boolean) is None
    assert is_persistent(pair_model(), parse("true")) is None


def test_persistence_witness_found_automatically():
    model = pair_model(p_at=("t",))
    witness = is_persistent(model, parse("L p"))
    assert witness is not None
    assert witness.point == "s"
    assert witness.larger == frozenset({"s", "t"})
    assert witness.smaller == frozenset({"s"})


def test_immunity_requires_persistence():
    model = pair_model(p_at=("t",))
    with pytest.raises(ValueError):
        persistence_immunity_check(model, parse("L p"), [parse("q")])


def test_persistent_truths_survive_announcements():
    rng = Random(14)
    checked = 0
    for seed in range(100):
        model = random_ssl_model(seed)
        f = random_formula(rng, max_depth=3)  # boolean, hence persistent
        chi = random_formula(rng, max_depth=3, modal="KLED")
        report = persistence_immunity_check(model, f, [chi])
        assert report.immune, (seed, str(f), str(chi))
        checked += report.checks
    assert checked > 0


def test_ssl_axiom_schemas_valid():
    # Atomic stability under effort, S5 shape for K, S4 shape for E, and the
    # cross law K E f -> E K f.
    rng = Random(21)
    for seed in range(300):
        model = random_ssl_model(seed)
        everything = frozenset(situations(model))
        phi = random_formula(rng, max_depth=2, modal="KLED")
        psi = random_formula(rng, max_depth=2, modal="KLED")
        schemas = [
            parse(f"(p -> E p) & (~p -> E ~p)"),
            parse(f"K (({phi}) -> ({psi})) -> (K ({phi}) -> K ({psi}))"),
            parse(f"K ({phi}) -> (({phi}) & K K ({phi}))"),
            parse(f"L ({phi}) -> K L ({phi})"),
            parse(f"E (({phi}) -> ({psi})) -> (E ({phi}) -> E ({psi}))"),
            parse(f"E ({phi}) -> (({phi}) & E E ({phi}))"),
            parse(f"K E ({phi}) -> E K ({phi})"),
        ]
        for schema in schemas:
            assert model.truth(schema) == everything, (seed, str(schema))


def test_dualities_hold_extensionally():
    rng = Random(22)
    for seed in range(200):
        model = random_ssl_model(seed)
        f = random_formula(rng, max_depth=3, modal="KLED")
        assert model.table(parse(f"L ({f})")) == model.table(parse(f"~K ~({f})"))
        assert model.table(parse(f"D ({f})")) == model.table(parse(f"~E ~({f})"))


def test_interior_rejected():
    # Also where evaluation would never reach the node.
    model = pair_model()
    for text in ("I p", "false & I p", "true | I p", "[!false] I p", "q -> I p"):
        with pytest.raises(UnsupportedOperator):
            model.truth(parse(text))
        with pytest.raises(UnsupportedOperator):
            model.satisfies(sit("s", "s"), parse(text))


def test_invalid_situation_rejected():
    model = pair_model()
    with pytest.raises(ValueError):
        model.satisfies(sit("t", "s"), parse("p"))
    with pytest.raises(ValueError):
        model.satisfies(sit("t", "t"), parse("p"))


def test_merging_neighbourhoods_collapse():
    # Two sets that shrink to the same point set merge in the update.
    model = SSLModel.from_sets(
        ["s", "t", "u"], [["s", "t"], ["s", "u"]], {"p": ["s"]}
    )
    updated = model.update(parse("p"))
    assert updated.to_json()["sets"] == [["s"]]
    # The two sets stay two bits, and read out as one situation.
    assert updated._all.bit_count() == 2 and updated.loci() == [sit("s", "s")]
    for text in ("K p", "E p", "~D ~p", "L q"):
        assert updated.truth(parse(text)) == oracle_truth(updated, parse(text)), text


def test_merged_neighbourhoods_keep_every_old_situation():
    # s, t, u: three sets that all shrink to {s} when p (true only at s) is
    # announced, so the one new situation (s, {s}) is three old ones' bits.
    model = SSLModel.from_sets(
        ["s", "t", "u"], [["s", "t"], ["s", "u"], ["s", "t", "u"]], {"p": ["s"], "q": ["s", "u"]}
    )
    updated = model.update(parse("p"))
    assert updated.to_json()["sets"] == [["s"]] and updated.loci() == [sit("s", "s")]
    assert [model._situations[i] for i in bits(updated._all)] == [
        sit("s", "s", "t"), sit("s", "s", "u"), sit("s", "s", "t", "u")
    ]
    for text in ("[!p] K q", "[!p] E q", "[!q] L ~p", "[!q] D K p", "[![!q] L p] E K q"):
        holds = model.truth(parse(text))
        for situation in model.loci():
            assert model.satisfies(situation, parse(text)) == (situation in holds), (text, situation)


def test_truth_through_merging_updates_on_random_models():
    rng = Random(37)
    merges = 0
    for seed in range(1000):
        model = random_ssl_model(seed, max_points=4, max_sets=6)
        announced = random_formula(rng, max_depth=2, modal="KLED")
        updated = model.update(announced)
        if updated._all.bit_count() == len(updated.loci()):
            continue  # no two sets merged
        merges += 1
        assert updated.loci() == rebuilt(model, model.truth(announced)).loci()
        body = random_formula(rng, max_depth=3, modal="KLED", announce_depth=1)
        f = Announce(announced, body)
        holds = model.truth(f)
        for situation in model.loci():
            assert model.satisfies(situation, f) == (situation in holds), (seed, str(f), situation)
    assert merges > 50, merges


def test_announcements_inside_announcements():
    model = pair_model()
    nested = Announce(parse("[!p] p"), parse("K p"))
    for situation in situations(model):
        model.satisfies(situation, nested)  # must simply not blow up


# -- the quantifier-form oracle ---------------------------------------------


def test_satisfies_agrees_with_truth_on_random_models():
    rng = Random(31)
    for seed in range(200):
        model = random_ssl_model(seed)
        f = random_formula(rng, max_depth=4, modal="KLED", announce_depth=2)
        holds = model.truth(f)
        for situation in model.loci():
            assert model.satisfies(situation, f) == (situation in holds), (seed, str(f), situation)


def test_reverification_does_not_read_the_tables(monkeypatch):
    # With every effort table flipped, the table path reports disagreements
    # that are not there; re-verification must keep only true verdicts.
    axiom = AxiomId("ssl", 5)
    flips = []
    modal = SSLModel._modal

    def flipped(self, f, body):
        value = modal(self, f, body)
        if isinstance(f, Effort):
            flips.append(f)
            return self._all - value
        return value

    with monkeypatch.context() as patch:
        patch.setattr(SSLModel, "_modal", flipped)
        report = check_axiom(axiom, 300, 0)
    assert flips
    for c in report.counterexamples:
        fresh = dataclasses.replace(c.model)
        assert c.lhs_value == (c.locus in fresh.truth(c.lhs))
        assert c.rhs_value == (c.locus in fresh.truth(c.rhs))


def _persistence_reference(model, f):
    """The point x larger set x smaller set scan is_persistent replaced."""
    table = model.truth(f)
    for point in model.points:
        for larger in model.sigma:
            if point not in larger or Situation(point, larger) not in table:
                continue
            for smaller in model.sigma:
                if smaller < larger and point in smaller and Situation(point, smaller) not in table:
                    return sslmodel.PersistenceWitness(point, larger, smaller)
    return None


def test_persistence_witness_matches_the_direct_scan():
    rng = Random(23)
    outcomes = Counter()
    for seed in range(300):
        model = random_ssl_model(seed)
        for wrap in (None, None, "L", "L", "~K", "~K"):  # L and ~K are what usually fail to persist
            f = random_formula(rng, max_depth=3, modal="KLED")
            f = f if wrap is None else parse(f"{wrap} ({f})")
            witness = is_persistent(model, f)
            assert witness == _persistence_reference(model, f), (seed, str(f))
            outcomes[witness is None] += 1
    assert outcomes[True] > 100 and outcomes[False] > 50, outcomes


def test_situations_and_refinements_keep_the_scan_order():
    # Read off each point's members; the order is still that of testing
    # every member at every point, on models and on a wide one, the first
    # 20 side by side.  The compiled refinement relation is that of testing
    # every pair of sets.
    samples = [random_ssl_model(seed, max_points=6, max_sets=8) for seed in range(200)]
    first = list(enumerate(samples[:20]))
    samples.append(
        SSLModel(
            tuple((i, point) for i, model in first for point in model.points),
            tuple(frozenset((i, point) for point in member) for i, model in first for member in model.sigma),
        )
    )
    assert len(samples[-1]._situations) > 64
    for model in samples:
        scanned = tuple(
            Situation(point, member) for point in model.points for member in model.sigma if point in member
        )
        assert model._situations == scanned
        bit = {situation: i for i, situation in enumerate(scanned)}
        for point, smaller in scanned:
            assert preimage(model._effort, 1 << bit[point, smaller]) == sum(
                1 << bit[point, member] for member in model.sigma if point in member and smaller <= member
            )


def test_updates_read_out_like_rebuilt_models():
    # An update, and an update of it, against the fresh models of their
    # shrunk sets: truth (nested announcements included), every read-out,
    # the limit, and the first-locus read-outs.
    rng = Random(43)
    merges = 0
    for seed in range(1000):
        model = reference = random_ssl_model(seed, max_points=4, max_sets=6)
        for _ in range(2):
            announced = random_formula(rng, max_depth=2, modal="KLED")
            holding = oracle_truth(reference, announced)
            assert model.truth(announced) == holding, (seed, str(announced))
            assert {model.track(s, holding) for s in holding} == set(rebuilt(reference, holding).loci())
            model, reference = model.update(announced), rebuilt(reference, holding)
            merges += model._all.bit_count() > len(model.loci())
            assert model.loci() == reference.loci(), seed
            assert model.to_json() == reference.to_json(), seed
            assert model.describe() == reference.describe() and model.summary() == reference.summary()
            assert (model.size, model.is_empty) == (reference.size, reference.is_empty)
            for _ in range(2):
                f = random_formula(rng, max_depth=3, modal="KLED", announce_depth=2)
                g = random_formula(rng, max_depth=2, modal="KLED")
                assert model.truth(f) == reference.truth(f), (seed, str(f))
                assert equivalent_on(model, f, g) == equivalent_on(reference, f, g), (seed, str(f), str(g))
                assert is_persistent(model, g) == is_persistent(reference, g), (seed, str(g))
            trace, expected = limit_model(model, announced), limit_model(reference, announced)
            assert trace.sizes == expected.sizes and trace.limit.to_json() == expected.limit.to_json()
    assert merges >= 50, merges


def test_first_loci_follow_loci_order_on_a_merging_update():
    # At v the shrunk sets {v}, {s,v}, {u,v} come from sets whose bits are
    # in the order {u,v}, {v}, {s,v}; the witnesses follow loci().
    updated = load_model(str(MERGE)).update(parse("p"))
    by_bit = list(dict.fromkeys(updated._order[i] for i in bits(updated._all)))
    assert set(by_bit) == set(updated.loci()) and by_bit != updated.loci()
    fresh = SSLModel.from_json(updated.to_json())
    q, known = parse("q"), parse("K q")  # differ at (v, {s,v}) and (v, {u,v})
    assert equivalent_on(updated, q, known).witness == sit("v", "s", "v") == equivalent_on(fresh, q, known).witness
    witness = sslmodel.PersistenceWitness("v", frozenset({"s", "v"}), frozenset({"v"}))
    assert is_persistent(updated, parse("L ~q")) == witness == is_persistent(fresh, parse("L ~q"))
    report = persistence_immunity_check(updated, parse("p"), [q, known])
    assert report == persistence_immunity_check(fresh, parse("p"), [q, known])
    assert report.checks == 2 * len(updated.loci()) < 2 * updated._all.bit_count()
