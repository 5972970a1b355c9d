"""Subset-space semantics, updates, persistence."""

import dataclasses
from collections import Counter
from random import Random

import pytest

import geopal.sslmodel as sslmodel
from geopal.formula import Announce, Effort, UnsupportedOperator, parse, random_formula
from geopal.rewrite import AxiomId, check_axiom
from geopal.sslmodel import (
    SSLModel,
    Situation,
    is_persistent,
    persistence_immunity_check,
    random_ssl_model,
    situations,
)


def pair_model(p_at=("s",)):
    return SSLModel.from_sets(["s", "t"], [["s"], ["s", "t"]], {"p": p_at})


def sit(point, *members):
    return Situation(point, frozenset(members))


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
    assert updated.points == ("s",)
    assert set(updated.sigma) == {frozenset({"s"})}
    assert updated.valuation["p"] == frozenset({"s"})


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
        updated = model.update(f)
        assert set(updated.points) <= set(model.points)
        for member in updated.sigma:
            assert any(member <= original for original in model.sigma)


def test_stray_points_drop_on_any_update():
    # A point in no observation set can never occur in a situation.
    model = SSLModel.from_sets(["s", "t", "u"], [["s", "t"]], {"p": ["s", "t", "u"]})
    updated = model.update(parse("p"))
    assert updated.points == ("s", "t")


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
    assert updated.sigma == (frozenset({"s"}),)


def test_merged_neighbourhoods_pull_every_old_situation():
    # s, t, u: three sets that all shrink to {s} when p (true only at s) is
    # announced, so the one new situation (s, {s}) pulls three old ones.
    model = SSLModel.from_sets(
        ["s", "t", "u"], [["s", "t"], ["s", "u"], ["s", "t", "u"]], {"p": ["s"], "q": ["s", "u"]}
    )
    updated, pull = sslmodel.apply_update(model, model.table(parse("p")))
    assert updated.sigma == (frozenset({"s"}),)
    assert [model._situations[i] for i in range(len(model._situations)) if pull[0] >> i & 1] == [
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
        updated, pull = sslmodel.apply_update(model, model.table(announced))
        kept = sum(1 for m in model._member_masks if m & model.table(announced))
        if len(updated.sigma) == kept:
            continue  # no two sets merged
        merges += 1
        assert len(pull) == len(updated.loci())
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
