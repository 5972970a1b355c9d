"""Acceptance criteria, one test per criterion.

Each test prints a one-line verdict (visible with `pytest -v -s` or in the
captured output) and asserts the criterion at its stated tolerance.  All
random corpora are seeded; nothing here depends on ambient entropy.
"""

import time
from itertools import combinations
from pathlib import Path
from random import Random

from geopal.dynamics import (
    CHILD_NAMES,
    kripke_oracle,
    limit_model,
    muddy_scenario,
)
from geopal.formula import parse, random_formula
from geopal.games import backward_induction, bi_via_announcements, random_game_tree
from geopal.intervals import divergence_report
from geopal.product import random_product_model
from geopal.rewrite import AxiomId, check_axiom, equivalent_on, reduce
from geopal.sslmodel import (
    is_persistent,
    persistence_immunity_check,
    random_ssl_model,
)
from geopal.sslmodel import SSLModel
from geopal.topology import compress_mask, random_topology, verify_topology
from geopal.topomodel import random_topomodel

REPO = Path(__file__).resolve().parent.parent
REPORTS = REPO / "reports"


def _verdict(number: int, ok: bool, detail: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_topology_laws():
    started = time.monotonic()
    rng = Random(1)
    for seed in range(500):
        space = random_topology(seed, 2 + seed % 7, seed % 5)
        assert verify_topology(space.points, space.opens) == [], seed
        # every subspace update must land on a topology again (chained twice)
        current = space
        for _ in range(2):
            carrier = rng.randrange(current.full_mask + 1)
            current = current.restrict(carrier)
            assert verify_topology(current.points, current.opens) == [], seed
    elapsed = time.monotonic() - started
    _verdict(1, elapsed < 10.0, f"500 generated + twice-restricted topologies verified in {elapsed:.2f}s (< 10s)")


def test_criterion_2_topological_reduction_soundness():
    started = time.monotonic()
    for index in (1, 2, 3, 4):
        report = check_axiom(AxiomId("topo", index), sample_size=300, seed=0)
        assert report.valid_on_sample, report.render()
    rng = Random(2)
    for seed in range(500):
        model = random_topomodel(seed, n=4, k=3)
        f = random_formula(rng, max_depth=5, modal="IC", announce_depth=2)
        assert equivalent_on(model, f, reduce(f, "topo")), (seed, str(f))
    elapsed = time.monotonic() - started
    _verdict(
        2,
        elapsed < 60.0,
        f"4 schemas x 300 models with zero counterexamples, 500 exact reduction equivalences, {elapsed:.2f}s (< 60s)",
    )


def test_criterion_3_subset_space_reduction_soundness():
    started = time.monotonic()
    for index in (1, 2, 3, 4):
        report = check_axiom(AxiomId("ssl", index), sample_size=300, seed=0)
        assert report.valid_on_sample, report.render()
    effort = check_axiom(AxiomId("ssl", 5), sample_size=300, seed=0)
    artifact = REPORTS / "ssl_axiom5_report.txt"
    lines = [
        "Effort/announcement reduction schema: empirical validity report",
        "corpus: the same 300 seeded random subset-space models used for schemas 1-4",
        "",
        effort.render(),
        "",
    ]
    if effort.counterexamples:
        smallest = effort.minimal()
        assert smallest.model.satisfies(smallest.locus, smallest.lhs) == smallest.lhs_value
        assert smallest.model.satisfies(smallest.locus, smallest.rhs) == smallest.rhs_value
        assert smallest.lhs_value != smallest.rhs_value
        lines.append("re-verification: both sides recomputed through the single-locus evaluator; the disagreement stands.")
        lines.append("a hand-built witness is pinned in tests/test_rewrite.py::test_effort_schema_pinned_counter_model.")
    else:
        lines.append("no counterexample arose in this corpus; see tests/test_rewrite.py for the directed witness.")
    # The checked-in report is compared, never rewritten, so a change in
    # check_axiom's output fails here instead of silently replacing it.
    matches = artifact.read_text(encoding="utf-8") == "\n".join(lines) + "\n"
    elapsed = time.monotonic() - started
    _verdict(
        3,
        matches and elapsed < 60.0,
        f"schemas 1-4 clean on 300 models; effort-schema report ({len(effort.counterexamples)} counterexamples, re-verified) "
        f"{'matches' if matches else 'DIFFERS FROM'} {artifact.relative_to(REPO)}; {elapsed:.2f}s (< 60s)",
    )


def test_criterion_4_product_reduction_soundness():
    report = check_axiom(AxiomId("product", 4), sample_size=300, seed=0)
    _verdict(
        4,
        report.valid_on_sample,
        "announcement/knowledge schema holds at every surviving world of 300 random product models",
    )


def test_criterion_5_muddy_children():
    started = time.monotonic()
    for n in range(1, 6):
        for size in range(1, n + 1):
            for muddy in combinations(CHILD_NAMES[:n], size):
                scenario = muddy_scenario(n, muddy)
                oracle = kripke_oracle(n, muddy)
                assert scenario.rounds == oracle.rounds, (n, muddy)
                assert scenario.knowledge == oracle.knowledge, (n, muddy)
                assert scenario.unpointed_sizes == oracle.unpointed_sizes, (n, muddy)
    witness = muddy_scenario(3, ("a", "b"))
    assert witness.sizes == (8, 7, 4)
    assert witness.ignorance_rounds == 1
    assert witness.knowledge[-1]["a"] == "knows-muddy"
    assert witness.knowledge[-1]["b"] == "knows-muddy"
    assert witness.unpointed_sizes == (7, 4, 1, 0)
    assert witness.unpointed_outcome == "empty"
    elapsed = time.monotonic() - started
    _verdict(
        5,
        elapsed < 5.0,
        f"all 57 configurations (n <= 5) match the partition oracle round-for-round; "
        f"n=3 muddy=ab gives 8->7->4 and a self-refuting ignorance limit; {elapsed:.2f}s (< 5s)",
    )


def test_criterion_6_atomic_limits():
    atom = parse("p")
    samplers = {
        "topo": lambda seed: random_topomodel(seed, n=5, k=3),
        "ssl": lambda seed: random_ssl_model(seed),
        "product": lambda seed: random_product_model(seed),
    }
    for kind, sampler in samplers.items():
        produced = 0
        seed = 0
        while produced < 100:
            model = sampler(seed)
            seed += 1
            if model.update(atom) == model:
                continue  # p already holds at every locus: zero-stage limit
            produced += 1
            trace = limit_model(model, atom)
            assert trace.stage_count == 1, (kind, seed)
            assert trace.limit == model.update(atom), (kind, seed)
    _verdict(6, True, "announcing an atom reaches its limit in exactly one stage on 100 random models of each kind")


def test_criterion_7_backward_induction():
    started = time.monotonic()
    for seed in range(200):
        tree = random_game_tree(seed, max_depth=4, max_branching=3)
        result = bi_via_announcements(tree)
        assert result.generic, seed
        induction = backward_induction(tree)
        limit_leaves = result.surviving & tree.leaf_ids
        assert limit_leaves == frozenset((induction.path[-1],)), seed
    elapsed = time.monotonic() - started
    _verdict(
        7,
        elapsed < 30.0,
        f"200 random generic trees: rationality-announcement limit leaf equals the induction leaf, {elapsed:.2f}s (< 30s)",
    )


def test_criterion_8_persistence():
    rng = Random(8)
    for seed in range(100):
        model = random_ssl_model(seed)
        boolean = random_formula(rng, max_depth=4)
        assert is_persistent(model, boolean) is None, (seed, str(boolean))
    checked = 0
    for seed in range(100):
        model = random_ssl_model(seed + 1000)
        persistent = random_formula(rng, max_depth=3)
        chi = random_formula(rng, max_depth=3, modal="KLED", announce_depth=1)
        report = persistence_immunity_check(model, persistent, [chi])
        assert report.immune, (seed, str(persistent), str(chi))
        checked += report.checks
    model = SSLModel.from_sets(["s", "t"], [["s"], ["s", "t"]], {"p": ["t"]})
    witness = is_persistent(model, parse("L p"))
    assert witness is not None
    assert (witness.point, witness.larger, witness.smaller) == (
        "s",
        frozenset({"s", "t"}),
        frozenset({"s"}),
    )
    _verdict(
        8,
        True,
        f"booleans persistent on 100 models, {checked} immunity checks clean, and the L-p witness found automatically",
    )


def test_criterion_9_interval_example():
    started = time.monotonic()
    report = divergence_report()
    assert str(report.interior_of_limit) == "{}"
    assert str(report.limit_of_interiors) == "{0}"
    assert tuple(n for n, _, _ in report.truncations) == (2, 10, 1000)
    for n, first, second in report.truncations:
        assert first == second, n
        assert str(first) == f"(-1/{n}, 1/{n})"
    elapsed = time.monotonic() - started
    _verdict(
        9,
        elapsed < 1.0,
        f"exact rational evaluation: {{}} vs {{0}} at the limit, truncations 2/10/1000 agree, {elapsed:.3f}s (< 1s)",
    )


def test_criterion_10_scope_statement():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    assert "Scope limits" in readme
    assert "finite" in readme
    assert "omega" in readme or "transfinite" in readme
    _verdict(10, True, "README states explicitly which transfinite/metatheoretic results are out of desk-scale scope")
