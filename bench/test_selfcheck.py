"""Self-tests for the benchmark: the gate can fail, and every metric shows.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import workloads as W  # noqa: E402
from oracles import oracle_for, oracle_locus  # noqa: E402
from tracing import Tracer, formula_sizes  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def few(workload, prefixes=None, count=6, seed=0):
    cases = workload.build(seed)
    if prefixes is not None:
        cases = [c for c in cases if c.kind.startswith(tuple(prefixes))]
    return cases if count is None else cases[:count]


# -- the gate fails on wrong answers ------------------------------------------


def test_flipped_equivalence_verdict_fails(monkeypatch):
    import geopal.rewrite as rewrite

    original = rewrite.equivalent_on
    monkeypatch.setattr(
        rewrite, "equivalent_on",
        lambda model, f, g: rewrite.EquivalenceResult(not original(model, f, g).equal),
    )
    workload = W.WORKLOADS["reduce-eval"]
    result = bench.measure(workload, few(workload), max_ops=6)
    assert len(result.failures) == result.attempted == 6


def test_reduce_that_drops_announcements_fails(monkeypatch):
    import geopal.rewrite as rewrite
    from geopal.formula import Announce

    def unguarded(f):
        if isinstance(f, Announce):
            return unguarded(f.body)
        if not dataclasses.is_dataclass(f):
            return f
        return type(f)(*(unguarded(getattr(f, x.name)) for x in dataclasses.fields(f)))

    original = rewrite.reduce
    monkeypatch.setattr(rewrite, "reduce", lambda f, semantics: original(unguarded(f), semantics))
    workload = W.WORKLOADS["reduce-eval"]
    for kinds in (("topo",), ("product",), ("chained",)):
        cases = few(workload, kinds, count=10)
        result = bench.measure(workload, cases, max_ops=len(cases))
        assert any("reduce(f) differs from f" in failure for failure in result.failures), kinds


def test_flipped_effort_truth_fails(monkeypatch):
    from geopal.formula import Effort
    from geopal.sslmodel import SslEvaluator

    table = SslEvaluator.table

    def flipped(self, f):
        value = table(self, f)
        return self._all - value if isinstance(f, Effort) else value

    monkeypatch.setattr(SslEvaluator, "table", flipped)
    workload = W.WORKLOADS["axiom-corpus"]
    cases = [c for c in few(workload, {"ssl-5"}, count=None) if c.spec[1] in W.SSL5_PINNED]
    result = bench.measure(workload, cases, max_ops=len(cases))
    assert result.attempted == len(W.SSL5_PINNED)
    assert len(result.failures) / result.attempted > 0


def test_altered_golden_byte_fails():
    workload = W.WORKLOADS["cli-goldens"]
    cases = few(workload, count=3)
    code, expected = cases[1].ref
    cases[1].ref = (code, expected[:-2] + bytes([expected[-2] ^ 1]) + expected[-1:])
    result = bench.measure(workload, cases, max_ops=3)
    assert len(result.failures) == 1


def test_wrong_muddy_round_fails(monkeypatch):
    import geopal.dynamics as dynamics

    original = dynamics.muddy_scenario

    def one_round_short(n, muddy):
        scenario = original(n, muddy)
        object.__setattr__(scenario, "ignorance_rounds", scenario.ignorance_rounds + 1)
        return scenario

    monkeypatch.setattr(dynamics, "muddy_scenario", one_round_short)
    workload = W.WORKLOADS["dynamics"]
    result = bench.measure(workload, few(workload, {"muddy"}, count=4), max_ops=4)
    assert len(result.failures) == 4


def test_checker_process_flags_a_wrong_output(monkeypatch):
    workload = W.WORKLOADS["cli-goldens"]
    cases = workload.build(0)[:4]
    run = workload.run

    def altered(inputs):
        code, text = run(inputs)
        return (code, text + "x") if inputs == cases[1].spec else (code, text)

    monkeypatch.setattr(workload, "run", altered)
    with bench.Checker("cli-goldens", 0) as check:
        result = bench.measure(workload, cases, max_ops=4, check=check)
    assert check._process.returncode == 0  # the child has ended and been waited for
    assert result.attempted == 4
    assert len(result.failures) == 1 and "differs from the golden" in result.failures[0]


def test_op_that_raises_is_counted_not_fatal(monkeypatch):
    workload = W.WORKLOADS["cli-goldens"]
    cases = few(workload, count=4)
    run = workload.run

    def sometimes(inputs):
        if inputs == cases[2].spec:
            raise RuntimeError("injected")
        return run(inputs)

    monkeypatch.setattr(workload, "run", sometimes)
    result = bench.measure(workload, cases, max_ops=4)
    assert result.attempted == 4
    assert len(result.failures) == 1 and "injected" in result.failures[0]


# -- references ---------------------------------------------------------------


def test_goldens_are_the_cli_test_cases():
    spec = importlib.util.spec_from_file_location("golden_cases", ROOT / "tests" / "test_cli.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ours = [
        (name, [str(W.DATA / a[1:]) if a.startswith("@") else a for a in argv], code)
        for name, argv, code in W.GOLDENS
    ]
    assert ours == [(name, list(argv), code) for name, argv, code in module.CASES]


def test_effort_pins_add_up_to_the_report():
    report = (ROOT / "reports" / "ssl_axiom5_report.txt").read_text()
    assert "counterexamples: 42" in report
    assert sum(W.SSL5_PINNED.values()) == 42
    for model_seed, count in list(W.SSL5_PINNED.items())[:5]:
        assert W.effort_disagreements(model_seed) == count


def test_oracles_agree_with_geopal_evaluators():
    from geopal.rewrite import _truth_map

    rng = Random(11)
    for semantics in ("topo", "ssl", "product"):
        for _ in range(40):
            if semantics == "topo":
                model = W.make_model(W.topo_spec(rng, 5, 2))
            elif semantics == "ssl":
                model = W.make_model(W.ssl_spec(rng, 4, 4))
            else:
                model = W.make_model(W.product_spec(rng, (2, 3)))
            f = W.build(W.random_shape(rng, semantics, 4, 2), semantics)
            oracle = oracle_for(model)
            for locus, value in _truth_map(model, f).items():
                assert oracle.holds(oracle_locus(model, locus), f) == value


def test_reduced_size_predicts_reduce():
    from geopal.rewrite import reduce

    rng = Random(5)
    for semantics in ("topo", "ssl", "product"):
        for _ in range(60):
            shape = W.random_shape(rng, semantics, 4, 2)
            reduced = reduce(W.build(shape, semantics), semantics)
            assert W.reduced_size(shape, semantics) == formula_sizes(reduced)[0]


def test_inputs_come_from_the_seed():
    workload = W.WORKLOADS["reduce-eval"]
    first = [(c.kind, c.spec) for c in workload.build(3)[:40]]
    again = [(c.kind, c.spec) for c in workload.build(3)[:40]]
    other = [(c.kind, c.spec) for c in workload.build(4)[:40]]
    assert first == again != other


# -- tracing ------------------------------------------------------------------


def test_tracer_covers_imported_names_and_restores():
    import geopal.dynamics as dynamics
    import geopal.product as product

    before = (dynamics.knowledge_interior, product.ProductEvaluator.table)
    tracer = Tracer()
    tracer.install()
    try:
        assert dynamics.knowledge_interior is not before[0]
        tracer.run_op(dynamics.common_knowledge_extension, *_duo())
    finally:
        tracer.uninstall()
    assert (dynamics.knowledge_interior, product.ProductEvaluator.table) == before
    metrics = tracer.metrics()
    assert metrics["product.knowledge_interior.calls"] > 0
    assert metrics["dynamics.calls"] == 1
    assert metrics["product.calls"] >= 1
    assert all(span is not None for span in tracer.spans)


def _duo():
    from geopal.cli import load_model
    from geopal.formula import parse

    return load_model(str(W.DATA / "duo.product.json")), parse("p | q")


# -- the command line ---------------------------------------------------------


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_appears_with_its_unit(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(W.WORKLOADS[workload], "trace_ops", 4)
    code = bench.main(["--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", trace])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    meta = json.loads(lines[-2])["meta"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert meta["seed"] == 1 and meta["traced"] == (trace == "1")
    assert {"python", "platform", "nproc", "commit"} <= set(meta)
    if trace == "0":
        assert sum(k["ops"] for k in meta["by_kind"].values()) == result["attempted"]


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "axiom-corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
