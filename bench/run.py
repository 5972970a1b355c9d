"""geopal benchmark: four seeded batch workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from `src/`.
Workloads are defined in workloads.py; the metrics are described in
METRICS.md.  One process, one thread.

--trace 0 runs ops in a closed loop until S seconds of op wall time are
spent, checks every op's output outside the timed region, and reports the
end-to-end metrics.  The checks run in a child process (`Checker`), so the
references and oracles stay out of the measured process's memory.  Times
are reported at reference machine speed: op wall times are scaled by a
calibration probe timed throughout the run (see REFERENCE_PROBE_S); the
raw wall-clock figures are in the metadata.  --trace 1 runs the workload's
fixed number of ops twice on fresh inputs, untraced and then traced (see
tracing.py), and reports the per-layer metrics; its counts repeat exactly
from run to run.

The last line of stdout is the result object; the line before it holds the
run's metadata.  Exit code 0 when a result was printed, 2 on bad usage or a
missing package.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pickle
import platform
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("axiom-corpus", "reduce-eval", "dynamics", "cli-goldens")

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics of the traced run.  Counts are exact.  A self time is
# listed only for layers and functions that every workload enters, so that
# no listed time is a constant zero; the traced run's metadata line carries
# every self time, including those of dynamics, games, intervals and cli.
PER_LAYER = {
    **{f"{layer}.calls": "count" for layer in (
        "formula", "topology", "topomodel", "product", "sslmodel",
        "rewrite", "dynamics", "games", "intervals", "cli",
    )},
    **{f"{layer}.self_s": "s" for layer in ("topology", "topomodel", "product", "sslmodel")},
    "formula.parse.calls": "count",
    "formula.render.calls": "count",
    "topology.interior.calls": "count",
    "topology.interior.self_s": "s",
    "topology.restrict.calls": "count",
    "topology.verify.calls": "count",
    "topomodel.extension.calls": "count",
    "topomodel.extension.self_s": "s",
    "topomodel.update.calls": "count",
    "sslmodel.evaluators_built": "count",
    "sslmodel.table.calls": "count",
    "sslmodel.table.self_s": "s",
    "sslmodel.apply_update.calls": "count",
    "sslmodel.apply_update.self_s": "s",
    "product.evaluators_built": "count",
    "product.table.calls": "count",
    "product.table.self_s": "s",
    "product.knowledge_interior.calls": "count",
    "product.knowledge_interior.self_s": "s",
    "product.update.calls": "count",
    "rewrite.reduce.calls": "count",
    "rewrite.reduce.tree_nodes": "count",
    "rewrite.reduce.dag_nodes": "count",
    "rewrite.reverify.calls": "count",
    "dynamics.limit.calls": "count",
    "dynamics.stages": "count",
    "games.rational_extension.calls": "count",
    "games.stages": "count",
    "cli.load_model.calls": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


# Machine-speed calibration.  On a shared host the speed one process sees
# drifts by up to half within seconds, for all code alike (CPU time and
# wall time alike), as the host's other work slows its virtual CPU; it
# switches between a fast and a slow speed within fractions of a second.
# The probe is fixed pure-Python work of the kind geopal does (tuples,
# frozensets, dicts), independent of geopal; it is timed PROBE_REPEATS times
# whenever PROBE_EVERY_S of wall time has passed.  Each op's wall time is
# scaled by REFERENCE_PROBE_S / (the mean of the latest probe timings), so
# an op is measured against the speed of the moment it ran in.  The mean,
# not the fastest, timing is used: the host's slow spells hit probes and
# ops alike in proportion to their duration, and only the mean counts
# them.  See METRICS.md.
REFERENCE_PROBE_S = 0.0005
PROBE_EVERY_S = 0.1
PROBE_REPEATS = 3
SETUP_PROBE_REPEATS = 20


def _probe_work():
    items = [(i, i * 7 % 13) for i in range(400)]
    head = frozenset(items[:100])
    total = 0
    for r in range(6):
        kept = frozenset(t for t in items if (t[0] + r) % 3)
        total += len(kept | head) + sum(1 for t in items if t in kept)
    return total


def probe_times(count: int) -> list[float]:
    """Wall times of `count` runs of the calibration probe.

    One untimed run comes first: the run right after an op is slowed by
    the op's garbage and evicted caches, which would tie the probe to the
    code under test.
    """
    _probe_work()
    times = []
    for _ in range(count):
        start = perf_counter()
        _probe_work()
        times.append(perf_counter() - start)
    return times


@dataclass
class Measurement:
    """Per-op wall times (`raw`) and the same at reference speed (`latencies`)."""

    raw: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    wall: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.raw)

    @property
    def spent(self) -> float:
        return math.fsum(self.latencies)


def measure(workload, cases, seconds=math.inf, max_ops=None, tracer=None, check=None) -> Measurement:
    """Run cases in order (cycling) until the op wall time or count is spent.

    Only the op itself is timed: its inputs are built before it and its
    output is checked after it, by `check(position, case, inputs, output)`
    (default: the workload's own check, in this process).  An op that
    raises, or whose output fails the check, is a failed op.
    """
    result = Measurement()
    call = workload.run if tracer is None else lambda inputs: tracer.run_op(workload.run, inputs)
    if check is None:
        def check(position, case, inputs, output):
            return workload.check(case, inputs, output)
    index = 0
    probed_at = -math.inf
    while result.wall < seconds and (max_ops is None or index < max_ops):
        position = index % len(cases)
        case = cases[position]
        index += 1
        inputs = workload.inputs(case)
        if perf_counter() - probed_at >= PROBE_EVERY_S:
            latest = probe_times(PROBE_REPEATS)
            result.probes += latest
            scale = REFERENCE_PROBE_S / statistics.fmean(latest)
            probed_at = perf_counter()
        start = perf_counter()
        try:
            output = call(inputs)
            error = None
        except Exception as exc:  # a failing op is counted, never fatal
            error = f"{case.kind}: op raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        result.raw.append(elapsed)
        result.latencies.append(elapsed * scale)
        result.wall += elapsed
        result.kinds.append(case.kind)
        if error is None:
            try:
                error = check(position, case, inputs, output)
            except Exception as exc:
                error = f"{case.kind}: check raised {type(exc).__name__}: {exc}"
        if error is not None:
            result.failures.append(error)
    return result


class Checker:
    """Checks op outputs in a child process against its own copy of the cases.

    The child is this script in its --check-child mode.  It builds the
    workload's cases from the same seed, so a case is named by its position;
    it rebuilds the op's inputs from the case, keeps the references it
    computes, and answers each output with None or the reason it is wrong.
    Outputs and answers cross its stdin and stdout pickled.  A plain
    subprocess, not multiprocessing, so that no helper process (such as
    multiprocessing's resource tracker) outlives the run.
    """

    def __init__(self, workload: str, seed: int):
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--check-child"],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def __call__(self, position, case, inputs, output) -> str | None:
        pickle.dump((position, output), self._process.stdin, pickle.HIGHEST_PROTOCOL)
        self._process.stdin.flush()
        return pickle.load(self._process.stdout)

    def close(self, kill: bool = False):
        """End the child: EOF on its stdin, or a kill; wait for it either way."""
        if kill:
            self._process.kill()
        try:
            self._process.stdin.close()
        except OSError:
            pass
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, kind, *exc):
        self.close(kill=kind is not None)


def check_child(workload: str, seed: int) -> int:
    """The checker child's loop: read (position, output), answer with the error."""
    from workloads import WORKLOADS

    source, sink = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt the answers
    checked = WORKLOADS[workload]
    cases = checked.build(seed)
    while True:
        try:
            position, output = pickle.load(source)
        except EOFError:
            return 0
        case = cases[position]
        try:
            error = checked.check(case, checked.inputs(case), output)
        except Exception as exc:
            error = f"{case.kind}: check raised {type(exc).__name__}: {exc}"
        pickle.dump(error, sink, pickle.HIGHEST_PROTOCOL)
        sink.flush()


def by_kind(run: Measurement, tail_value: float) -> dict:
    """Per case kind: ops, share of op time, and ops slower than the tail value."""
    counts, times, slow = {}, {}, {}
    for kind, latency in zip(run.kinds, run.latencies):
        counts[kind] = counts.get(kind, 0) + 1
        times[kind] = times.get(kind, 0.0) + latency
        slow[kind] = slow.get(kind, 0) + (latency > tail_value)
    total = sum(times.values())
    return {
        kind: {"ops": counts[kind], "op_time_share": times[kind] / total, "beyond_tail": slow[kind]}
        for kind in sorted(counts)
    }


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def tail(latencies: list[float], preferred: float) -> dict:
    """The preferred percentile, or the next lower one with ten samples beyond."""
    ordered = sorted(latencies)
    for pct in [preferred] + [p for p in (99.0, 98.0, 95.0, 90.0, 75.0) if p < preferred]:
        value, beyond = percentile(ordered, pct)
        if beyond >= 10:
            break
    else:
        pct = 50.0
        value, beyond = percentile(ordered, pct)
    return {"percentile": pct, "value": value, "beyond": beyond, "samples": len(ordered)}


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Import-plus-inputs time, each in a fresh interpreter, at reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, speed = map(float, probe.stdout.split()[-2:])
        times.append(elapsed * REFERENCE_PROBE_S / speed)
    return times


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Seconds to import geopal and build the inputs, and the mean probe time."""
    start = perf_counter()
    import geopal  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS

    WORKLOADS[workload].build(seed)
    elapsed = perf_counter() - start
    return elapsed, statistics.fmean(probe_times(SETUP_PROBE_REPEATS))


def prepared(workload, seed: int) -> list:
    """The workload's cases, frozen out of the collector's reach.

    The inputs are the benchmark's own objects; freezing them keeps the
    cyclic collector from rescanning them during ops.
    """
    cases = workload.build(seed)
    gc.collect()
    gc.freeze()
    return cases


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args, traced: bool) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": traced,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
    }


def end_to_end(args, workload) -> tuple[dict, dict, Measurement]:
    setups = setup_seconds(args.workload, args.seed)
    cases = prepared(workload, args.seed)
    with Checker(args.workload, args.seed) as check:
        run = measure(workload, cases, args.seconds, check=check)
    stats = tail(run.latencies, workload.tail_pct)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "ops_per_s": run.attempted / run.spent,
        "op_p50_ms": statistics.median(run.latencies) * 1000,
        "op_tail_ms": stats["value"] * 1000,
        "peak_rss_mb": peak_kib / 1024,
        "setup_s": statistics.median(setups),
    }
    extra = {
        "ops": run.attempted,
        "op_time_s": run.spent,
        "raw_ops_per_s": run.attempted / run.wall,
        "raw_op_p50_ms": statistics.median(run.raw) * 1000,
        "probe_mean_s": statistics.fmean(run.probes),
        "probe_min_s": min(run.probes),
        "tail": {k: v for k, v in stats.items() if k != "value"},
        "setup_runs_s": setups,
        "by_kind": by_kind(run, stats["value"]),
        "rss_source": "ru_maxrss of this process, no tracemalloc; checks run in a child",
    }
    return values, extra, run


def traced(args, workload) -> tuple[dict, dict, Measurement]:
    from tracing import Tracer

    ops = workload.trace_ops
    with Checker(args.workload, args.seed) as check:
        plain = measure(workload, prepared(workload, args.seed), max_ops=ops, check=check)
        tracer = Tracer()
        tracer.install()
        start = perf_counter()
        try:
            run = measure(workload, prepared(workload, args.seed), max_ops=ops,
                          tracer=tracer, check=check)
        finally:
            tracer.uninstall()
        wall = perf_counter() - start
    breakdown = tracer.metrics()
    breakdown["trace.wall_s"] = wall
    breakdown["trace.overhead_ratio"] = run.spent / plain.spent
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write_spans(spans)
    values = {name: breakdown.get(name, 0) for name in PER_LAYER}
    extra = {
        "ops": ops,
        "untraced_op_time_s": plain.spent,
        "spans_file": str(spans.relative_to(ROOT)),
        "breakdown": dict(sorted(breakdown.items())),
    }
    run.raw += plain.raw
    run.latencies += plain.latencies
    run.failures += plain.failures
    return values, extra, run


def parse_args(argv):
    parser = argparse.ArgumentParser(description="geopal benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--check-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _terminated(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "geopal" / "__init__.py").is_file():
        print(f"error: geopal package not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(*setup_probe(args.workload, args.seed))
        return 0
    if args.check_child:
        return check_child(args.workload, args.seed)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            values, extra, run = traced(args, workload)
            units = PER_LAYER
        else:
            values, extra, run = end_to_end(args, workload)
            units = END_TO_END
    except (OSError, subprocess.SubprocessError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    meta = metadata(args, bool(args.trace))
    meta.update(extra)
    meta["fail_ratio"] = len(run.failures) / run.attempted
    meta["failures"] = run.failures[:10]
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    # A terminated run unwinds, so that its checker child is ended and waited for.
    signal.signal(signal.SIGTERM, _terminated)
    sys.exit(main())
