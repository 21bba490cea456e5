"""The repo benchmark: seeded workloads through the runtime stack.

``BENCHMARK.json`` names the workloads a run is gated on; ``sweep_small``
stays runnable here for investigation.  Run from the root of a
checkout::

    python3 perfbench/run.py --workload census --seed 1 --seconds 35 --trace 0

A run generates its inputs and their ``run_direct`` oracle from the
seed, then repeats rounds for about ``--seconds`` (at least three
rounds, four when tracing).  A round builds a fresh stack (timed: the
``setup_s`` samples), runs every input job once through it and closes
it.  Results are checked against the oracle outside the timed window.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones, with the tracing overhead measured against
the untraced ones.  The last line of standard output is one JSON
object; the lines before it are the human-readable report.

``--self-test`` checks that the result checker counts a corrupted
result, a ``None`` slot and a raised future as failures.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("sweep_small", "sweep_large", "session_stream", "census")
_clock = time.perf_counter

END_TO_END = {
    "throughput_jps": "jobs/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
ENGINE_KINDS = ("machines", "complang", "sat", "busybeaver")
KEY_SPANS = ("workloads.program_key", "workloads.content_key")
OUTER_EXECUTE = ("journal.execute", "core.execute", "ensemble.execute")


@dataclass
class Record:
    """One finished round: what it measured and how it checked out."""

    rnd: Any  # runners.Round
    setup_s: float
    with_result: int
    failed: int
    summary: dict | None  # the traced round's reduced spans; None if untraced


def percentile(samples: list[tuple[float, int]], q: float) -> float:
    """Nearest-rank ``q``-th percentile of weighted ``(value, count)``."""
    total = sum(n for _, n in samples)
    if total == 0:
        return 0.0
    rank = max(1, -(-q * total // 100))
    seen = 0
    for value, n in sorted(samples):
        seen += n
        if seen >= rank:
            return value
    return max(samples)[0]


def failed_slots(expected: list, results: list | None, raised: list | None = None) -> int:
    """Slots that count as failed: unequal to the oracle, ``None``, or
    raised.  A missing result list fails every slot."""
    if results is None or len(results) != len(expected):
        return len(expected)
    raised = raised or [False] * len(expected)
    return sum(
        1 for want, got, exc in zip(expected, results, raised) if exc or got is None or got != want
    )


def count_failures(inputs, rnd) -> tuple[int, int]:
    """``(jobs with a result, failed jobs)`` of one round."""
    if inputs.stream is not None:
        expected = inputs.expected[inputs.stream.kind]
        want = [expected[index] for _, index, _ in inputs.stream.schedule]
        with_result = sum(
            1 for got, exc in zip(rnd.results, rnd.raised) if got is not None and not exc
        )
        return with_result, failed_slots(want, rnd.results, rnd.raised)
    failed = with_result = 0
    for batch, results in zip(inputs.batches, rnd.results):
        failed += failed_slots(inputs.expected[batch.kind], results)
        with_result += sum(1 for got in results or () if got is not None)
    return with_result, failed


# -- one run ---------------------------------------------------------------------


def run_rounds(workload: str, seed: int, seconds: float, trace: bool):
    """Generate, then run rounds for about ``seconds``: a round is not
    started once the time left is under half the mean round."""
    from runners import RUNNERS, trace_adapters
    from inputs import generate
    from spans import Tracer

    inputs = generate(workload, seed)
    runner = RUNNERS[workload]()
    blob = pickle.dumps(inputs.stream if inputs.stream is not None else inputs.batches)
    scratch = ROOT / ".perfbench_work" / str(os.getpid())
    records: list[Record] = []
    minimum = 4 if trace else 3
    began = _clock()
    try:
        while True:
            spent = _clock() - began
            if len(records) >= minimum and spent + spent / len(records) / 2 >= seconds:
                break
            tracer = Tracer() if trace and len(records) % 2 == 1 else None
            work = pickle.loads(blob)  # fresh objects: no id-keyed cache carries over
            workdir = scratch / f"round-{len(records)}"
            start = _clock()
            stack = runner.setup(inputs, workdir)
            setup_s = _clock() - start
            try:
                if tracer is not None:
                    runner.trace(tracer, stack)
                    trace_adapters(tracer)
                rnd = runner.measure(stack, work, tracer)
            finally:
                if tracer is not None:
                    tracer.restore()
                runner.teardown(stack)
            shutil.rmtree(workdir, ignore_errors=True)
            with_result, failed = count_failures(inputs, rnd)
            rnd.results = []  # checked; holding every round's would grow peak RSS
            summary = summarize(tracer, rnd) if tracer is not None else None
            records.append(Record(rnd, setup_s, with_result, failed, summary))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if scratch.parent.exists() and not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()
    return inputs, records


def summarize(tracer, rnd) -> dict:
    """A traced round's spans, reduced to what the metrics need."""
    from spans import layer_of

    by_name, covered = tracer.attribute(rnd.windows)
    layers: dict[str, float] = defaultdict(float)
    for name, seconds in by_name.items():
        layers[layer_of(name)] += seconds
    keys = {i for name in KEY_SPANS for i in tracer.spans_named(name)}
    return {
        "by_name": by_name,
        "layers": dict(layers),
        "covered": covered,
        "window": sum(b - a for a, b in rnd.windows),
        "submit_s": tracer.durations("session.submit"),
        "queue_s": tracer.durations("session.queue"),
        "rtt_s": tracer.durations("dist.chunk"),
        "outer_exec_s": sum(sum(tracer.durations(n)) for n in OUTER_EXECUTE),
        "key_calls": sum(1 for i in keys if tracer.parent[i] not in keys),
        "prepare_calls": len(tracer.spans_named("workloads.prepare")),
        "engine_runs": dict(tracer.runs),
        "engine_steps": dict(tracer.steps),
        "engine_busy": {k: sum(tracer.durations(f"engine.{k}.")) for k in ENGINE_KINDS},
        "chunk_seconds": tracer.chunk_seconds,
    }


# -- metrics ---------------------------------------------------------------------


def latency(plain: list[Record], q: float) -> float:
    """A job's ``q``-th latency percentile over the untraced rounds.

    A sweep's jobs all get their results when their ``run_jobs`` call
    returns, so a sweep's latencies are its calls' durations, weighted
    by the jobs in them; pooling rounds would only pick out the slowest
    round, so the percentile is taken per round and the median round
    reported.  The stream's samples are independent and pooled, so
    its p99 has at least ten samples beyond it.
    """
    if plain[0].rnd.late_ms:
        return percentile([s for r in plain for s in r.rnd.latencies], q)
    return statistics.median(percentile(r.rnd.latencies, q) for r in plain)


def end_to_end(records: list[Record]) -> dict[str, float]:
    """The run's end-to-end metrics from its untraced rounds; set-up
    time is the median over every round."""
    plain = [r for r in records if r.summary is None]
    return {
        "throughput_jps": sum(r.with_result for r in plain) / sum(r.rnd.wall_s for r in plain),
        "latency_p50_ms": latency(plain, 50),
        "setup_s": statistics.median(r.setup_s for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(records: list[Record]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced rounds.  Counts and seconds are
    per round; ``_per_job`` figures divide by the jobs submitted."""
    traced = [r for r in records if r.summary is not None]
    plain = [r for r in records if r.summary is None]
    R = len(traced)
    J = sum(r.rnd.jobs for r in traced)
    c: Counter = Counter()
    for r in traced:
        c.update(r.rnd.counts)
    s = [r.summary for r in traced]

    def total(key: str) -> float:
        return sum(x[key] for x in s)

    def layer(name: str) -> float:
        return sum(x["layers"].get(name, 0.0) for x in s)

    def named(name: str) -> float:
        return sum(x["by_name"].get(name, 0.0) for x in s)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def pct_ms(seconds: list[float], q: float) -> float:
        return percentile([(v * 1e3, 1) for v in seconds], q)

    m: dict[str, tuple[float, str]] = {}
    submits = [v for x in s for v in x["submit_s"]]
    queues = [v for x in s for v in x["queue_s"]]
    drains = [r.rnd.drain_ms for r in traced if r.rnd.drain_ms]
    m["session.submit_us"] = (ratio(sum(submits), len(submits)) * 1e6, "us")
    m["session.queue_ms_p50"] = (pct_ms(queues, 50), "ms")
    m["session.queue_ms_p99"] = (pct_ms(queues, 99), "ms")
    m["session.jobs_per_flush"] = (ratio(c["session.executed_jobs"], c["session.flushes"]), "jobs")
    m["session.memo_hits"] = (ratio(c["session.memo_hits"], R), "count")
    m["session.dedup_joins"] = (ratio(c["session.dedup_joins"], R), "count")
    m["session.executed_frac"] = (ratio(c["session.executed_jobs"], c["session.submitted"]), "ratio")
    m["session.drain_ms"] = (statistics.median(drains) if drains else 0.0, "ms")

    m["journal.self_s"] = (ratio(layer("journal"), R), "s")
    m["journal.us_per_job"] = (ratio(layer("journal"), J) * 1e6, "us")
    m["journal.appends"] = (ratio(c["journal.appends"], R), "count")
    m["journal.fsyncs"] = (ratio(c["journal.fsyncs"], R), "count")
    m["journal.bytes_per_job"] = (ratio(c["journal.bytes"], J), "B")
    m["journal.commits"] = (ratio(c["journal.commits"], R), "count")

    m["supervisor.self_s"] = (ratio(layer("supervisor"), R), "s")
    m["supervisor.us_per_job"] = (ratio(layer("supervisor"), J) * 1e6, "us")
    for key in ("chunks", "retries", "restarts", "quarantined"):
        m[f"supervisor.{key}"] = (ratio(c[f"supervisor.{key}"], R), "count")

    workers = ratio(c["core.workers"], R)
    m["core.self_s"] = (ratio(layer("core"), R), "s")
    m["core.us_per_job"] = (ratio(layer("core"), J) * 1e6, "us")
    m["core.unique_frac"] = (ratio(c["core.unique"], c["core.jobs"]), "ratio")
    m["core.cache_hit_frac"] = (ratio(c["core.hits"], c["core.hits"] + c["core.misses"]), "ratio")
    m["core.chunks"] = (ratio(c["core.chunks"], R), "count")
    m["core.steals"] = (ratio(c["core.steals"], R), "count")
    m["core.payload_bytes_per_job"] = (ratio(c["core.payload_bytes"], J), "B")
    m["core.worker_busy_frac"] = (
        ratio(total("chunk_seconds"), workers * total("outer_exec_s")),
        "ratio",
    )

    rtts = [v for x in s for v in x["rtt_s"]]
    m["dist.self_s"] = (ratio(layer("dist"), R), "s")
    m["dist.round_trip_ms_p50"] = (pct_ms(rtts, 50), "ms")
    m["dist.chunks"] = (ratio(len(rtts), R), "count")
    m["dist.bytes_sent_per_job"] = (ratio(c["dist.bytes_sent"], J), "B")
    m["dist.bytes_recv_per_job"] = (ratio(c["dist.bytes_recv"], J), "B")
    node_s = total("chunk_seconds") if rtts else 0.0
    m["dist.node_busy_frac"] = (ratio(node_s, workers * sum(r.rnd.wall_s for r in traced)), "ratio")
    m["dist.node_restarts"] = (ratio(c["dist.node_restarts"], R), "count")
    m["dist.duplicate_results"] = (ratio(c["dist.duplicate_results"], R), "count")

    m["ensemble.self_s"] = (ratio(layer("ensemble"), R), "s")
    m["ensemble.lower_s"] = (ratio(named("ensemble.lower"), R), "s")
    m["ensemble.step_s"] = (ratio(named("ensemble.step"), R), "s")
    m["ensemble.fallback_frac"] = (ratio(c["ensemble.fallback"], c["ensemble.jobs"]), "ratio")

    m["workloads.key_calls_per_job"] = (ratio(total("key_calls"), J), "calls")
    m["workloads.key_us_per_job"] = (ratio(sum(named(n) for n in KEY_SPANS), J) * 1e6, "us")
    m["workloads.prepare_calls"] = (ratio(total("prepare_calls"), R), "count")
    m["workloads.prepare_s"] = (ratio(named("workloads.prepare"), R), "s")

    for kind in ENGINE_KINDS:
        runs = sum(x["engine_runs"].get(kind, 0) for x in s)
        steps = sum(x["engine_steps"].get(kind, 0.0) for x in s)
        busy = sum(x["engine_busy"][kind] for x in s)
        m[f"engine.{kind}.runs"] = (ratio(runs, R), "count")
        m[f"engine.{kind}.us_per_run"] = (ratio(busy, runs) * 1e6, "us")
        m[f"engine.{kind}.self_s"] = (ratio(layer(f"engine.{kind}"), R), "s")
        m[f"engine.{kind}.steps_per_s"] = (ratio(steps, busy), "steps/s")

    busy_traced = statistics.median(r.rnd.busy_s for r in traced)
    busy_plain = statistics.median(r.rnd.busy_s for r in plain)
    late = [(v, 1) for r in records for v in r.rnd.late_ms]
    m["trace.coverage_frac"] = (ratio(total("covered"), total("window")), "ratio")
    m["trace.overhead_frac"] = (ratio(busy_traced, busy_plain) - 1.0, "ratio")
    m["gen.late_ms_p99"] = (percentile(late, 99), "ms")
    return m


# -- report ----------------------------------------------------------------------


def commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref[:12]
    name = ref[5:]
    try:
        return (git / name).read_text().strip()[:12]
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def report(args, inputs, records: list[Record], e2e: dict, layers: dict | None) -> None:
    n = len(records)
    traced = [r for r in records if r.summary is not None]
    plain = [r for r in records if r.summary is None]
    attempted = sum(r.rnd.jobs for r in records)
    failed = sum(r.failed for r in records)
    served: Counter = Counter()
    for r in records:
        served.update({k: r.rnd.counts[k] for k in ("executed", "deduped", "memo_served")})
    samples = sum(w for r in plain for _, w in r.rnd.latencies)
    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print(f"host: nproc {os.cpu_count()}, python {platform.python_version()}, commit {commit()}")
    print(
        f"inputs: {inputs.jobs()} jobs per round, {inputs.unique_jobs()} unique;"
        f" {n} rounds ({len(plain)} untraced, {len(traced)} traced)"
    )
    print(
        "per round: executed {:.0f}, deduped {:.0f}, memo-served {:.0f}".format(
            *(served[k] / n for k in ("executed", "deduped", "memo_served"))
        )
    )
    print(f"correctness: attempted {attempted}, failed {failed}, failed_frac {failed / attempted:.6f}")
    print(f"end-to-end (untraced rounds; latency over {samples} job samples):")
    for name, unit in END_TO_END.items():
        print(f"  {name:<32} {e2e[name]:>14.4f} {unit}")
    # The tail is printed, not gated: on a shared 2-CPU host it moves
    # with other tenants' load far more than with this code.
    print(f"  {'latency_p99_ms (not gated)':<32} {latency(plain, 99):>14.4f} ms")
    if layers is None:
        return
    print("per-layer (traced rounds; counts and seconds per round):")
    for name, (value, unit) in layers.items():
        print(f"  {name:<32} {value:>14.4f} {unit}")
    waterfall: dict[str, float] = defaultdict(float)
    for r in traced:
        for name, seconds in r.summary["layers"].items():
            waterfall[name] += seconds
    window = sum(r.summary["window"] for r in traced)
    print("self-time waterfall (share of traced wall time):")
    for name, seconds in sorted(waterfall.items(), key=lambda kv: -kv[1]):
        share = seconds / window if window else 0.0
        bar = "#" * round(40 * share)
        print(f"  {name:<20} {seconds / len(traced):>10.4f} s/round {share:>7.1%}  {bar}")
    print(
        f"  trace.coverage_frac {layers['trace.coverage_frac'][0]:.4f},"
        f" trace.overhead_frac {layers['trace.overhead_frac'][0]:+.4f}"
    )


# -- self-test -------------------------------------------------------------------


def self_test(seed: int) -> int:
    """One sweep_small round, then the checker on corrupted copies."""
    from concurrent.futures import wait

    from runners import RUNNERS
    from inputs import generate
    from repro.runtime import Session
    from repro.runtime.workloads.complang import complang_job

    inputs = generate("sweep_small", seed)
    runner = RUNNERS["sweep_small"]()
    scratch = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    stack = runner.setup(inputs, scratch)
    try:
        rnd = runner.measure(stack, pickle.loads(pickle.dumps(inputs.batches)), None)
    finally:
        runner.teardown(stack)
        shutil.rmtree(scratch, ignore_errors=True)
        if scratch.parent.exists() and not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()
    checks = {"clean round": (count_failures(inputs, rnd)[1], 0)}

    results = rnd.results[0]
    expected = inputs.expected[inputs.batches[0].kind]
    wrong = next(i for i, want in enumerate(expected) if want != expected[0])
    corrupted = list(results)
    corrupted[wrong] = results[0]  # a well-formed result, of another job
    rnd.results[0] = corrupted
    checks["one corrupted result"] = (count_failures(inputs, rnd)[1], 1)
    corrupted[wrong] = None
    checks["one None slot"] = (count_failures(inputs, rnd)[1], 1)

    # A real raised future: a complang loop past its fuel raises VMError.
    with Session("serial") as session:
        future = session.submit("complang", complang_job("while 1 { }", {}), fuel=50)
        wait([future._future])
        raised = future.exception() is not None
    checks["one raised future"] = (failed_slots([object()], [None], [raised]), 1)

    ok = True
    for name, (got, want) in checks.items():
        ok &= got == want
        status = "ok" if got == want else "FAIL"
        print(f"self-test {name}: counted {got} failed, expected {want}: {status}")
    return 0 if ok else 1


# -- main ------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_test:
        return self_test(args.seed)
    if args.workload is None:
        parser.error("--workload is required")

    inputs, records = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    e2e = end_to_end(records)
    layers = per_layer(records) if args.trace else None
    report(args, inputs, records, e2e, layers)
    if layers is not None:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": u} for name, u in END_TO_END.items()}
    failed = sum(r.failed for r in records)
    attempted = sum(r.rnd.jobs for r in records)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
