"""The four workloads, each run from one process through the runtime's
public entry points (``run_jobs``, ``Session.submit``, ``score_sweep``).

A runner builds its stack (``setup``, timed as the run's set-up),
runs one measured round over fresh copies of the inputs (``measure``)
and closes everything it opened (``teardown``).  ``trace`` installs the
benchmark-side spans of :mod:`spans` on a built stack; nothing under
``src/`` changes.

Every round starts from a new stack and a new journal directory, so no
job is ever served from an earlier round's memo or journal.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

from repro.machines.busybeaver import score_sweep
from repro.runtime import Session, create_backend, run_jobs

from inputs import Batch, Inputs, Stream
from spans import Tracer, merge

__all__ = ["RUNNERS", "Round", "trace_adapters"]

_clock = time.perf_counter

#: Pool workers and dist nodes: fixed, so runs compare across hosts.
WORKERS = 2
NODES = 2


@dataclass
class Round:
    """What one measured round saw, before any checking."""

    wall_s: float = 0.0  # first submit (or due time) to last result
    busy_s: float = 0.0  # time some measured job was in the system
    jobs: int = 0
    results: list = field(default_factory=list)  # per batch: list, or per submission
    raised: list = field(default_factory=list)  # per submission: exception raised
    latencies: list = field(default_factory=list)  # (ms, number of jobs)
    windows: list = field(default_factory=list)  # intervals the system was busy
    late_ms: list = field(default_factory=list)
    drain_ms: float = 0.0
    counts: Counter = field(default_factory=Counter)


def _call(tracer: Tracer | None, name: str, fn, *args: Any, **kwargs: Any) -> Any:
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def trace_adapters(tracer: Tracer) -> None:
    """Span every adapter hook the runtime calls on this process."""
    from repro.runtime.workloads.busybeaver import BusyBeaverWorkload
    from repro.runtime.workloads.complang import ComplangWorkload
    from repro.runtime.workloads.machines import MachineWorkload
    from repro.runtime.workloads.sat import SatWorkload

    for kind, cls in (
        ("machines", MachineWorkload),
        ("complang", ComplangWorkload),
        ("sat", SatWorkload),
        ("busybeaver", BusyBeaverWorkload),
    ):
        for attr in ("program_key", "content_key", "prepare"):
            tracer.wrap(cls, attr, f"workloads.{attr}")
        tracer.wrap_engine(cls, "execute", kind)
        if "run_direct" in vars(cls):  # the base class's calls execute
            tracer.wrap_engine(cls, "run_direct", kind)


def _dispatch_counts(counts: Counter, backend: Any) -> None:
    """Fold one ``execute``'s published counters into ``counts``."""
    d = getattr(backend, "last_dispatch", None) or {}
    c = getattr(backend, "last_cache_stats", None) or {}
    counts["core.jobs"] += d.get("jobs", 0)
    counts["core.unique"] += d.get("unique_jobs", 0)
    counts["core.chunks"] += d.get("chunks", 0)
    counts["core.steals"] += d.get("steals", 0)
    counts["core.payload_bytes"] += d.get("payload_bytes", 0)
    counts["core.hits"] += c.get("hits", 0)
    counts["core.misses"] += c.get("misses", 0)
    counts["journal.commits"] += d.get("journal_commits", 0)


def _served_counts(counts: Counter, backend: Any) -> None:
    """Executed vs deduped vs memo-served jobs of one ``execute``."""
    d = getattr(backend, "last_dispatch", None) or {}
    memo = d.get("memo_hits", 0) + d.get("journal_hits", 0)
    counts["memo_served"] += memo
    counts["deduped"] += d.get("deduped", 0)
    counts["executed"] += d.get("unique_jobs", 0) - memo


def _report_counts(counts: Counter, supervisor: Any) -> None:
    report = supervisor.last_report
    counts["supervisor.chunks"] += report.chunks
    counts["supervisor.retries"] += report.retries
    counts["supervisor.restarts"] += report.pool_restarts
    counts["supervisor.quarantined"] += len(report.quarantined)


def _journal_stats(journaled: Any) -> Counter:
    stats = journaled.journal.stats()
    return Counter(
        {
            "journal.appends": stats["appends"],
            "journal.fsyncs": stats["fsyncs"],
            "journal.bytes": stats["bytes"],
        }
    )


def _run_batches(
    stack: dict[str, Any], batches: list[Batch], tracer: Tracer | None, rnd: Round
) -> None:
    """One ``run_jobs`` call per batch; a job's latency is its call's."""
    for batch in batches:
        backend = stack[batch.kind]
        start = _clock()
        try:
            results = _call(
                tracer,
                "core.run_jobs",
                run_jobs,
                batch.kind,
                batch.jobs,
                fuel=batch.fuel,
                backend=backend,
            )
        except Exception as exc:  # counted as failed jobs, not a crash
            print(f"run_jobs({batch.kind}) raised {exc!r}")
            results = None
        end = _clock()
        rnd.results.append(results)
        rnd.windows.append((start, end))
        rnd.latencies.append(((end - start) * 1e3, len(batch.jobs)))
        rnd.jobs += len(batch.jobs)
        _dispatch_counts(rnd.counts, backend)
        _served_counts(rnd.counts, backend)
    rnd.wall_s = rnd.windows[-1][1] - rnd.windows[0][0]
    rnd.busy_s = sum(end - start for start, end in rnd.windows)


class SweepSmall:
    """``journaled:supervised:serial``, one ``run_jobs`` call per kind."""

    chain = "journaled:supervised:serial"
    workers = 1

    def setup(self, inputs: Inputs, workdir: Path) -> dict[str, Any]:
        stack = {}
        for batch in inputs.warmup:
            backend = create_backend(
                self.chain, workload=batch.kind, journal_dir=workdir / batch.kind
            )
            stack[batch.kind] = backend
            run_jobs(batch.kind, batch.jobs, fuel=batch.fuel, backend=backend)
        return stack

    def trace(self, tracer: Tracer, stack: dict[str, Any]) -> None:
        for kind, journaled in stack.items():
            supervisor = journaled.inner
            tracer.wrap(journaled, "execute", "journal.execute")
            tracer.wrap(supervisor, "execute", "supervisor.execute")
            tracer.wrap_chunks(
                supervisor.inner, "submit_chunk", "core.chunk", kind=kind, remote=False
            )

    def measure(self, stack: dict[str, Any], work: Any, tracer: Tracer | None) -> Round:
        rnd = Round()
        before = sum((_journal_stats(b) for b in stack.values()), Counter())
        _run_batches(stack, work, tracer, rnd)
        for journaled in stack.values():
            _report_counts(rnd.counts, journaled.inner)
            rnd.counts.update(_journal_stats(journaled))
        rnd.counts.subtract(before)
        rnd.counts["core.workers"] = self.workers
        return rnd

    def teardown(self, stack: dict[str, Any]) -> None:
        for backend in stack.values():
            backend.close()


class SweepLarge:
    """A bare ``process`` backend (adaptive dispatch) per kind."""

    def setup(self, inputs: Inputs, workdir: Path) -> dict[str, Any]:
        stack = {}
        for batch in inputs.warmup:
            backend = create_backend("process", workload=batch.kind, workers=WORKERS)
            stack[batch.kind] = backend
            backend.warm(programs=inputs.programs[batch.kind])
            # The warm-up job starts the pool; its input is not measured.
            run_jobs(batch.kind, batch.jobs, fuel=batch.fuel, backend=backend)
        return stack

    def trace(self, tracer: Tracer, stack: dict[str, Any]) -> None:
        for kind, backend in stack.items():
            tracer.wrap(backend, "execute", "core.execute")
            tracer.wrap_chunks(backend, "_submit_entries", "core.chunk", kind=kind, remote=True)

    def measure(self, stack: dict[str, Any], work: Any, tracer: Tracer | None) -> Round:
        rnd = Round()
        _run_batches(stack, work, tracer, rnd)
        rnd.counts["core.workers"] = WORKERS
        return rnd

    def teardown(self, stack: dict[str, Any]) -> None:
        for backend in stack.values():
            backend.close()


@dataclass
class _SessionStack:
    backend: Any  # journaled:supervised:dist
    session: Session
    first_submit: dict = field(default_factory=dict)  # id(job) -> (time, index)
    queued: list = field(default_factory=list)  # (first submit, flush start, index)
    counts: Counter = field(default_factory=Counter)  # filled by traced hooks


class SessionStream:
    """An open loop at a fixed rate into one ``Session`` over
    ``journaled:supervised:dist``."""

    chain = "journaled:supervised:dist"

    def setup(self, inputs: Inputs, workdir: Path) -> _SessionStack:
        stream = inputs.stream
        backend = create_backend(
            self.chain, workload=stream.kind, journal_dir=workdir / "journal", nodes=NODES
        )
        backend.inner.inner.warm(programs=inputs.programs[stream.kind])
        session = Session(backend)
        # One job per program: ships and compiles every program on its
        # node before the measured stream starts.
        for future in [session.submit(stream.kind, job, fuel=stream.fuel) for job in stream.warmup]:
            future.result()
        return _SessionStack(backend, session)

    def trace(self, tracer: Tracer, stack: _SessionStack) -> None:
        journaled = stack.backend
        supervisor = journaled.inner
        stack.queued = []
        counts = stack.counts = Counter()

        def flush_starts(jobs: list) -> None:
            now = _clock()
            for job in jobs:
                first, index = stack.first_submit[id(job)]
                stack.queued.append((first, now, index))

        tracer.wrap(
            journaled,
            "execute",
            "journal.execute",
            before=flush_starts,
            after=lambda _r, _jobs: _dispatch_counts(counts, journaled),
        )
        tracer.wrap(
            supervisor,
            "execute",
            "supervisor.execute",
            after=lambda _r, _jobs: _report_counts(counts, supervisor),
        )
        tracer.wrap_chunks(
            supervisor.inner, "submit_chunk", "dist.chunk", kind="machines", remote=True
        )

    def measure(self, stack: _SessionStack, work: Any, tracer: Tracer | None) -> Round:
        stream: Stream = work
        session = stack.session
        dist = stack.backend.inner.inner
        n = len(stream.schedule)
        due = [0.0] * n
        sent = [0.0] * n
        done = [0.0] * n
        rnd = Round(jobs=n, results=[None] * n, raised=[False] * n)
        stack.first_submit = {}

        def settle(k: int, future: Any) -> None:
            done[k] = _clock()
            if future.exception() is not None:
                rnd.raised[k] = True
            else:
                rnd.results[k] = future.result()

        stats0 = session.stats()
        comm0 = (dist.comm.bytes_sent, dist.comm.bytes_recv)
        faults0 = (dist.node_restarts, dist.duplicate_results)
        journal0 = _journal_stats(stack.backend)
        submit = session.submit
        t0 = _clock() + 0.005
        for k, (offset, index, priority) in enumerate(stream.schedule):
            due[k] = t0 + offset
            delay = due[k] - _clock()
            if delay > 0:
                time.sleep(delay)
            job = stream.jobs[index]
            sent[k] = _clock()
            stack.first_submit.setdefault(id(job), (sent[k], k))
            if tracer is None:
                future = submit(stream.kind, job, fuel=stream.fuel, priority=priority)
            else:
                future = tracer.call(
                    "session.submit",
                    submit,
                    stream.kind,
                    job,
                    fuel=stream.fuel,
                    priority=priority,
                    job=k,
                )
            future.add_done_callback(partial(settle, k))
        session.drain()
        last = max(done)
        rnd.wall_s = last - t0
        rnd.drain_ms = (last - due[-1]) * 1e3
        rnd.latencies = [((d - s) * 1e3, 1) for d, s in zip(done, due)]
        rnd.late_ms = [(s - d) * 1e3 for s, d in zip(sent, due)]
        rnd.windows = merge(list(zip(sent, done)))
        rnd.busy_s = sum(b - a for a, b in rnd.windows)

        stats = session.stats()
        counts = rnd.counts
        for key in ("submitted", "executed_jobs", "dedup_joins", "memo_hits"):
            counts[f"session.{key}"] = stats[key] - stats0[key]
        counts["session.flushes"] = sum(stats["flushes"].values()) - sum(
            stats0["flushes"].values()
        )
        counts["executed"] = counts["session.executed_jobs"]
        counts["deduped"] = counts["session.dedup_joins"]
        counts["memo_served"] = counts["session.memo_hits"]
        counts["dist.bytes_sent"] = dist.comm.bytes_sent - comm0[0]
        counts["dist.bytes_recv"] = dist.comm.bytes_recv - comm0[1]
        counts["dist.node_restarts"] = dist.node_restarts - faults0[0]
        counts["dist.duplicate_results"] = dist.duplicate_results - faults0[1]
        counts["core.workers"] = dist.workers
        counts.update(_journal_stats(stack.backend))
        counts.subtract(journal0)
        if tracer is not None:
            counts.update(stack.counts)
            for first, start, index in stack.queued:
                tracer.add("session.queue", first, start, -1, index)
        return rnd

    def teardown(self, stack: _SessionStack) -> None:
        stack.session.close()
        stack.backend.close()


class Census:
    """``score_sweep`` with its default ``ensemble`` backend."""

    def setup(self, inputs: Inputs, workdir: Path) -> dict[str, Any]:
        # score_sweep builds its backend per call, so set-up is the
        # warm-up sweep of a small family outside the measured one.
        warm = inputs.warmup[0]
        score_sweep([m for m, _ in warm.jobs], fuel=warm.fuel)
        return {}

    def trace(self, tracer: Tracer, stack: dict[str, Any]) -> None:
        import repro.runtime as runtime
        from repro.runtime import ensemble

        counts = stack["counts"] = Counter()

        def ensemble_counts(_result: Any, backend: Any, *_args: Any) -> None:
            d = backend.last_dispatch
            counts["ensemble.jobs"] += d.get("jobs", 0)
            counts["ensemble.fallback"] += d.get("fallback_jobs", 0)
            _dispatch_counts(counts, backend)

        tracer.wrap(runtime, "run_jobs", "core.run_jobs")
        tracer.wrap(ensemble.EnsembleBackend, "execute", "ensemble.execute", after=ensemble_counts)
        tracer.wrap(ensemble, "lower_machine", "ensemble.lower")
        tracer.wrap(ensemble, "compile_family", "ensemble.compile")
        tracer.wrap(ensemble, "run_family", "ensemble.step")

    def measure(self, stack: dict[str, Any], work: Any, tracer: Tracer | None) -> Round:
        batch: Batch = work[0]
        machines = [m for m, _ in batch.jobs]
        rnd = Round(jobs=len(machines))
        start = _clock()
        try:
            results = _call(tracer, "core.score_sweep", score_sweep, machines, fuel=batch.fuel)
        except Exception as exc:  # counted as failed jobs, not a crash
            print(f"score_sweep raised {exc!r}")
            results = None
        end = _clock()
        rnd.results = [results]
        rnd.windows = [(start, end)]
        rnd.wall_s = rnd.busy_s = end - start
        rnd.latencies = [((end - start) * 1e3, len(machines))]
        # A fresh ensemble backend per call: nothing can be memo-served.
        rnd.counts["executed"] = len({id(m) for m in machines})
        rnd.counts["deduped"] = len(machines) - rnd.counts["executed"]
        rnd.counts.update(stack.get("counts", ()))
        return rnd

    def teardown(self, stack: dict[str, Any]) -> None:
        pass


RUNNERS = {
    "sweep_small": SweepSmall,
    "sweep_large": SweepLarge,
    "session_stream": SessionStream,
    "census": Census,
}
