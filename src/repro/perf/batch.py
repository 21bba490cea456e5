"""Batched execution of (machine, input) jobs: :func:`run_many`.

Busy-beaver sweeps, halting surveys and universal-machine replays run
the *same* machines over and over; compiling once and reusing the
tables is where batching wins.  That machinery — payload interning,
resident program tables, warm process pools, adaptive dispatch — is
the workload-generic runtime's (:mod:`repro.runtime.core`), and
:func:`run_many` is its Turing-machine entry point: the backend is
resolved by name or instance through
:func:`~repro.runtime.core.resolve_backend`, bound to the
:data:`~repro.runtime.workloads.machines.MACHINES` adapter, and the
call adds the TM-specific ``batch.run_many`` span and ``tm_*``
counters on top.

Everything else a TM caller needs is the runtime's, with the adapter
passed explicitly: ``SerialBackend(MACHINES)``,
``ProcessBackend(MACHINES, workers=4)``, ``ResidentCache(MACHINES)``,
``Session(backend).submit("machines", job)``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.machines.turing import TMResult, TuringMachine
from repro.obs.instrument import OBS
from repro.runtime.core import Backend, resolve_backend
from repro.runtime.workloads.machines import MACHINES

__all__ = ["TMJob", "run_many"]

TMJob = tuple[TuringMachine, str]


def run_many(
    jobs: Sequence[TMJob],
    *,
    fuel: int = 10_000,
    backend: str | Backend = "serial",
) -> list[TMResult]:
    """Run every (machine, tape_input) job; results keep job order.

    Each result equals what ``machine.run(tape_input, fuel=fuel)``
    would return — the batch layer changes the cost, never the answer
    (instrumentation included: enabling :data:`OBS` adds a span and
    counters, and ``tm_steps_total{backend=...}`` is defined to equal
    the sum of per-result step counts).  Equal jobs share one result
    object; machine runs are deterministic, so sharing is exact.  The
    one exception is the ``supervised`` backend, which may quarantine a
    poison job rather than fail the batch: its slot holds ``None`` and
    the dead letter is recorded on ``backend.last_report``.

    A backend named by string is created — and closed — by this call;
    pass an instance to keep its pool, resident programs and result
    memo alive across calls.
    """
    backend, owned = resolve_backend(backend, workload=MACHINES)
    try:
        with OBS.span("batch.run_many", backend=backend.name, jobs=len(jobs)):
            results = backend.execute(jobs, fuel=fuel)
            if OBS.enabled:
                # One atomic burst: a concurrent snapshot never sees
                # tm_jobs_total bumped with tm_steps_total still stale.
                with OBS.atomic():
                    OBS.count("tm_jobs_total", len(jobs), backend=backend.name)
                    OBS.count(
                        "tm_steps_total",
                        sum(r.steps for r in results if r is not None),
                        backend=backend.name,
                    )
                    OBS.count(
                        "tm_halts_total",
                        sum(1 for r in results if r is not None and r.halted),
                        backend=backend.name,
                    )
                # Log-visible dispatch record: chunks, steals, payload
                # bytes and memo hits land in the trace, so a dispatch
                # regression is diagnosable from a single run's spans.
                summary = getattr(backend, "last_dispatch", None)
                if summary:
                    OBS.event("batch.dispatch_summary", backend=backend.name, **summary)
    finally:
        if owned:
            close = getattr(backend, "close", None)
            if close is not None:
                close()
    return results
