"""A simulated multicore machine with a contention cost model.

Executes :class:`repro.core.combinators.StepAlgorithm` instances —
the same objects the interleaving combinators schedule — on ``cores``
simulated cores, so "interleaving two algorithms for efficient
parallel processing" (paper §1a) becomes a measured speedup.

Cost model: one step of algorithm A costs ``A.cost_per_step`` time
units on an uncontended core.  When ``k`` cores are busy in the same
epoch, every step in that epoch is inflated by ``1 + contention*(k-1)``
— a crude but honest stand-in for shared-cache and memory-bandwidth
pressure (the "beware of cache effects" lesson of the optimisation
guide).  With ``contention=0`` the machine is an ideal PRAM and
measured speedups approach Amdahl's bound.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.core.combinators import StepAlgorithm
from repro.obs.instrument import OBS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.machines.turing import TuringMachine

__all__ = ["Multicore", "MulticoreRun"]


@dataclass
class MulticoreRun:
    """Result of executing a workload on the simulated machine."""

    outputs: list[Any]
    makespan: float
    total_steps: int
    core_busy: list[float]

    @property
    def utilisation(self) -> float:
        total_capacity = self.makespan * len(self.core_busy)
        return sum(self.core_busy) / total_capacity if total_capacity else 0.0


class Multicore:
    """``cores`` simulated cores with optional contention."""

    def __init__(self, cores: int, *, contention: float = 0.0) -> None:
        if cores < 1:
            raise ValueError("need at least one core")
        if contention < 0:
            raise ValueError("contention must be nonnegative")
        self.cores = cores
        self.contention = contention

    def run(
        self,
        algorithms: Sequence[StepAlgorithm],
        inputs: Sequence[Any],
    ) -> MulticoreRun:
        """Execute the workload: each algorithm is a job; jobs are
        assigned to the least-loaded core and stepped in lockstep
        epochs.

        Epoch semantics: in each epoch, every core that has a job
        advances that job one step; the epoch's wall time is the
        maximum inflated step cost among the busy cores.  Jobs queue
        per-core; when a core's job finishes it pulls the next from
        the global queue.
        """
        if len(algorithms) != len(inputs):
            raise ValueError("one input per algorithm required")
        jobs = [alg.start(x) for alg, x in zip(algorithms, inputs)]
        # Greedy assignment by declared cost: heaviest jobs first.
        backlog = sorted(
            range(len(jobs)), key=lambda i: -jobs[i].algorithm.cost_per_step
        )
        running: list[int | None] = [None] * self.cores
        core_busy = [0.0] * self.cores
        clock = 0.0
        total_steps = 0
        pending = list(backlog)

        def refill() -> None:
            for c in range(self.cores):
                if running[c] is None and pending:
                    running[c] = pending.pop(0)

        refill()
        with OBS.span("multicore.run", cores=self.cores, jobs=len(jobs)):
            while any(j is not None for j in running):
                busy = [c for c in range(self.cores) if running[c] is not None]
                inflation = 1.0 + self.contention * (len(busy) - 1)
                epoch_costs = []
                for c in busy:
                    job = jobs[running[c]]
                    cost = job.algorithm.cost_per_step * inflation
                    still_running = job.step()
                    if still_running:
                        total_steps += 1
                        epoch_costs.append(cost)
                        core_busy[c] += cost
                    else:
                        running[c] = None
                clock += max(epoch_costs, default=0.0)
                refill()
        result = MulticoreRun(
            outputs=[j.output for j in jobs],
            makespan=clock,
            total_steps=total_steps,
            core_busy=core_busy,
        )
        if OBS.enabled:
            cores = str(self.cores)
            for c, busy_time in enumerate(core_busy):
                OBS.gauge(
                    "multicore_core_utilisation",
                    busy_time / clock if clock else 0.0,
                    core=str(c),
                    cores=cores,
                )
            OBS.gauge("multicore_utilisation", result.utilisation, cores=cores)
            OBS.count("multicore_steps_total", total_steps, cores=cores)
        return result

    def run_machines(
        self,
        machines: Sequence["TuringMachine"],
        inputs: Sequence[str],
        *,
        fuel: int = 10_000,
        backend: str = "serial",
        cost_per_step: float = 1.0,
    ) -> MulticoreRun:
        """Execute Turing-machine jobs on the simulated cores.

        The *answers* come from the real engine — the runtime's compiled
        tables of :mod:`repro.perf` (``backend="process"`` fans the
        actual execution over a process pool).  The *cost model* is then
        applied by replaying each job's true step count through the
        same epoch scheduler ``run`` uses, so contention and
        utilisation numbers stay comparable with StepAlgorithm
        workloads.  ``outputs`` holds each job's ``TMResult`` in job
        order.
        """
        if len(machines) != len(inputs):
            raise ValueError("one input per machine required")
        from repro.runtime import run_jobs

        results = run_jobs("machines", list(zip(machines, inputs)), fuel=fuel, backend=backend)

        def countdown(result):
            def factory(_ignored: Any):
                for _ in range(result.steps):
                    yield None
                return result

            return factory

        algorithms = [
            StepAlgorithm(f"tm[{i}]", countdown(r), cost_per_step=cost_per_step)
            for i, r in enumerate(results)
        ]
        return self.run(algorithms, inputs)

    def speedup_vs_serial(
        self,
        algorithms: Sequence[StepAlgorithm],
        inputs: Sequence[Any],
    ) -> float:
        """Measured speedup of this machine over a single-core run."""
        parallel = self.run(algorithms, inputs)
        serial = Multicore(1, contention=self.contention).run(algorithms, inputs)
        if parallel.makespan == 0:
            return 1.0
        return serial.makespan / parallel.makespan
