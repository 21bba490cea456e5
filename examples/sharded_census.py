#!/usr/bin/env python
"""A sharded busy-beaver census across multiple nodes.

The busy-beaver game — Rado's uncomputable function, one of the
paper's touchstones for the limits of computing — makes a perfect
distribution demo: thousands of independent candidate machines, each
scored by (ones written, steps taken), ranked at the end.

This script runs the same census three ways and checks they agree
exactly:

1. serially (the semantic baseline),
2. sharded across two nodes with ``backend="dist"`` — every candidate
   machine's *content key* hashes to a home node, each node prepares
   only its shard of the resident table, and results all-gather back
   in deterministic order,
3. distributed *and* supervised with a chaos-killed node mid-census —
   ``SupervisedBackend(ChaosBackend(dist))``: the supervisor restarts
   the killed node, retries its chunks, and the census still comes
   back exact.

Topology note: ``"single_node"`` runs the nodes as in-process threads
over socketpairs — the full wire protocol with no subprocess spawns,
so the demo is fast anywhere.  On a real multi-core box, switch to
``topology="hierarchical"`` (one subprocess per node, each hosting a
warm worker pool) for actual parallel throughput.

Run:  python examples/sharded_census.py
"""

from collections import Counter

from repro.faults.chaos import ChaosBackend, ChaosSchedule
from repro.faults.supervisor import SupervisedBackend
from repro.machines.busybeaver import enumerate_machines
from repro.runtime.core import create_backend, run_jobs

CANDIDATES = 300
STATES = 3
FUEL = 2_000
TOP = 5


def census(backend=None, **kwargs):
    jobs = [(m, "") for m in enumerate_machines(STATES, CANDIDATES, seed=11)]
    if backend is None:
        return run_jobs("busybeaver", jobs, fuel=FUEL)
    return run_jobs("busybeaver", jobs, fuel=FUEL, backend=backend, **kwargs)


def main() -> None:
    print(f"== busy-beaver census: {CANDIDATES} {STATES}-state candidates ==")
    clean = census()

    print("\n-- sharded across 2 nodes (backend='dist') --")
    dist = create_backend(
        "dist",
        workload="busybeaver",
        nodes=2,
        topology="single_node",
        workers_per_node=0,
    )
    try:
        sharded = census(backend=dist)
        dispatch = dist.last_dispatch
        print(
            f"chunks={dispatch['chunks']} over {dispatch['nodes']} nodes,"
            f" payload={dispatch['payload_bytes']} bytes,"
            f" per-node chunks={dict(Counter(dist.node_chunks))}"
        )
    finally:
        dist.close()
    print(f"sharded census exact: {sharded == clean}")

    print("\n-- same census, supervised, one node chaos-killed mid-sweep --")
    dist = create_backend(
        "dist",
        workload="busybeaver",
        nodes=2,
        topology="single_node",
        workers_per_node=0,
    )
    supervised = SupervisedBackend(
        ChaosBackend(dist, schedule=ChaosSchedule(kinds={1: "node_kill"}))
    )
    try:
        survived = census(backend=supervised)
        print(
            f"node restarts={dist.node_restarts},"
            f" chunk retries={supervised.last_report.retries},"
            f" stale replies discarded={dist.stale_results},"
            f" duplicates applied={dist.duplicate_results}"
        )
    finally:
        supervised.close()
    print(f"killed-node census exact: {survived == clean}")

    halting = [(s, i) for i, s in enumerate(clean) if s.halted]
    champions = sorted(halting, key=lambda s: (-s[0].ones, s[0].steps))[:TOP]
    print(f"\n-- top {TOP} of {len(halting)} halting candidates --")
    for score, index in champions:
        print(f"candidate #{index}: ones={score.ones} steps={score.steps}")


if __name__ == "__main__":
    main()
