"""CM1 — the multi-node sharded-execution gate.

Distribution that changes answers is not an optimisation, and a
recovery path nobody kills a node to exercise is a recovery path that
doesn't work.  This harness keeps the three promises of
:mod:`repro.comm` honest:

1. **Byte-identity gate** — a two-node sharded sweep (loopback
   topology: real sockets, real wire protocol, node servers as
   threads) must return results whose per-result pickles equal
   ``SerialBackend``'s, with interning/dedup live; and a second sweep
   over the same jobs must be served entirely from the coordinator
   memo (zero chunks on the wire).
2. **Node-kill recovery gate** — a chaos-scheduled ``node_kill`` fault
   SIGKILLs (loopback: slams the socket of) one node mid-sweep.  The
   sweep must return *exactly* the clean run's results: nothing lost
   (no unfilled slots), nothing double-applied (``duplicate_results ==
   0``), with at least one node restart actually exercised.
3. **Throughput gate** — on quadratic-work jobs at 2 nodes x 2
   workers (``hierarchical`` topology: one subprocess per node, each
   hosting a warm pool), distributed throughput must reach >= 1.6x a
   single-pool ``ProcessBackend(workers=2)``.  Needs real parallelism:
   **skipped (and recorded as skipped) below 4 CPUs.**

Standalone, one command, one artifact (cf. bench_journal_resume.py):

    python benchmarks/bench_comm.py            # full sizes
    python benchmarks/bench_comm.py --smoke    # seconds, tiny sizes

Writes ``BENCH_comm.json`` at the repo root and the ``[CM1]`` table
under ``benchmarks/reports/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))                 # _common
sys.path.insert(0, str(_HERE.parent / "src"))  # repro without installing

from _common import Table, emit  # noqa: E402

from repro.comm.dist import DistBackend  # noqa: E402
from repro.faults.chaos import ChaosSchedule  # noqa: E402
from repro.machines.turing import binary_increment, copier, palindrome_checker  # noqa: E402
from repro.runtime.core import ProcessBackend, SerialBackend  # noqa: E402
from repro.runtime.workloads.machines import MACHINES  # noqa: E402

ROOT = _HERE.parent
MIN_SPEEDUP = 1.6
MIN_CPUS = 4
FUEL = 2_000_000


def per_result_pickles(results):
    return [pickle.dumps(r) for r in results]


def mixed_jobs(njobs: int):
    """Dedup-friendly mixed batch: several programs, repeated inputs."""
    pool = [
        (palindrome_checker(), "abba"),
        (binary_increment(), "1011"),
        (copier(), "101"),
        (palindrome_checker(), "aba"),
        (binary_increment(), "1" * 7),
    ]
    return [pool[i % len(pool)] for i in range(njobs)]


def quadratic_jobs(njobs: int, half: int):
    """Distinct long non-palindrome tapes: quadratic step counts with
    compact results, so per-job compute dominates the wire cost."""
    return [
        (palindrome_checker(), "a" * (half + i) + "b" + "a" * (half + i))
        for i in range(njobs)
    ]


def byte_identity_check(smoke: bool) -> dict:
    """Two loopback nodes vs SerialBackend, then a warm memo pass."""
    jobs = mixed_jobs(24 if smoke else 96)
    fuel = 50_000
    clean = SerialBackend(MACHINES).execute(jobs, fuel=fuel)
    backend = DistBackend(MACHINES, nodes=2, topology="single_node", workers_per_node=0)
    try:
        out = backend.execute(jobs, fuel=fuel)
        first_dispatch = dict(backend.last_dispatch)
        identical = per_result_pickles(out) == per_result_pickles(clean)
        again = backend.execute(jobs, fuel=fuel)
        warm_dispatch = dict(backend.last_dispatch)
        warm_identical = per_result_pickles(again) == per_result_pickles(clean)
    finally:
        backend.close()
    return {
        "name": "byte_identity",
        "jobs": len(jobs),
        "nodes": 2,
        "chunks": first_dispatch.get("chunks", 0),
        "deduped": first_dispatch.get("deduped", 0),
        "payload_bytes": first_dispatch.get("payload_bytes", 0),
        "byte_identical": identical,
        "warm_byte_identical": warm_identical,
        "warm_chunks": warm_dispatch.get("chunks", 0),
        "warm_memo_hits": warm_dispatch.get("memo_hits", 0),
    }


def node_kill_check(smoke: bool) -> dict:
    """Kill one node mid-sweep; the recovery must be exact."""
    jobs = mixed_jobs(24 if smoke else 96)
    fuel = 50_000
    clean = SerialBackend(MACHINES).execute(jobs, fuel=fuel)
    backend = DistBackend(
        MACHINES,
        nodes=2,
        topology="single_node",
        workers_per_node=0,
        chunksize=3,
        chaos=ChaosSchedule(kinds={1: "node_kill"}),
    )
    try:
        out = backend.execute(jobs, fuel=fuel)
        dispatch = dict(backend.last_dispatch)
        identical = per_result_pickles(out) == per_result_pickles(clean)
        lost = sum(1 for r in out if r is None)
        duplicated = backend.duplicate_results
        stale = backend.stale_results
    finally:
        backend.close()
    return {
        "name": "node_kill_recovery",
        "jobs": len(jobs),
        "nodes": 2,
        "kill_at_chunk": 1,
        "byte_identical": identical,
        "lost_results": lost,
        "duplicate_results": duplicated,
        "stale_replies_discarded": stale,
        "node_restarts": dispatch.get("node_restarts", 0),
        "degraded_jobs": dispatch.get("degraded_jobs", 0),
        "chunks": dispatch.get("chunks", 0),
        # The gate: exact results, a real restart, no double-apply.
        "exact": identical and lost == 0 and duplicated == 0,
        "restarted": dispatch.get("node_restarts", 0) >= 1,
    }


def throughput_gate(smoke: bool, *, repeats: int) -> dict:
    """2 nodes x 2 workers (hierarchical) vs one ProcessBackend pool.

    Both sides are warmed first (pools up, shards seeded, cost model
    primed) and the memo is defeated by using fresh tapes per repeat
    batch — the measurement is chunk dispatch + execution, not memo
    lookups.  Interleaved medians, like the journal-overhead gate.
    """
    cpus = os.cpu_count() or 1
    if cpus < MIN_CPUS:
        # The skip record carries the detected CPU count and the exact
        # gate it would have been held to, so a skipped artifact is
        # still self-describing.
        return {
            "name": "dist_throughput",
            "skipped": True,
            "reason": f"needs >= {MIN_CPUS} CPUs for 2 nodes x 2 workers, have {cpus}",
            "cpus": cpus,
            "min_cpus": MIN_CPUS,
            "gate": {"min_speedup": MIN_SPEEDUP},
        }
    half = 240 if smoke else 420
    njobs = 16 if smoke else 48
    repeats = max(2, repeats)

    def batch(tag: int):
        # fresh tapes per repeat: nothing memoable across timings
        return quadratic_jobs(njobs, half + tag * njobs)

    single = ProcessBackend(MACHINES, workers=2)
    dist = DistBackend(
        MACHINES,
        nodes=2,
        workers_per_node=2,
        topology="hierarchical",
        connect_timeout=120.0,
    )
    try:
        # Warm both: pools built, shards seeded, first batch discarded.
        warm = batch(0)
        expected = SerialBackend(MACHINES).execute(warm, fuel=FUEL)
        got_single = single.execute(warm, fuel=FUEL)
        got_dist = dist.execute(warm, fuel=FUEL)
        identical = per_result_pickles(got_dist) == per_result_pickles(expected)
        identical &= per_result_pickles(got_single) == per_result_pickles(expected)
        single_times: list[float] = []
        dist_times: list[float] = []
        for r in range(1, repeats + 1):
            jobs = batch(r)
            t0 = time.perf_counter()
            single.execute(jobs, fuel=FUEL)
            t1 = time.perf_counter()
            dist.execute(jobs, fuel=FUEL)
            t2 = time.perf_counter()
            single_times.append(t1 - t0)
            dist_times.append(t2 - t1)
        dispatch = dict(dist.last_dispatch)
    finally:
        single.close()
        dist.close()
    single_s = statistics.median(single_times)
    dist_s = statistics.median(dist_times)
    return {
        "name": "dist_throughput",
        "skipped": False,
        "cpus": cpus,
        "jobs": njobs,
        "nodes": 2,
        "workers_per_node": 2,
        "topology": "hierarchical",
        "single_pool_seconds": single_s,
        "dist_seconds": dist_s,
        "speedup": single_s / dist_s if dist_s else float("inf"),
        "byte_identical": identical,
        "last_dispatch": dispatch,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes: exercises the full pipeline in seconds",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=ROOT / "BENCH_comm.json",
        help="where to write the JSON artifact",
    )
    args = parser.parse_args(argv)

    identity = byte_identity_check(args.smoke)
    kill = node_kill_check(args.smoke)
    throughput = throughput_gate(args.smoke, repeats=3 if args.smoke else 5)

    identity_ok = (
        identity["byte_identical"]
        and identity["warm_byte_identical"]
        and identity["warm_chunks"] == 0
    )
    kill_ok = kill["exact"] and kill["restarted"]
    throughput_skipped = throughput.get("skipped", False)
    throughput_ok = throughput_skipped or (
        throughput["speedup"] >= MIN_SPEEDUP and throughput["byte_identical"]
    )

    table = Table(
        ["check", "measured", "budget", "verdict"],
        caption=f"CM1: two-node byte-identity, node-kill recovery, dist throughput"
        f" ({'smoke' if args.smoke else 'full'} sizes)",
    )
    table.add_row(
        "2-node sweep == serial (bytes)",
        f"{identity['jobs']} jobs / {identity['chunks']} chunks"
        f" identical={identity['byte_identical']}",
        "True",
        "PASS" if identity["byte_identical"] else "FAIL",
    )
    table.add_row(
        "warm re-sweep from memo",
        f"chunks={identity['warm_chunks']} memo_hits={identity['warm_memo_hits']}",
        "0 chunks",
        "PASS" if identity["warm_byte_identical"] and identity["warm_chunks"] == 0
        else "FAIL",
    )
    table.add_row(
        "node-kill recovery exact",
        f"identical={kill['byte_identical']} lost={kill['lost_results']}"
        f" duplicated={kill['duplicate_results']} restarts={kill['node_restarts']}",
        "identical, 0 lost, 0 duplicated, >= 1 restart",
        "PASS" if kill_ok else "FAIL",
    )
    if throughput_skipped:
        table.add_row(
            "dist >= 1.6x single pool",
            throughput["reason"],
            f">= {MIN_SPEEDUP}x",
            "SKIP",
        )
    else:
        table.add_row(
            "dist >= 1.6x single pool",
            f"{throughput['speedup']:.2f}x"
            f" ({throughput['single_pool_seconds']:.3f}s ->"
            f" {throughput['dist_seconds']:.3f}s)",
            f">= {MIN_SPEEDUP}x",
            "PASS" if throughput_ok else "FAIL",
        )
    emit("CM1", table)

    payload = {
        "harness": "benchmarks/bench_comm.py",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "byte_identity": identity,
        "node_kill": kill,
        "throughput": throughput,
        "acceptance": {
            "min_speedup": MIN_SPEEDUP,
            "min_cpus": MIN_CPUS,
            "identity_passed": identity_ok,
            "node_kill_passed": kill_ok,
            "throughput_skipped": throughput_skipped,
            "throughput_passed": throughput_ok,
            "passed": identity_ok and kill_ok and throughput_ok,
        },
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {args.output}")

    if not identity_ok:
        print(f"FAIL: byte-identity invariants violated: {identity}", file=sys.stderr)
        return 1
    if not kill_ok:
        print(f"FAIL: node-kill recovery invariants violated: {kill}", file=sys.stderr)
        return 1
    if not throughput_ok:
        print(
            f"FAIL: dist speedup {throughput['speedup']:.2f}x < {MIN_SPEEDUP}x",
            file=sys.stderr,
        )
        return 1
    verdicts = [
        f"2-node sweep of {identity['jobs']} jobs byte-identical to serial",
        f"node-kill recovered exactly after {kill['node_restarts']} restart(s)",
    ]
    if throughput_skipped:
        verdicts.append(f"throughput gate skipped ({throughput['reason']})")
    else:
        verdicts.append(
            f"dist {throughput['speedup']:.2f}x over single pool (>= {MIN_SPEEDUP}x)"
        )
    print("PASS: " + "; ".join(verdicts))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
