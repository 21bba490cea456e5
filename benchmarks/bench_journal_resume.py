"""JN1 — the durable-journal resume gate.

A journal that taxes the fault-free sweep gets turned off, and a
resume path nobody kills a process to exercise is a resume path that
doesn't work.  This harness keeps both promises of
:mod:`repro.runtime.journal` honest:

1. **Fault-free overhead gate** — the same batch through a bare
   ``SerialBackend`` and through ``JournaledBackend(SerialBackend())``
   writing a fresh journal.  The append path (framing, CRC, buffered
   writes, batched fsyncs) must cost < 10% or the script exits 1.
2. **Kill-resume gate** — a child process runs the sweep with a
   scheduled ``"kill"`` fault (``os._exit(137)``, no cleanup) mid-way;
   the parent recovers the journal and resumes.  The resumed sweep
   must return results byte-identical to a clean run, serve every
   completed key from the journal (zero re-executions), and re-run
   exactly the jobs that were not yet durable.
3. **Dead-letter replay gate** — a poison job quarantined through
   ``journaled:supervised`` lands in the journal as a dead letter; a
   fresh process replays it after the "fix" and the completion
   supersedes the quarantine durably.

Standalone, one command, one artifact (cf. bench_fault_recovery.py):

    python benchmarks/bench_journal_resume.py            # full sizes
    python benchmarks/bench_journal_resume.py --smoke    # seconds, tiny sizes

Writes ``BENCH_journal.json`` at the repo root and the ``[JN1]`` table
under ``benchmarks/reports/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))                 # _common
sys.path.insert(0, str(_HERE.parent / "src"))  # repro without installing

from _common import Table, emit  # noqa: E402

from repro.faults.chaos import KILL_EXIT_CODE, ChaosBackend, ChaosSchedule  # noqa: E402
from repro.faults.recovery import recover_journal  # noqa: E402
from repro.faults.supervisor import SupervisedBackend, SupervisorPolicy  # noqa: E402
from repro.machines.turing import binary_increment, palindrome_checker  # noqa: E402
from repro.runtime.core import SerialBackend  # noqa: E402
from repro.runtime.journal import JournaledBackend, journal_key  # noqa: E402
from repro.runtime.workloads.machines import MACHINES  # noqa: E402

ROOT = _HERE.parent
MAX_OVERHEAD_PCT = 10.0


class CountingSerial(SerialBackend):
    """Serial backend that counts the jobs it actually executes."""

    def __init__(self):
        super().__init__(MACHINES)
        self.executed = 0

    def execute(self, jobs, **kwargs):
        self.executed += len(jobs)
        return super().execute(jobs, **kwargs)


def measure_journal_overhead(smoke: bool, *, repeats: int, workdir: Path) -> dict:
    """Bare serial vs journaled serial on a fault-free batch.

    The palindrome checker over long, distinct, *non*-palindrome
    tapes: quadratic step counts with compact results, so per-job
    compute dominates and the measurement isolates the journal's
    per-job cost — two framed appends (submitted + completed, the
    result pickled) and the per-slice fsync barrier.  Every journaled
    run writes a *fresh* journal — resuming would serve memo hits and
    measure nothing.
    """
    half = 360 if smoke else 480
    njobs = 32 if smoke else 64
    jobs = [
        (palindrome_checker(), "a" * (half + i) + "b" + "a" * (half + i))
        for i in range(njobs)
    ]
    fuel = 2_000_000

    def bare_run():
        # A fresh backend per sample, like the journaled leg: a reused
        # one keeps its compiled programs, and the compile would land
        # on the journal's side of the comparison.
        backend = SerialBackend(MACHINES)
        try:
            return backend.execute(jobs, fuel=fuel)
        finally:
            backend.close()

    expected = bare_run()
    fresh = iter(range(1_000_000))

    def journaled_run():
        # Default knobs — the out-of-the-box durability configuration
        # is the one the budget is promised for.  (The kill-resume
        # gate below is what exercises fine-grained commit slices.)
        backend = JournaledBackend(
            SerialBackend(MACHINES),
            journal_dir=workdir / f"overhead-{next(fresh)}",
        )
        try:
            return backend.execute(jobs, fuel=fuel)
        finally:
            backend.close()

    assert journaled_run() == expected, "journaling changed the answers"
    # Interleaved pairs, compared by medians: the bare and journaled
    # samples ride the same load/frequency drift, so the difference is
    # the journal's cost and not the machine's mood.  (Sequential
    # best-of — time_callable's strategy — reads several-percent
    # phantom overheads on shared machines.)
    samples = 3 * repeats
    bare_times: list[float] = []
    journaled_times: list[float] = []
    for _ in range(samples):
        t0 = time.perf_counter()
        bare_run()
        t1 = time.perf_counter()
        journaled_run()
        t2 = time.perf_counter()
        bare_times.append(t1 - t0)
        journaled_times.append(t2 - t1)
    bare_s = statistics.median(bare_times)
    journaled_s = statistics.median(journaled_times)
    return {
        "name": "fault_free_journaled_overhead",
        "jobs": njobs,
        "bare_seconds": bare_s,
        "journaled_seconds": journaled_s,
        "overhead_pct": max(0.0, (journaled_s - bare_s) / bare_s * 100.0),
    }


KILL_CHILD = textwrap.dedent(
    """
    import sys
    from repro.faults.chaos import ChaosBackend, ChaosSchedule
    from repro.machines.turing import binary_increment
    from repro.runtime.core import SerialBackend
    from repro.runtime.journal import JournaledBackend
    from repro.runtime.workloads.machines import MACHINES

    njobs, commit_every, kill_at = (
        int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    )
    jobs = [(binary_increment(), "1" * (i + 1)) for i in range(njobs)]
    chaos = ChaosBackend(
        SerialBackend(MACHINES), schedule=ChaosSchedule(kinds={kill_at: "kill"})
    )
    backend = JournaledBackend(
        chaos, journal_dir=sys.argv[1], commit_every=commit_every, sync_every=1
    )
    backend.execute(jobs, fuel=5_000)
    sys.exit(3)  # unreachable: the kill must have fired
    """
)


def kill_resume_check(smoke: bool, *, workdir: Path) -> dict:
    """Hard-kill a sweep mid-way in a child process, then resume it."""
    njobs = 16 if smoke else 48
    commit_every = 4
    kill_at = njobs // commit_every // 2  # mid-sweep, on a commit boundary
    journal_dir = workdir / "kill-resume"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            KILL_CHILD,
            str(journal_dir),
            str(njobs),
            str(commit_every),
            str(kill_at),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )

    jobs = [(binary_increment(), "1" * (i + 1)) for i in range(njobs)]
    clean = [machine.run(tape, fuel=5_000) for machine, tape in jobs]
    state = recover_journal(journal_dir)
    completed = len(state.completed)

    inner = CountingSerial()
    resumed = JournaledBackend(inner, journal_dir=journal_dir)
    try:
        out = resumed.execute(jobs, fuel=5_000)
        summary = dict(resumed.last_dispatch)
    finally:
        resumed.close()
    byte_identical = [pickle.dumps(r) for r in out] == [pickle.dumps(r) for r in clean]
    return {
        "name": "kill_resume",
        "jobs": njobs,
        "commit_every": commit_every,
        "kill_at_dispatch": kill_at,
        "child_exit_code": proc.returncode,
        "killed_hard": proc.returncode == KILL_EXIT_CODE,
        "completed_before_kill": completed,
        "in_flight_at_kill": len(state.in_flight),
        "journal_hits": summary.get("journal_hits", 0),
        "reexecuted": inner.executed,
        "byte_identical": byte_identical,
        # The gate: every durable completion served, nothing re-run.
        "completed_skipped": summary.get("journal_hits", 0) == completed
        and inner.executed == njobs - completed,
        "made_progress_before_kill": 0 < completed < njobs,
    }


def dead_letter_replay_check(*, workdir: Path) -> dict:
    """Quarantine poison through journaled:supervised; replay it later."""
    jobs = [(binary_increment(), "1" * (i + 1)) for i in range(8)]
    poison_index = 5
    fuel = 5_000
    journal_dir = workdir / "dead-letter"
    chaos = ChaosBackend(SerialBackend(MACHINES), poison_jobs=[jobs[poison_index]])
    supervised = SupervisedBackend(
        inner=chaos,
        policy=SupervisorPolicy(
            chunksize=4, max_chunk_retries=1, max_pool_restarts=1_000
        ),
    )
    backend = JournaledBackend(supervised, journal_dir=journal_dir, commit_every=4)
    try:
        first = backend.execute(jobs, fuel=fuel)
    finally:
        backend.close()

    # A fresh process: the quarantine must have survived the restart...
    state = recover_journal(journal_dir)
    digest = journal_key(MACHINES, jobs[poison_index], fuel)
    survived = digest in state.dead_letters
    # ...and replay through a poison-free backend (the "fix") recovers it.
    fixed = JournaledBackend(SerialBackend(MACHINES), journal_dir=journal_dir)
    try:
        recovered = fixed.replay_dead_letters()
        final = fixed.execute(jobs, fuel=fuel)
    finally:
        fixed.close()
    expected = [machine.run(tape, fuel=fuel) for machine, tape in jobs]
    return {
        "name": "dead_letter_replay",
        "jobs": len(jobs),
        "poison_index": poison_index,
        "poison_slot_none_first": first[poison_index] is None,
        "quarantine_survived_restart": survived,
        "replayed": sorted(recovered),
        "replay_recovered": list(recovered) == [digest],
        "final_equals_clean": final == expected,
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
        help="write the JSON artifact here and the report table beside it"
        " (default: BENCH_journal.json at the repo root, the table under"
        " benchmarks/reports/)",
    )
    args = parser.parse_args(argv)
    repeats = 5

    with tempfile.TemporaryDirectory(prefix="bench-journal-") as tmp:
        workdir = Path(tmp)
        overhead = measure_journal_overhead(args.smoke, repeats=repeats, workdir=workdir)
        resume = kill_resume_check(args.smoke, workdir=workdir)
        replay = dead_letter_replay_check(workdir=workdir)

    overhead_ok = overhead["overhead_pct"] < MAX_OVERHEAD_PCT
    resume_ok = (
        resume["killed_hard"]
        and resume["made_progress_before_kill"]
        and resume["byte_identical"]
        and resume["completed_skipped"]
    )
    replay_ok = (
        replay["poison_slot_none_first"]
        and replay["quarantine_survived_restart"]
        and replay["replay_recovered"]
        and replay["final_equals_clean"]
    )

    table = Table(
        ["check", "measured", "budget", "verdict"],
        caption=f"JN1: journal overhead, kill -9 resume, dead-letter replay"
        f" ({'smoke' if args.smoke else 'full'} sizes)",
    )
    table.add_row(
        "fault-free overhead",
        f"{overhead['overhead_pct']:.2f}%",
        f"< {MAX_OVERHEAD_PCT:.0f}%",
        "PASS" if overhead_ok else "FAIL",
    )
    table.add_row(
        "child killed hard",
        f"exit {resume['child_exit_code']}",
        f"exit {KILL_EXIT_CODE}",
        "PASS" if resume["killed_hard"] else "FAIL",
    )
    table.add_row(
        "resume == clean (bytes)",
        str(resume["byte_identical"]),
        "True",
        "PASS" if resume["byte_identical"] else "FAIL",
    )
    table.add_row(
        "completed keys skipped",
        f"{resume['journal_hits']} hits / {resume['reexecuted']} re-run"
        f" of {resume['jobs']}",
        f"{resume['completed_before_kill']} hits, 0 re-executions",
        "PASS" if resume["completed_skipped"] else "FAIL",
    )
    table.add_row(
        "dead letter replayable",
        f"survived={replay['quarantine_survived_restart']}"
        f" recovered={replay['replay_recovered']}",
        "True",
        "PASS" if replay_ok else "FAIL",
    )
    emit("JN1", table, beside=args.output)

    payload = {
        "harness": "benchmarks/bench_journal_resume.py",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "fault_free": overhead,
        "kill_resume": resume,
        "dead_letter_replay": replay,
        "acceptance": {
            "max_overhead_pct": MAX_OVERHEAD_PCT,
            "overhead_pct": overhead["overhead_pct"],
            "overhead_passed": overhead_ok,
            "resume_passed": resume_ok,
            "replay_passed": replay_ok,
            "passed": overhead_ok and resume_ok and replay_ok,
        },
    }
    output = args.output or ROOT / "BENCH_journal.json"
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")

    if not overhead_ok:
        print(
            f"FAIL: fault-free journaled overhead {overhead['overhead_pct']:.2f}%"
            f" >= {MAX_OVERHEAD_PCT}%",
            file=sys.stderr,
        )
        return 1
    if not resume_ok:
        print(f"FAIL: kill-resume invariants violated: {resume}", file=sys.stderr)
        return 1
    if not replay_ok:
        print(f"FAIL: dead-letter replay invariants violated: {replay}", file=sys.stderr)
        return 1
    print(
        f"PASS: journaled overhead {overhead['overhead_pct']:.2f}%"
        f" (< {MAX_OVERHEAD_PCT}%); sweep of {resume['jobs']} jobs hard-killed"
        f" after {resume['completed_before_kill']} durable completions resumed"
        f" byte-identically with 0 re-executions of completed keys;"
        f" dead letter replayed after the fix"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
