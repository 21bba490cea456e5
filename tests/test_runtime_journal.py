"""Tests for the durable job journal: framing, segment lifecycle,
fsync batching, and the JournaledBackend's exactly-once resume."""

import json
import os
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import pytest

from repro.machines.turing import TMResult, binary_increment, copier, palindrome_checker
from repro.obs.instrument import observed
from repro.runtime import run_jobs
from repro.runtime.core import SerialBackend, create_backend
from repro.runtime.journal import (
    HEADER_BYTES,
    Journal,
    JournaledBackend,
    encode_frame,
    journal_key,
    scan_segment,
    segment_paths,
)
from repro.runtime.workloads.machines import MACHINES

REPO = Path(__file__).resolve().parent.parent
JOBS = [(binary_increment(), "1" * (i + 1)) for i in range(6)] + [
    (palindrome_checker(), "abba"),
    (copier(), "101"),
]
FUEL = 5_000
CLEAN = [machine.run(tape, fuel=FUEL) for machine, tape in JOBS]


class CountingBackend(SerialBackend):
    """A serial backend that counts the jobs it actually executes."""

    def __init__(self, workload=MACHINES):
        super().__init__(workload)
        self.executed = 0

    def execute(self, jobs, **kwargs):
        self.executed += len(jobs)
        return super().execute(jobs, **kwargs)


# -- framing -----------------------------------------------------------------


def test_frame_roundtrip():
    record = {"kind": "completed", "key": "ab" * 20, "seq": 7}
    frame = encode_frame(record)
    assert frame.endswith(b"\n")
    length = int(frame[:8], 16)
    crc = int(frame[9:17], 16)
    payload = frame[HEADER_BYTES : HEADER_BYTES + length]
    assert zlib.crc32(payload) == crc
    assert json.loads(payload) == record


def test_frame_is_one_line():
    # Newlines inside values are JSON-escaped, so one frame == one line.
    frame = encode_frame({"kind": "completed", "key": "a\nb"})
    assert frame.count(b"\n") == 1


def test_journal_key_covers_kind_content_and_fuel():
    job = JOBS[0]
    base = journal_key(MACHINES, job, 100)
    assert len(base) == 40
    assert journal_key(MACHINES, job, 100) == base
    assert journal_key(MACHINES, job, 200) != base
    assert journal_key(MACHINES, JOBS[1], 100) != base
    # Content, not identity: an equal machine decodes to the same key.
    clone = (binary_increment(), "1")
    assert journal_key(MACHINES, clone, 100) == base


# -- Journal writer ----------------------------------------------------------


def test_append_scan_roundtrip(tmp_path):
    with Journal(tmp_path) as journal:
        journal.append_submitted("k1", fuel=100)
        journal.append_completed("k1", TMResult(True, True, 3, "1", "halt"))
        journal.append("dead_lettered", "k2", reason="poison")
    [segment] = segment_paths(tmp_path)
    scan = scan_segment(segment)
    assert not scan.torn
    assert [r["kind"] for r in scan.records] == ["submitted", "completed", "dead_lettered"]
    assert [r["seq"] for r in scan.records] == [0, 1, 2]


def test_sync_batching(tmp_path):
    journal = Journal(tmp_path, sync_every=4)
    for i in range(11):
        journal.append("submitted", f"k{i}", fuel=1)
    assert journal.fsyncs == 2  # at records 4 and 8; 3 still buffered
    journal.sync()
    assert journal.fsyncs == 3
    journal.sync()  # nothing pending: no extra barrier
    assert journal.fsyncs == 3
    journal.close()


def test_segment_rotation(tmp_path):
    journal = Journal(tmp_path, segment_bytes=200, sync_every=1)
    for i in range(12):
        journal.append("submitted", f"key-{i:04d}", fuel=1)
    journal.close()
    segments = segment_paths(tmp_path)
    assert len(segments) > 1
    # Every record survives, in order, across the rotation.
    records = [r for path in segments for r in scan_segment(path).records]
    assert [r["seq"] for r in records] == list(range(12))


def test_sequence_resumes_across_reopen(tmp_path):
    with Journal(tmp_path) as journal:
        journal.append("submitted", "a", fuel=1)
        journal.append("submitted", "b", fuel=1)
    with Journal(tmp_path) as journal:
        record = journal.append("submitted", "c", fuel=1)
    assert record["seq"] == 2


def test_closed_journal_rejects_appends(tmp_path):
    journal = Journal(tmp_path)
    journal.close()
    with pytest.raises(ValueError):
        journal.append("submitted", "k", fuel=1)


def test_journal_validation(tmp_path):
    with pytest.raises(ValueError):
        Journal(tmp_path, segment_bytes=0)
    with pytest.raises(ValueError):
        Journal(tmp_path, sync_every=0)


def test_open_repairs_torn_tail(tmp_path):
    with Journal(tmp_path) as journal:
        journal.append("submitted", "good", fuel=1)
    [segment] = segment_paths(tmp_path)
    good = segment.stat().st_size
    with open(segment, "ab") as handle:
        handle.write(b"00000040 deadbeef {torn")
    with pytest.warns(UserWarning, match="torn tail"):
        journal = Journal(tmp_path)
    assert segment.stat().st_size == good
    assert journal.torn_repaired == 1
    journal.append("submitted", "next", fuel=1)  # appends continue cleanly
    journal.close()
    records = scan_segment(segment).records
    assert [r["key"] for r in records] == ["good", "next"]


# -- JournaledBackend --------------------------------------------------------


def test_first_run_matches_serial_and_journals_everything(tmp_path):
    backend = JournaledBackend(SerialBackend(MACHINES), journal_dir=tmp_path)
    try:
        assert backend.execute(JOBS, fuel=FUEL) == CLEAN
        summary = backend.last_dispatch
        assert summary["journal_hits"] == 0
        assert summary["journal_records"] == 2 * len(JOBS)  # submitted + completed
    finally:
        backend.close()


def test_resume_serves_from_journal_with_zero_reexecutions(tmp_path):
    first = JournaledBackend(SerialBackend(MACHINES), journal_dir=tmp_path)
    first.execute(JOBS, fuel=FUEL)
    first.close()

    inner = CountingBackend()
    resumed = JournaledBackend(inner, journal_dir=tmp_path)
    try:
        assert resumed.execute(JOBS, fuel=FUEL) == CLEAN
        assert inner.executed == 0  # the whole sweep came from the journal
        assert resumed.last_dispatch["journal_hits"] == len(JOBS)
        assert resumed.last_dispatch["journal_records"] == 0
    finally:
        resumed.close()


def test_resume_runs_only_the_new_jobs(tmp_path):
    first = JournaledBackend(SerialBackend(MACHINES), journal_dir=tmp_path)
    first.execute(JOBS[:4], fuel=FUEL)
    first.close()

    inner = CountingBackend()
    resumed = JournaledBackend(inner, journal_dir=tmp_path)
    try:
        assert resumed.execute(JOBS, fuel=FUEL) == CLEAN
        assert inner.executed == len(JOBS) - 4
    finally:
        resumed.close()


def test_different_fuel_is_a_different_answer(tmp_path):
    backend = JournaledBackend(CountingBackend(), journal_dir=tmp_path)
    try:
        backend.execute(JOBS[:2], fuel=FUEL)
        backend.execute(JOBS[:2], fuel=FUEL + 1)
        assert backend.inner.executed == 4  # no cross-fuel serving
    finally:
        backend.close()


def test_duplicate_jobs_execute_once(tmp_path):
    inner = CountingBackend()
    backend = JournaledBackend(inner, journal_dir=tmp_path)
    try:
        out = backend.execute([JOBS[0]] * 5, fuel=FUEL)
        assert out == [CLEAN[0]] * 5
        assert inner.executed == 1
        assert backend.last_dispatch["deduped"] == 4
    finally:
        backend.close()


def test_commit_every_slices_durably(tmp_path):
    backend = JournaledBackend(
        SerialBackend(MACHINES), journal_dir=tmp_path, commit_every=3
    )
    try:
        backend.execute(JOBS, fuel=FUEL)
        assert backend.last_dispatch["journal_commits"] == 3  # ceil(8/3)
        # One barrier per slice (it also lands the previous slice's
        # completions) plus the final end-of-batch sync.
        assert backend.journal.fsyncs == 4
    finally:
        backend.close()


def test_dispatch_summary_counts_only_this_calls_slices(tmp_path):
    jobs = JOBS[:6]  # one machine, six tapes
    backend = JournaledBackend("serial", journal_dir=tmp_path, commit_every=2)
    try:
        backend.execute(jobs, fuel=FUEL)
        # Three slices, one serial chunk each, over one shared cache:
        # the first job compiles, the other five reuse it.
        summary = backend.last_dispatch
        assert (summary["journal_commits"], summary["chunks"]) == (3, 3)
        assert backend.last_cache_stats == {"hits": 5, "misses": 1, "size": 1}
        # Served from the journal: two distinct jobs, nothing dispatched.
        a, b = jobs[0], jobs[1]
        assert backend.execute([a, a, b], fuel=FUEL) == [CLEAN[0], CLEAN[0], CLEAN[1]]
        summary = backend.last_dispatch
        assert summary["journal_hits"] == 3
        assert (summary["unique_jobs"], summary["deduped"]) == (2, 1)
        inner = [summary[k] for k in ("chunks", "steals", "payload_bytes", "memo_hits")]
        assert inner == [0, 0, 0, 0]
        assert backend.last_cache_stats == {"hits": 0, "misses": 0, "size": 0}
    finally:
        backend.close()


# Journals two jobs of a machine with two accept states, whose frozenset
# iterates in a different order under each of the hash seeds used below.
RESUME_CHILD = textwrap.dedent(
    """
    import json
    import sys
    from repro.machines.turing import TuringMachine
    from repro.runtime.journal import JournaledBackend

    machine = TuringMachine.from_rules(
        [("q0", "0", "even", "0", "R"), ("q0", "1", "odd", "1", "R")],
        initial="q0",
        accept=("even", "odd"),
    )
    backend = JournaledBackend("serial", journal_dir=sys.argv[1])
    try:
        backend.execute([(machine, "0"), (machine, "1")], fuel=100)
    finally:
        backend.close()
    print(json.dumps(backend.last_dispatch))
    """
)


def _journal_in_child(journal_dir, hash_seed):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, "-c", RESUME_CHILD, str(journal_dir)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_resume_under_another_hash_seed_serves_every_job(tmp_path):
    first = _journal_in_child(tmp_path, hash_seed=1)
    assert (first["journal_hits"], first["journal_records"]) == (0, 4)
    resumed = _journal_in_child(tmp_path, hash_seed=2)
    assert (resumed["journal_hits"], resumed["journal_records"]) == (2, 0)


def test_empty_batch(tmp_path):
    backend = JournaledBackend(SerialBackend(MACHINES), journal_dir=tmp_path)
    try:
        assert backend.execute([], fuel=FUEL) == []
    finally:
        backend.close()


def test_journaled_backend_validation(tmp_path):
    with pytest.raises(ValueError):
        JournaledBackend(SerialBackend(MACHINES), journal_dir=tmp_path, commit_every=0)
    with pytest.raises(ValueError):
        JournaledBackend(
            SerialBackend(MACHINES), journal_dir=tmp_path, workers=2
        )  # kwargs only for names
    with pytest.raises(TypeError):
        JournaledBackend(object(), journal_dir=tmp_path)


def test_composite_backend_names(tmp_path):
    backend = create_backend(
        "journaled:supervised:serial", workload="machines", journal_dir=tmp_path
    )
    try:
        assert backend.name == "journaled"
        assert backend.inner.name == "supervised"
        assert backend.inner.inner.name == "serial"
        assert backend.execute(JOBS, fuel=FUEL) == CLEAN
    finally:
        backend.close()


def test_unknown_composite_head_still_errors():
    with pytest.raises(ValueError, match="unknown wrapper prefix 'meteor'"):
        create_backend("meteor:serial", workload="machines")


def test_composite_conflicts_with_inner_kwarg(tmp_path):
    with pytest.raises(ValueError, match="conflicts"):
        create_backend(
            "journaled:serial", workload="machines", journal_dir=tmp_path, inner="process"
        )


def test_run_jobs_with_journaled_instance(tmp_path):
    backend = create_backend("journaled:serial", workload="machines", journal_dir=tmp_path)
    try:
        assert run_jobs("machines", JOBS, fuel=FUEL, backend=backend) == CLEAN
        assert run_jobs("machines", JOBS, fuel=FUEL, backend=backend) == CLEAN
        assert backend.last_dispatch["journal_hits"] == len(JOBS)
    finally:
        backend.close()


def test_journal_metrics_and_events_recorded(tmp_path):
    with observed() as obs:
        backend = JournaledBackend(SerialBackend(MACHINES), journal_dir=tmp_path)
        backend.execute(JOBS, fuel=FUEL)
        backend.close()
        resumed = JournaledBackend(SerialBackend(MACHINES), journal_dir=tmp_path)
        resumed.execute(JOBS, fuel=FUEL)
        resumed.close()
    registry = obs.registry
    assert registry.total("journal_records_total") == 2 * len(JOBS)
    assert registry.total("journal_hits_total") == len(JOBS)
    assert registry.total("journal_fsyncs_total") >= 2
    assert registry.total("journal_bytes_total") > 0
    names = [record["name"] for record in obs.flight.snapshot()]
    assert "journal.recovered" in names


def test_results_byte_identical_through_pickle_roundtrip(tmp_path):
    backend = JournaledBackend(SerialBackend(MACHINES), journal_dir=tmp_path)
    backend.execute(JOBS, fuel=FUEL)
    backend.close()
    resumed = JournaledBackend(SerialBackend(MACHINES), journal_dir=tmp_path)
    try:
        out = resumed.execute(JOBS, fuel=FUEL)
        import pickle

        assert [pickle.dumps(r) for r in out] == [pickle.dumps(r) for r in CLEAN]
    finally:
        resumed.close()
