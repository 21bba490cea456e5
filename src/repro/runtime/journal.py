"""Crash-durable job journal: the reflexive half of resumable sweeps.

Wing frames computational thinking as "prevention, protection, and
recovery from worst-case scenarios through redundancy, damage
containment, and error correction".  The runtime's worst case is a
hard crash (``kill -9``, OOM, power loss) mid-way through a
long-running sweep: until this module, everything not yet returned to
the caller was simply gone.

The design follows the two-systems split the supervisor already uses
(PAPERS.md): a **reflexive hot path** that only ever appends, and a
**deliberate recovery path** (:mod:`repro.faults.recovery`) that
replays, repairs and resumes.  Hot path, in this module:

* :class:`Journal` — an append-only log of framed JSON records in
  numbered segment files under one directory.  Each record is one
  line: an 18-byte ASCII header (``{length:08x} {crc:08x} ``) framing
  a compact JSON payload, then ``\\n``.  The CRC is over the payload
  bytes, so a torn write — a record half-flushed when the process
  died — is detected, never half-trusted.  Appends are buffered;
  :meth:`Journal.sync` (and every ``sync_every`` records) flushes and
  ``fsync``\\ s, so fault-free overhead stays inside the <10% budget
  gated by ``benchmarks/bench_journal_resume.py``.  Segments rotate at
  ``segment_bytes`` so recovery never has to swallow one giant file.

* :class:`JournaledBackend` — wraps any runtime backend behind the
  narrow waist (``backend="journaled:<inner>"``) and journals three
  record kinds keyed by a full-width content-key digest:

  - ``submitted`` — appended *and synced* before a commit batch is
    dispatched, so recovery knows what was in flight at a crash;
  - ``completed`` — the job's result, pickled, appended as the batch
    commits; a re-submitted sweep serves these keys from the journal
    memo with **zero re-executions** and byte-identical results;
  - ``dead_lettered`` — a quarantined poison job (the pickled job
    itself rides along, it is the rare record), so quarantine survives
    restarts and :meth:`JournaledBackend.replay_dead_letters` can
    re-execute it after a fix.

Composition order matters and reads left to right:
``"journaled:supervised:process"`` is a journal over a supervisor over
a warm pool — the journal sees the supervisor's ``None`` slots and
dead-letters them durably.  Recovery semantics live in
:mod:`repro.faults.recovery`; this module only appends and serves.
"""

from __future__ import annotations

import base64
import os
import pickle
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.instrument import OBS
from repro.runtime import core as _core
from repro.runtime import lifecycle as _lifecycle
from repro.runtime.workload import Job, Workload, get_workload
from repro.util.framing import HEADER_BYTES, encode_record, key_digest, scan_records

__all__ = [
    "HEADER_BYTES",
    "Journal",
    "JournalCorruption",
    "JournaledBackend",
    "ScanResult",
    "encode_frame",
    "journal_key",
    "scan_segment",
    "segment_paths",
]

_SEGMENT_GLOB = "seg-*.jnl"


class JournalCorruption(RuntimeError):
    """A journal frame failed validation somewhere recovery can't mend.

    Raised only by strict (non-scanning) paths; the recovery scan
    itself *never* raises for torn data — it truncates and warns.
    """


def journal_key(workload: Workload, job: Job, fuel: int) -> str:
    """Full-width digest identifying one job's answer.

    The key covers the workload kind, the adapter's ``content_key`` and
    the fuel bound — everything the result depends on.  Unlike the
    12-char trace digests, exactly-once dedup gets the whole sha1:
    serving a wrong result on a collision would be silent corruption.

    The key tuple is hashed by :func:`~repro.util.framing.key_digest`
    (a protocol-pinned pickle, stable across processes).
    """
    return key_digest((workload.kind, workload.content_key(job), fuel)).hex()


def _pack(obj: Any) -> str:
    """Pickle → base64 text, the JSON-safe carrier for results/jobs."""
    return base64.b64encode(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode(
        "ascii"
    )


def _unpack(text: str) -> Any:
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def encode_frame(record: dict) -> bytes:
    """One journal line: ``{len:08x} {crc:08x} {json}\\n``.

    The codec lives in :mod:`repro.util.framing` — the comm wire
    protocol frames its messages with the same implementation — and
    this name stays as the journal-facing alias.
    """
    return encode_record(record)


@dataclass
class ScanResult:
    """What one segment scan saw: the valid prefix and where it ended."""

    records: list[dict]
    good_bytes: int  #: offset of the first byte past the last valid frame
    torn: bool  #: True when trailing bytes after the valid prefix exist


def scan_segment(path: Path) -> ScanResult:
    """Decode the longest valid frame prefix of one segment.

    Tolerant by construction: a short header, a payload cut mid-write,
    a CRC mismatch, a missing newline or undecodable JSON all mean
    "the log ends here" — the scan stops at the last fully committed
    record and reports the tail as torn.  It never raises for torn
    data, which is the recovery invariant the torn-write property
    tests pin down byte by byte.
    """
    records, good_bytes, torn = scan_records(Path(path).read_bytes())
    return ScanResult(records=records, good_bytes=good_bytes, torn=torn)


def segment_paths(directory: Path | str) -> list[Path]:
    """The directory's journal segments, in append order."""
    return sorted(Path(directory).glob(_SEGMENT_GLOB))


class Journal:
    """The append-only writer over one directory of segments.

    Opening repairs the tail segment (truncate-and-warn on a torn
    frame) and continues appending after the last committed record —
    the writer-side half of crash recovery.  Nothing here reads
    history beyond what resuming the sequence number needs; state
    reconstruction is :func:`repro.faults.recovery.recover_journal`.
    """

    def __init__(
        self,
        directory: Path | str,
        *,
        segment_bytes: int = 1 << 20,
        sync_every: int = 64,
    ) -> None:
        if segment_bytes < 1:
            raise ValueError("segment_bytes must be >= 1")
        if sync_every < 1:
            raise ValueError("sync_every must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.sync_every = sync_every
        self.appends = 0
        self.fsyncs = 0
        self.bytes_written = 0
        self.torn_repaired = 0
        self._pending = 0
        self._file = None
        self._segment_index = 0
        self._segment_size = 0
        self._next_seq = 0
        self._open_tail()

    # -- tail management -----------------------------------------------------

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"seg-{index:08d}.jnl"

    def _open_tail(self) -> None:
        segments = segment_paths(self.directory)
        if not segments:
            self._start_segment(1)
            return
        tail = segments[-1]
        self._segment_index = int(tail.stem.split("-")[1])
        scan = scan_segment(tail)
        if scan.torn:
            dropped = tail.stat().st_size - scan.good_bytes
            warnings.warn(
                f"journal segment {tail.name}: torn tail, truncating"
                f" {dropped} uncommitted bytes after {len(scan.records)}"
                f" committed records",
                stacklevel=3,
            )
            self.torn_repaired += 1
            with open(tail, "r+b") as handle:
                handle.truncate(scan.good_bytes)
            if OBS.enabled:
                OBS.count("journal_torn_total")
                OBS.event(
                    "journal.torn_tail", segment=tail.name, dropped_bytes=dropped
                )
        # Resume the sequence from the newest record anywhere behind us.
        for path in reversed(segments):
            records = scan.records if path == tail else scan_segment(path).records
            if records:
                self._next_seq = int(records[-1].get("seq", len(records) - 1)) + 1
                break
        self._segment_size = scan.good_bytes
        if self._segment_size >= self.segment_bytes:
            self._start_segment(self._segment_index + 1)
        else:
            self._file = open(tail, "ab")

    def _start_segment(self, index: int) -> None:
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self.fsyncs += 1
            self._file.close()
        self._segment_index = index
        self._segment_size = 0
        self._file = open(self._segment_path(index), "ab")
        if OBS.enabled:
            OBS.count("journal_segments_total")

    # -- appending -----------------------------------------------------------

    def append(self, kind: str, key: str, **fields: Any) -> dict:
        """Buffer one record; returns it (with its ``seq`` assigned).

        Durability point: the record is *committed* only once a
        :meth:`sync` (explicit, or the ``sync_every`` auto-sync)
        returns.  A hard crash loses at most the unsynced suffix —
        which recovery detects as a torn tail, never as a phantom.
        """
        if self._file is None:
            raise ValueError("journal is closed")
        record = {"v": 1, "seq": self._next_seq, "kind": kind, "key": key, **fields}
        self._next_seq += 1
        frame = encode_frame(record)
        self._file.write(frame)
        self.appends += 1
        self.bytes_written += len(frame)
        self._segment_size += len(frame)
        self._pending += 1
        if OBS.enabled:
            with OBS.atomic():
                OBS.count("journal_records_total", kind=kind)
                OBS.count("journal_bytes_total", len(frame))
        if self._pending >= self.sync_every:
            self.sync()
        elif self._segment_size >= self.segment_bytes:
            self._start_segment(self._segment_index + 1)
        return record

    def append_submitted(self, key: str, *, fuel: int) -> dict:
        return self.append("submitted", key, fuel=fuel)

    def append_completed(self, key: str, result: Any) -> dict:
        return self.append("completed", key, result=_pack(result))

    def append_dead_lettered(
        self, key: str, job: Job, *, index: int, reason: str, fuel: int
    ) -> dict:
        return self.append(
            "dead_lettered", key, job=_pack(job), index=index, reason=reason, fuel=fuel
        )

    def sync(self) -> None:
        """Flush buffered appends and ``fsync`` — the durability barrier."""
        if self._file is None or self._pending == 0:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsyncs += 1
        self._pending = 0
        if OBS.enabled:
            OBS.count("journal_fsyncs_total")
        if self._segment_size >= self.segment_bytes:
            self._start_segment(self._segment_index + 1)

    def close(self) -> None:
        if self._file is None:
            return
        self.sync()
        self._file.close()
        self._file = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def stats(self) -> dict[str, int]:
        return {
            "appends": self.appends,
            "fsyncs": self.fsyncs,
            "bytes": self.bytes_written,
            "segments": self._segment_index,
            "torn_repaired": self.torn_repaired,
        }


class JournaledBackend:
    """A :class:`~repro.runtime.core.Backend` whose results survive it.

    ``inner`` is a backend name (resolved through
    :func:`repro.runtime.core.resolve_backend`, composites like
    ``"supervised:process"`` included) or any instance with
    ``execute``.  On construction the journal directory is recovered:
    completed results become the exactly-once memo, dead letters are
    remembered, torn tails are repaired.  ``execute`` then serves
    memoed keys without touching the inner backend at all and journals
    everything it does run, committing in ``commit_every``-job slices
    so a crash mid-sweep loses at most one slice of completions.

    Dead-lettered keys are served as ``None`` (quarantine survives the
    restart) until :meth:`replay_dead_letters` re-executes them after
    a fix and journals the recovered results.
    """

    name = "journaled"

    def __init__(
        self,
        inner: Any = "serial",
        *,
        journal_dir: Path | str,
        workload: Workload | str | None = None,
        commit_every: int = 64,
        segment_bytes: int = 1 << 20,
        sync_every: int = 64,
        **inner_kwargs: Any,
    ) -> None:
        if commit_every < 1:
            raise ValueError("commit_every must be >= 1")
        if isinstance(workload, str):
            workload = get_workload(workload)
        inner, _ = _core.resolve_backend(inner, workload=workload, **inner_kwargs)
        if not hasattr(inner, "execute"):
            raise TypeError(f"inner backend {inner!r} has no execute")
        self.inner = inner
        self.workload: Workload = (
            workload
            if workload is not None
            else getattr(inner, "workload", None) or get_workload("machines")
        )
        self.commit_every = commit_every
        # Deliberate path first: rebuild the memo before the writer
        # touches (repairs) the tail.
        from repro.faults.recovery import recover_journal

        self.recovered = recover_journal(journal_dir)
        self._memo: dict[str, Any] = dict(self.recovered.completed)
        self._dead: dict[str, dict] = dict(self.recovered.dead_letters)
        self.journal = Journal(
            journal_dir, segment_bytes=segment_bytes, sync_every=sync_every
        )
        self.last_cache_stats: dict[str, int] = dict(_core._ZERO_STATS)
        self.last_dispatch: dict[str, Any] = {}
        self.last_dead_letters: list[Any] = []
        if OBS.enabled:
            OBS.event(
                "journal.recovered",
                directory=str(self.journal.directory),
                records=len(self.recovered.records),
                completed=len(self._memo),
                dead_lettered=len(self._dead),
                in_flight=len(self.recovered.in_flight),
                torn_segments=self.recovered.torn_segments,
            )

    # -- lifecycle -----------------------------------------------------------

    def recover(self) -> None:
        recover = getattr(self.inner, "recover", None)
        if recover is not None:
            recover()

    def close(self) -> None:
        if not _lifecycle.enter_close(self):
            return
        self.journal.close()
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    # -- execution -----------------------------------------------------------

    def execute(self, jobs: Sequence[Job], *, fuel: int) -> list[Any]:
        from repro.faults.supervisor import DeadLetter

        self.last_cache_stats = dict(_core._ZERO_STATS)
        self.last_dispatch = {}
        self.last_dead_letters = []
        if not jobs:
            return []
        digests = [journal_key(self.workload, job, fuel) for job in jobs]
        out: list[Any] = [None] * len(jobs)
        served = dead_served = 0
        # Group the un-memoed slots by digest: duplicate content runs
        # (and journals) once, matching the runtime's interning.
        pending: dict[str, list[int]] = {}
        for i, digest in enumerate(digests):
            if digest in self._memo:
                out[i] = self._memo[digest]
                served += 1
            elif digest in self._dead:
                record = self._dead[digest]
                self.last_dead_letters.append(
                    DeadLetter(i, jobs[i], record.get("reason", "dead_lettered"))
                )
                dead_served += 1
            else:
                pending.setdefault(digest, []).append(i)
        if OBS.enabled and served:
            OBS.count(
                "journal_hits_total", served, workload=self.workload.kind
            )
        order = list(pending.items())
        appended = self.journal.appends
        commits = 0
        # The inner backend's counters, summed over this call's slices
        # only: a journal-served call dispatched nothing.
        dispatched = dict.fromkeys(("chunks", "steals", "payload_bytes", "memo_hits"), 0)
        try:
            for start in range(0, len(order), self.commit_every):
                batch = order[start : start + self.commit_every]
                commits += 1
                with OBS.span(
                    "journal.commit", commit=commits, jobs=len(batch)
                ):
                    self._commit(batch, jobs, out, dispatched, fuel=fuel)
            # The final slice's completions have no next barrier to ride;
            # make them durable before the results leave this call.
            self.journal.sync()
        finally:
            unique = len(set(digests))
            self.last_dispatch = {
                "jobs": len(jobs),
                "unique_jobs": unique,
                "deduped": len(jobs) - unique,
                **dispatched,
                "journal_hits": served,
                "journal_dead_hits": dead_served,
                "journal_commits": commits,
                "journal_records": self.journal.appends - appended,
            }
        return out

    def _commit(
        self,
        batch: list[tuple[str, list[int]]],
        jobs: Sequence[Job],
        out: list[Any],
        dispatched: dict[str, int],
        *,
        fuel: int,
    ) -> None:
        """One durable slice: journal intent, run, journal outcomes.

        The inner backend's counters for the slice are added into
        ``dispatched`` and ``last_cache_stats``, even when it raises.
        """
        from repro.faults.supervisor import DeadLetter

        # One barrier per slice: syncing the submitted records also
        # lands every *previous* slice's buffered completions, so a
        # kill during the dispatch below loses at most this one slice
        # of results — at half the fsyncs of a sync-per-outcome design.
        for digest, _ in batch:
            self.journal.append_submitted(digest, fuel=fuel)
        self.journal.sync()  # barrier: recovery will know these were in flight
        run_jobs = [jobs[slots[0]] for _, slots in batch]
        try:
            results = self.inner.execute(run_jobs, fuel=fuel)
        finally:
            inner = getattr(self.inner, "last_dispatch", None) or {}
            for name in dispatched:
                dispatched[name] += inner.get(name, 0)
            stats = getattr(self.inner, "last_cache_stats", None) or _core._ZERO_STATS
            total = self.last_cache_stats
            self.last_cache_stats = {
                "hits": total["hits"] + stats["hits"],
                "misses": total["misses"] + stats["misses"],
                "size": max(total["size"], stats["size"]),
            }
        report = getattr(self.inner, "last_report", None)
        letters = (
            {letter.index: letter for letter in report.quarantined}
            if report is not None and getattr(report, "quarantined", None)
            else {}
        )
        for pos, ((digest, slots), result) in enumerate(zip(batch, results)):
            if result is None:
                # A supervised inner reports why; anything else that
                # hands back a hole is quarantined all the same — a
                # ``completed None`` must never enter the memo.
                letter = letters.get(pos)
                reason = letter.reason if letter is not None else "missing_result"
                record = self.journal.append_dead_lettered(
                    digest, jobs[slots[0]], index=slots[0], reason=reason, fuel=fuel
                )
                self._dead[digest] = record
                for i in slots:
                    self.last_dead_letters.append(DeadLetter(i, jobs[i], reason))
            else:
                self.journal.append_completed(digest, result)
                self._memo[digest] = result
                for i in slots:
                    out[i] = result

    # -- deliberate recovery -------------------------------------------------

    def replay_dead_letters(self, *, fuel: int | None = None) -> dict[str, Any]:
        """Re-execute journaled dead letters through a fresh generation.

        For each dead-lettered record (the pickled job rides in it),
        restart the inner backend's pool, run the job again, and — on
        success — journal a ``completed`` record that *supersedes* the
        dead letter, so the fix is as durable as the failure was.
        Returns ``{digest: result}`` for the recovered jobs; jobs that
        die again stay dead-lettered.  Replays run at the fuel the dead
        letter recorded unless ``fuel`` overrides it — in which case
        the completion lands under the new fuel's key and the original
        dead letter stands (a different fuel is a different answer).
        """
        from repro.faults.recovery import replay_record_job

        if not self._dead:
            return {}
        self.recover()  # fresh generation for the retry
        recovered: dict[str, Any] = {}
        for digest, record in sorted(self._dead.items(), key=lambda kv: kv[1]["seq"]):
            job = replay_record_job(record)
            job_fuel = fuel if fuel is not None else int(record.get("fuel", 0)) or 10_000
            results = self.inner.execute([job], fuel=job_fuel)
            result = results[0] if results else None
            if result is None:
                continue  # still poison; the dead letter stands
            key = journal_key(self.workload, job, job_fuel)
            self.journal.append_completed(key, result)
            self._memo[key] = result
            if key == digest:
                recovered[digest] = result
        self.journal.sync()
        for digest in recovered:
            self._dead.pop(digest, None)
        if OBS.enabled and recovered:
            OBS.count("journal_replayed_total", len(recovered))
            OBS.event("journal.replayed", recovered=len(recovered))
        return recovered
