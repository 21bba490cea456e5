"""The ops report: one merged snapshot, rendered for a human.

The registry's :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` is
exact but shaped for machines; this module turns it into the page an
operator actually reads — per-workload throughput, chunk-latency
quantiles interpolated from the histogram buckets, queue depth, cache
effectiveness, supervision counts (retries / hedges / restarts /
quarantines), and per-worker utilisation from the telemetry deltas the
parent merged (:mod:`repro.obs.telemetry`).

:func:`render` is pure — snapshot dict in, text out — so it works on a
live registry, a JSON file written by an earlier run, or a test
fixture.  ``python -m repro.obs.report`` (the ``make obs-report``
target) renders either ``--snapshot FILE`` or a small built-in
supervised demo sweep run on the spot.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Mapping
from pathlib import Path

__all__ = ["render", "quantile", "main"]


def quantile(buckets: list, count: int, q: float) -> float | None:
    """Interpolate the q-quantile from cumulative ``(bound, count)`` pairs.

    Standard Prometheus ``histogram_quantile`` linear interpolation;
    the ``+Inf`` bucket clamps to the last finite bound (there is
    nothing to interpolate toward).  ``None`` for an empty histogram.
    """
    if count <= 0:
        return None
    target = q * count
    previous_bound = 0.0
    previous_cum = 0
    for bound, cum in buckets:
        if cum >= target:
            if bound == float("inf"):
                return previous_bound
            width = cum - previous_cum
            fraction = (target - previous_cum) / width if width else 1.0
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_cum = bound, cum
    return previous_bound


def _series(snapshot: Mapping, name: str) -> list[dict]:
    metric = snapshot.get(name)
    return list(metric["series"]) if metric else []


def _total(snapshot: Mapping, name: str) -> float:
    return sum(entry.get("value", 0) for entry in _series(snapshot, name))


def _label_str(labels: Mapping[str, str]) -> str:
    return " ".join(f"{k}={v}" for k, v in sorted(labels.items())) or "(all)"


def _fmt(value: float) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return str(int(value))


def render(snapshot: Mapping, *, postmortems: list[dict] | None = None) -> str:
    """A runtime-wide ops summary from one (merged) metrics snapshot."""
    lines: list[str] = ["== runtime ops report =="]

    # -- workloads: jobs / unique / cost per {workload, backend} ------------
    work_rows = _series(snapshot, "runtime_jobs_total")
    if work_rows:
        lines.append("")
        lines.append("-- workloads --")
        unique = {
            tuple(sorted(e["labels"].items())): e["value"]
            for e in _series(snapshot, "runtime_unique_jobs_total")
        }
        cost = {
            tuple(sorted(e["labels"].items())): e["value"]
            for e in _series(snapshot, "runtime_cost_total")
        }
        for entry in work_rows:
            key = tuple(sorted(entry["labels"].items()))
            lines.append(
                f"{_label_str(entry['labels'])}  jobs={_fmt(entry['value'])}"
                f" unique={_fmt(unique.get(key, 0))} cost={_fmt(cost.get(key, 0))}"
            )

    # -- chunk latency quantiles from the histogram -------------------------
    latency = _series(snapshot, "batch_chunk_seconds")
    if latency:
        lines.append("")
        lines.append("-- chunk latency (batch_chunk_seconds) --")
        for entry in latency:
            count = entry.get("count", 0)
            buckets = entry.get("buckets", [])
            p50 = quantile(buckets, count, 0.50)
            p99 = quantile(buckets, count, 0.99)
            mean = entry.get("sum", 0.0) / count if count else None
            lines.append(
                f"{_label_str(entry['labels'])}  chunks={count}"
                f" mean={_fmt(mean)}s p50={_fmt(p50)}s p99={_fmt(p99)}s"
            )

    # -- session scheduler (micro-batching lifecycle) -----------------------
    flush_rows = _series(snapshot, "runtime_flush_total")
    queue_age = _series(snapshot, "runtime_queue_age_seconds")
    inflight = _series(snapshot, "runtime_inflight_jobs")
    if flush_rows or queue_age or inflight:
        lines.append("")
        lines.append("-- scheduler --")
        if flush_rows:
            by_reason = {
                entry["labels"].get("reason", "?"): entry["value"]
                for entry in flush_rows
            }
            reasons = " ".join(
                f"{reason}={_fmt(value)}" for reason, value in sorted(by_reason.items())
            )
            lines.append(f"flushes: {reasons}")
        for entry in inflight:
            lines.append(
                f"{_label_str(entry['labels'])}  inflight_jobs={_fmt(entry['value'])}"
            )
        for entry in queue_age:
            count = entry.get("count", 0)
            buckets = entry.get("buckets", [])
            p50 = quantile(buckets, count, 0.50)
            p99 = quantile(buckets, count, 0.99)
            mean = entry.get("sum", 0.0) / count if count else None
            lines.append(
                f"queue age {_label_str(entry['labels'])}  jobs={count}"
                f" mean={_fmt(mean)}s p50={_fmt(p50)}s p99={_fmt(p99)}s"
            )

    # -- queue depth (last dispatch's plan) ---------------------------------
    depth = _series(snapshot, "batch_queue_depth")
    if depth:
        lines.append("")
        lines.append("-- queue depth --")
        for entry in depth:
            lines.append(f"{_label_str(entry['labels'])}  depth={_fmt(entry['value'])}")

    # -- cache effectiveness ------------------------------------------------
    hits = _series(snapshot, "compile_cache_hits_total")
    misses = {
        tuple(sorted(e["labels"].items())): e["value"]
        for e in _series(snapshot, "compile_cache_misses_total")
    }
    if hits or misses:
        lines.append("")
        lines.append("-- caches --")
        seen = set()
        for entry in hits:
            key = tuple(sorted(entry["labels"].items()))
            seen.add(key)
            h, m = entry["value"], misses.get(key, 0)
            ratio = h / (h + m) if h + m else 0.0
            lines.append(
                f"{_label_str(entry['labels'])}  hits={_fmt(h)} misses={_fmt(m)}"
                f" hit_ratio={ratio:.2f}"
            )
        for key, m in sorted(misses.items()):
            if key not in seen:
                lines.append(f"{_label_str(dict(key))}  hits=0 misses={_fmt(m)} hit_ratio=0.00")

    # -- dispatch mechanics -------------------------------------------------
    steals = _total(snapshot, "batch_steal_total")
    payload = _total(snapshot, "batch_payload_bytes")
    warm = _total(snapshot, "batch_warm_hits")
    if steals or payload or warm:
        lines.append("")
        lines.append("-- dispatch --")
        lines.append(
            f"steals={_fmt(steals)} payload_bytes={_fmt(payload)} warm_hits={_fmt(warm)}"
        )

    # -- journal (durable sweeps) -------------------------------------------
    journal_records = _series(snapshot, "journal_records_total")
    journal_hits = _total(snapshot, "journal_hits_total")
    journal_torn = _total(snapshot, "journal_torn_total")
    journal_replayed = _total(snapshot, "journal_replayed_total")
    if journal_records or journal_hits or journal_torn or journal_replayed:
        lines.append("")
        lines.append("-- journal --")
        by_kind = {
            entry["labels"].get("kind", "?"): entry["value"]
            for entry in journal_records
        }
        kinds = " ".join(
            f"{kind}={_fmt(value)}" for kind, value in sorted(by_kind.items())
        )
        lines.append(
            f"records: {kinds or '(none)'}  bytes={_fmt(_total(snapshot, 'journal_bytes_total'))}"
            f" fsyncs={_fmt(_total(snapshot, 'journal_fsyncs_total'))}"
        )
        lines.append(
            f"resume: hits={_fmt(journal_hits)} replayed={_fmt(journal_replayed)}"
            f" torn_tails={_fmt(journal_torn)}"
        )

    # -- comm (multi-node sharded sweeps) -----------------------------------
    comm_chunks = _series(snapshot, "comm_chunks_total")
    comm_nodes = _total(snapshot, "comm_nodes")
    if comm_chunks or comm_nodes:
        lines.append("")
        lines.append("-- comm --")
        lines.append(
            f"nodes={_fmt(comm_nodes)}"
            f" shards={_fmt(_total(snapshot, 'comm_shards_total'))}"
            f" node_restarts={_fmt(_total(snapshot, 'comm_node_restarts_total'))}"
            f" sent_bytes={_fmt(_total(snapshot, 'comm_bytes_sent_total'))}"
            f" recv_bytes={_fmt(_total(snapshot, 'comm_bytes_recv_total'))}"
        )
        total_chunks = sum(e["value"] for e in comm_chunks) or None
        for entry in sorted(comm_chunks, key=lambda e: e["labels"].get("node", "")):
            node = entry["labels"].get("node", "?")
            share = f" share={entry['value'] / total_chunks:.0%}" if total_chunks else ""
            lines.append(f"node={node}  chunks={_fmt(entry['value'])}{share}")

    # -- supervision --------------------------------------------------------
    retries = _total(snapshot, "batch_chunk_retries_total")
    hedges = _total(snapshot, "batch_hedged_total")
    restarts = _total(snapshot, "batch_pool_restarts_total")
    quarantined = _total(snapshot, "batch_quarantined_jobs")
    if retries or hedges or restarts or quarantined:
        lines.append("")
        lines.append("-- supervision --")
        lines.append(
            f"retries={_fmt(retries)} hedges={_fmt(hedges)}"
            f" pool_restarts={_fmt(restarts)} quarantined={_fmt(quarantined)}"
        )

    # -- per-worker utilisation (merged telemetry deltas) -------------------
    chunks = _series(snapshot, "runtime_worker_chunks_total")
    if chunks:
        lines.append("")
        lines.append("-- workers --")
        busy = {
            e["labels"].get("worker"): e["value"]
            for e in _series(snapshot, "runtime_worker_busy_seconds_total")
        }
        total_busy = sum(busy.values()) or None
        for entry in sorted(chunks, key=lambda e: e["labels"].get("worker", "")):
            worker = entry["labels"].get("worker", "?")
            seconds = busy.get(worker, 0.0)
            share = f" share={seconds / total_busy:.0%}" if total_busy else ""
            lines.append(
                f"worker={worker}  chunks={_fmt(entry['value'])}"
                f" busy={_fmt(seconds)}s{share}"
            )
        merged = _total(snapshot, "telemetry_deltas_merged_total")
        lines.append(f"telemetry deltas merged: {_fmt(merged)}")

    # -- post-mortems -------------------------------------------------------
    if postmortems:
        lines.append("")
        lines.append("-- post-mortems --")
        for record in postmortems:
            key = record.get("key") or "-"
            lines.append(f"reason={record.get('reason', '?')} key={key}")

    return "\n".join(lines) + "\n"


def _demo_snapshot() -> tuple[dict, list[dict]]:
    """Run a small supervised sweep with telemetry on; return what it saw."""
    from repro.machines.busybeaver import busy_beaver_machine
    from repro.machines.turing import binary_increment, copier, palindrome_checker
    from repro.obs.instrument import observed
    from repro.runtime.core import create_backend, run_jobs

    jobs = [
        (binary_increment(), "1" * 6),
        (palindrome_checker(), "abba"),
        (copier(), "101"),
        (busy_beaver_machine(3), ""),
    ] * 12
    with observed() as obs:
        backend = create_backend(
            "supervised", workload="machines", inner="process", workers=2
        )
        try:
            run_jobs("machines", jobs, fuel=2_000, backend=backend)
        finally:
            backend.close()
        postmortems = list(getattr(backend, "last_postmortems", ()))
    return obs.registry.snapshot(), postmortems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        help="render a registry snapshot JSON file instead of the demo sweep",
    )
    parser.add_argument(
        "--prometheus",
        action="store_true",
        help="also print the Prometheus text exposition",
    )
    args = parser.parse_args(argv)
    postmortems: list[dict] = []
    if args.snapshot is not None:
        snapshot = json.loads(args.snapshot.read_text())
    else:
        snapshot, postmortems = _demo_snapshot()
    sys.stdout.write(render(snapshot, postmortems=postmortems))
    if args.prometheus:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.merge(snapshot)
        from repro.obs.instrument import KNOWN_METRICS

        sys.stdout.write("\n")
        sys.stdout.write(
            registry.render_prometheus(
                help={name: doc for name, (_, doc) in KNOWN_METRICS.items()}
            )
        )
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
