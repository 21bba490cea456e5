"""Tests for the ops report: quantile interpolation, section
rendering from a fixture snapshot, and the CLI entry point."""

import json

from repro.obs.report import main, quantile, render


def test_quantile_empty_histogram():
    assert quantile([], 0, 0.5) is None
    assert quantile([(1.0, 0)], 0, 0.99) is None


def test_quantile_linear_interpolation():
    # 10 observations, all in (0, 1]: the median sits halfway up the
    # first bucket's span by linear interpolation.
    buckets = [(1.0, 10), (10.0, 10), (float("inf"), 10)]
    assert quantile(buckets, 10, 0.5) == 0.5
    # 4 below 0.1, 4 more below 1.0 -> p50 interpolates inside (0.1, 1].
    buckets = [(0.1, 4), (1.0, 8), (float("inf"), 8)]
    assert quantile(buckets, 8, 0.5) == 0.1


def test_quantile_inf_bucket_clamps_to_last_finite_bound():
    buckets = [(1.0, 1), (float("inf"), 10)]
    assert quantile(buckets, 10, 0.99) == 1.0


def _fixture_snapshot():
    return {
        "runtime_jobs_total": {
            "kind": "counter",
            "series": [
                {"labels": {"workload": "machines", "backend": "process"}, "value": 48}
            ],
        },
        "runtime_unique_jobs_total": {
            "kind": "counter",
            "series": [
                {"labels": {"workload": "machines", "backend": "process"}, "value": 4}
            ],
        },
        "runtime_cost_total": {
            "kind": "counter",
            "series": [
                {"labels": {"workload": "machines", "backend": "process"}, "value": 900}
            ],
        },
        "batch_chunk_seconds": {
            "kind": "histogram",
            "series": [
                {
                    "labels": {"backend": "process"},
                    "buckets": [[0.01, 2], [0.1, 8], [1.0, 8], [float("inf"), 8]],
                    "sum": 0.4,
                    "count": 8,
                }
            ],
        },
        "batch_queue_depth": {
            "kind": "gauge",
            "series": [{"labels": {"backend": "process"}, "value": 8}],
        },
        "compile_cache_hits_total": {
            "kind": "counter",
            "series": [{"labels": {"backend": "process"}, "value": 44}],
        },
        "compile_cache_misses_total": {
            "kind": "counter",
            "series": [{"labels": {"backend": "process"}, "value": 4}],
        },
        "batch_chunk_retries_total": {
            "kind": "counter",
            "series": [{"labels": {"kind": "WorkerCrash"}, "value": 2}],
        },
        "batch_quarantined_jobs": {
            "kind": "counter",
            "series": [{"labels": {}, "value": 1}],
        },
        "runtime_worker_chunks_total": {
            "kind": "counter",
            "series": [
                {"labels": {"worker": "101"}, "value": 5},
                {"labels": {"worker": "102"}, "value": 3},
            ],
        },
        "runtime_worker_busy_seconds_total": {
            "kind": "counter",
            "series": [
                {"labels": {"worker": "101"}, "value": 0.3},
                {"labels": {"worker": "102"}, "value": 0.1},
            ],
        },
        "telemetry_deltas_merged_total": {
            "kind": "counter",
            "series": [{"labels": {}, "value": 8}],
        },
    }


def test_render_sections_from_fixture():
    text = render(_fixture_snapshot())
    assert text.startswith("== runtime ops report ==")
    assert "-- workloads --" in text
    assert "backend=process workload=machines  jobs=48 unique=4 cost=900" in text
    assert "-- chunk latency (batch_chunk_seconds) --" in text
    assert "chunks=8" in text and "p50=" in text and "p99=" in text
    assert "-- queue depth --" in text
    assert "depth=8" in text
    assert "-- caches --" in text
    assert "hits=44 misses=4 hit_ratio=0.92" in text
    assert "-- supervision --" in text
    assert "retries=2" in text and "quarantined=1" in text
    assert "-- workers --" in text
    assert "worker=101  chunks=5" in text and "share=75%" in text
    assert "telemetry deltas merged: 8" in text
    assert text.endswith("\n")


def test_render_comm_section():
    snapshot = {
        "comm_chunks_total": {
            "kind": "counter",
            "series": [
                {"labels": {"node": "0"}, "value": 3},
                {"labels": {"node": "1"}, "value": 1},
            ],
        },
        "comm_nodes": {"kind": "gauge", "series": [{"labels": {}, "value": 2}]},
        "comm_shards_total": {"kind": "counter", "series": [{"labels": {}, "value": 2}]},
        "comm_node_restarts_total": {
            "kind": "counter",
            "series": [{"labels": {}, "value": 1}],
        },
        "comm_bytes_sent_total": {
            "kind": "counter",
            "series": [{"labels": {}, "value": 2048}],
        },
        "comm_bytes_recv_total": {
            "kind": "counter",
            "series": [{"labels": {}, "value": 1024}],
        },
    }
    text = render(snapshot)
    assert "-- comm --" in text
    assert "nodes=2 shards=2 node_restarts=1 sent_bytes=2048 recv_bytes=1024" in text
    assert "node=0  chunks=3 share=75%" in text
    assert "node=1  chunks=1 share=25%" in text


def test_render_dispatch_section():
    snapshot = {
        "batch_steal_total": {
            "kind": "counter",
            "series": [{"labels": {"backend": "process"}, "value": 3}],
        },
        "batch_payload_bytes": {
            "kind": "counter",
            "series": [{"labels": {"backend": "process"}, "value": 4096}],
        },
        "batch_warm_hits": {
            "kind": "counter",
            "series": [{"labels": {"backend": "process"}, "value": 7}],
        },
    }
    lines = render(snapshot).splitlines()
    at = lines.index("-- dispatch --")
    assert lines[at + 1] == "steals=3 payload_bytes=4096 warm_hits=7"


def test_dist_sweep_emits_comm_metrics_into_the_report():
    """End to end: an observed loopback dist sweep produces a report
    with a comm section driven by real per-node counters."""
    from repro.machines.turing import binary_increment, palindrome_checker
    from repro.obs.instrument import observed
    from repro.runtime.core import create_backend, run_jobs

    jobs = [
        (binary_increment(), "1011"),
        (palindrome_checker(), "abba"),
        (binary_increment(), "111"),
        (palindrome_checker(), "aba"),
    ]
    with observed() as obs:
        backend = create_backend(
            "dist",
            workload="machines",
            nodes=2,
            topology="single_node",
            workers_per_node=0,
        )
        try:
            run_jobs("machines", jobs, fuel=5_000, backend=backend)
        finally:
            backend.close()
    text = render(obs.registry.snapshot())
    assert "-- comm --" in text
    assert "nodes=2" in text
    assert "node=" in text and "chunks=" in text


def test_render_postmortem_section():
    text = render({}, postmortems=[{"reason": "quarantine", "key": "abc"}])
    assert "-- post-mortems --" in text
    assert "reason=quarantine key=abc" in text


def test_render_empty_snapshot_is_just_the_header():
    assert render({}) == "== runtime ops report ==\n"


def test_cli_renders_a_snapshot_file(tmp_path, capsys):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(_fixture_snapshot()))
    assert main(["--snapshot", str(path)]) == 0
    out = capsys.readouterr().out
    assert "== runtime ops report ==" in out
    assert "-- workers --" in out


def test_cli_prometheus_flag(tmp_path, capsys):
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(_fixture_snapshot()))
    assert main(["--snapshot", str(path), "--prometheus"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE runtime_jobs_total counter" in out
    assert "# HELP runtime_jobs_total" in out  # KNOWN_METRICS docs flow through
