"""EN1 — the vectorized ensemble census harness.

Measures the lock-step ensemble backend (:mod:`repro.runtime.ensemble`)
against the compiled per-machine warm-runtime path over a busy-beaver
census — ``enumerate_machines`` families of the kind
:func:`repro.machines.busybeaver.halting_survey` sweeps — and writes
``BENCH_ensemble.json`` at the repo root.

Standalone, like the other harnesses:

    python benchmarks/bench_ensemble.py            # full census
    python benchmarks/bench_ensemble.py --smoke    # seconds, tiny census

Acceptance gates:

* **exactness, always**: the ensemble census (verdicts, sigma scores,
  step counts) must equal the compiled per-machine path result-for-
  result;
* **throughput**: at full size (a 10^4-machine family) the warm
  ensemble must beat the serial runtime baseline by >= 5x; smoke mode
  relaxes the ratio (tiny populations amortise less) but still fails
  if lock-step stops winning at all.

The cold leg (a fresh backend per call, lowering included) also
records the seconds its calls spend paused in the cyclic garbage
collector (``gc.callbacks``) and the process peak RSS through it; it
runs first, so that peak is its own.  GC time then shows as its own
number rather than charged to whichever call happened to allocate.

The cold leg re-sweeps the same machine objects, so anything cached
per machine object (``program_key``'s id memo) serves every repeat
after the first.  The fresh leg (ungated) times a fresh backend over a
freshly unpickled copy of the census per call, unpickled outside the
timed call, with its GC seconds: what a census of new machines pays.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import pickle
import platform
import resource
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))                 # _common
sys.path.insert(0, str(_HERE.parent / "src"))  # repro without installing

from _common import Table, emit  # noqa: E402

from repro.machines.busybeaver import enumerate_machines  # noqa: E402
from repro.runtime import run_jobs  # noqa: E402
from repro.runtime.ensemble import EnsembleBackend  # noqa: E402
from repro.runtime.workloads.busybeaver import BUSYBEAVER  # noqa: E402
from repro.util.timing import time_callable  # noqa: E402

ROOT = _HERE.parent

FULL_REQUIRED_SPEEDUP = 5.0
SMOKE_REQUIRED_SPEEDUP = 1.5


def census_jobs(smoke: bool) -> tuple[list, int]:
    """The census family: (jobs, fuel)."""
    if smoke:
        machines = enumerate_machines(4, 1_000, seed=42)
        return [(m, "") for m in machines], 128
    machines = enumerate_machines(5, 10_000, seed=42)
    return [(m, "") for m in machines], 256


class GCPauses:
    """Seconds spent in cyclic garbage collections while entered."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._start = 0.0

    def _hook(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start

    def __enter__(self) -> "GCPauses":
        gc.callbacks.append(self._hook)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self._hook)


def measure(smoke: bool, repeats: int) -> dict:
    jobs, fuel = census_jobs(smoke)

    def serial_census():
        return run_jobs(BUSYBEAVER, jobs, fuel=fuel, backend="serial")

    # Cold: a fresh backend per call, so every repeat pays the lowering.
    with GCPauses() as pauses:
        cold_s = time_callable(
            lambda: EnsembleBackend(BUSYBEAVER).execute(jobs, fuel=fuel),
            repeats=repeats, warmup=0,
        )
    cold_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Fresh: new machine objects per call, unpickled outside the timing.
    census = pickle.dumps(jobs)
    fresh_s, fresh_gc_s = math.inf, 0.0
    for _ in range(repeats):
        copies = pickle.loads(census)
        with GCPauses() as fresh_pauses:
            t0 = time.perf_counter()
            EnsembleBackend(BUSYBEAVER).execute(copies, fuel=fuel)
            fresh_s = min(fresh_s, time.perf_counter() - t0)
        fresh_gc_s += fresh_pauses.seconds / repeats
        del copies

    baseline = serial_census()
    baseline_s = time_callable(serial_census, repeats=repeats)

    backend = EnsembleBackend(BUSYBEAVER)
    cold = backend.execute(jobs, fuel=fuel)
    assert cold == baseline, "ensemble census diverged from the serial runtime"
    # Warm: the primed backend re-sweeps the same machine objects and
    # reruns its last family — the steady state of a census re-run
    # under a higher fuel bound.
    warm_s = time_callable(lambda: backend.execute(jobs, fuel=fuel), repeats=repeats)
    dispatch = dict(backend.last_dispatch)

    halted = sum(1 for r in baseline if r.halted)
    return {
        "population": len(jobs),
        "fuel": fuel,
        "halted": halted,
        "running": len(jobs) - halted,
        "baseline_seconds": baseline_s,
        "ensemble_cold_seconds": cold_s,
        "ensemble_cold_gc_seconds": pauses.seconds / repeats,
        "ensemble_cold_peak_rss_mb": cold_peak_rss_mb,
        "ensemble_fresh_seconds": fresh_s,
        "ensemble_fresh_gc_seconds": fresh_gc_s,
        "ensemble_warm_seconds": warm_s,
        "cold_speedup": baseline_s / cold_s,
        "warm_speedup": baseline_s / warm_s,
        "machines_per_second_warm": len(jobs) / warm_s,
        "dispatch": dispatch,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny census: exercises every gate except the full 5x ratio",
    )
    parser.add_argument(
        "--output",
        type=Path,
        help="write the JSON artifact here and the report table beside it"
        " (default: BENCH_ensemble.json at the repo root, the table under"
        " benchmarks/reports/)",
    )
    args = parser.parse_args(argv)
    required = SMOKE_REQUIRED_SPEEDUP if args.smoke else FULL_REQUIRED_SPEEDUP
    repeats = 1 if args.smoke else 3

    r = measure(args.smoke, repeats)

    table = Table(
        ["population", "fuel", "halted", "baseline s", "cold s", "cold gc s",
         "fresh s", "fresh gc s", "warm s", "cold speedup", "warm speedup"],
        caption="EN1: lock-step ensemble census vs the compiled per-machine"
        f" runtime ({'smoke' if args.smoke else 'full'} census)",
    )
    table.add_row(
        r["population"], r["fuel"], r["halted"], r["baseline_seconds"],
        r["ensemble_cold_seconds"], r["ensemble_cold_gc_seconds"],
        r["ensemble_fresh_seconds"], r["ensemble_fresh_gc_seconds"],
        r["ensemble_warm_seconds"], f"{r['cold_speedup']:.1f}x",
        f"{r['warm_speedup']:.1f}x",
    )
    emit("EN1", table, beside=args.output)

    passed = r["warm_speedup"] >= required
    payload = {
        "harness": "benchmarks/bench_ensemble.py",
        "mode": "smoke" if args.smoke else "full",
        "python": platform.python_version(),
        "census": r,
        "acceptance": {
            "required_warm_speedup": required,
            "warm_speedup": r["warm_speedup"],
            "exact_equal": True,           # asserted above, fatal otherwise
            "passed": passed,
        },
    }
    output = args.output or ROOT / "BENCH_ensemble.json"
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {output}")

    if not passed:
        print(
            f"FAIL: warm ensemble census managed {r['warm_speedup']:.2f}x"
            f" < required {required}x over the serial runtime",
            file=sys.stderr,
        )
        return 1
    print(
        f"PASS: {r['population']} machines x fuel {r['fuel']}:"
        f" warm {r['warm_speedup']:.1f}x (>= {required}x),"
        f" cold {r['cold_speedup']:.1f}x"
        f" ({r['ensemble_cold_gc_seconds']:.3f} s/call in GC,"
        f" peak RSS {r['ensemble_cold_peak_rss_mb']:.0f} MB),"
        f" fresh machines {r['ensemble_fresh_seconds']:.3f} s"
        f" ({r['ensemble_fresh_gc_seconds']:.3f} s/call in GC),"
        f" {r['machines_per_second_warm']:,.0f} machines/s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
