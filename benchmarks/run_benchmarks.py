"""Benchmark runner: (re)generates and validates the committed BENCH_*.json.

Two artefacts track the repository's performance trajectory:

* ``BENCH_erasure.json`` — GF(2^8) kernel / Reed-Solomon codec throughput
  (see :mod:`bench_gf_kernels`), including the speedup over the seed
  (mask-based) kernels;
* ``BENCH_sim.json`` — discrete-event simulation throughput: the headline
  randomized SODA workload (events per wall-clock second), per-protocol
  rows for ABD/CAS/CASGC/SODA (``<proto>_events_per_s`` and the
  deterministic ``<proto>_completion_ratio``), event-loop microbenchmark
  rows (``eventloop_events_per_s`` / ``send_path_msgs_per_s`` /
  ``fanout_msgs_per_s`` / ``eventloop_cancel_ops_per_s`` — see
  :mod:`bench_event_loop`, gated tighter than the protocol rows),
  a checker-core microbenchmark row (``checker_ops_per_s`` — a
  pre-generated operation stream replayed straight into the checker, see
  :mod:`bench_checker`), a paper-sweep throughput
  row (``sweep_points_per_s``), a streaming-checker throughput row
  (``stream_ops_per_s``, the incremental atomicity checker over a
  bounded-memory recorder), real-cluster longrun rows
  (``longrun_ops_per_s`` / ``longrun_events_per_s`` wall rates plus the
  gated ``longrun_max_resident`` memory gauge — see
  :mod:`repro.analysis.engine`), multi-object namespace rows
  (``multiobj_ops_per_s`` / ``multiobj_events_per_s`` for an 8-register
  Zipf-skewed namespace run, plus the gated ``multiobj_max_resident``
  per-object recorder gauge), open-loop traffic rows
  (``openloop_ops_per_s`` wall rate plus the gated ``openloop_p99_ms``
  simulated p99 latency under Poisson load) and fleet-mode rows
  (``fleet_ops_per_s`` / ``fleet_events_per_s`` — the same 8-register
  namespace partitioned across spawned processes, rated against the
  per-epoch CPU critical path so the number is host-core-count
  independent, plus the gated ``fleet_max_resident`` residency ceiling —
  see :mod:`bench_fleet`).

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py            # full run,
        # rewrites BENCH_erasure.json / BENCH_sim.json at the repo root
    PYTHONPATH=src python benchmarks/run_benchmarks.py --quick    # CI smoke:
        # seconds-long measurement, validates the committed files' schema and
        # exits non-zero on a >2x throughput regression vs. the baseline

Both files share one schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "benchmark": "erasure" | "sim",
      "params":  {...numbers/strings describing the measured setup...},
      "results": {...metric name -> number...}
    }
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_checker import bench_checker  # noqa: E402
from bench_event_loop import bench_event_loop  # noqa: E402
from bench_fleet import bench_fleet  # noqa: E402
from bench_gf_kernels import bench_erasure  # noqa: E402

from repro.analysis.experiments import run_sweep  # noqa: E402
from repro.analysis.engine import run_experiment  # noqa: E402
from repro.baselines.registry import make_cluster  # noqa: E402
from repro.consistency.incremental import IncrementalAtomicityChecker  # noqa: E402
from repro.consistency.stream import StreamingRecorder  # noqa: E402
from repro.core.soda.cluster import SodaCluster  # noqa: E402
from repro.workloads.generator import StreamSpec, stream_operations  # noqa: E402
from repro.workloads.scenarios import WorkloadSpec, run_workload  # noqa: E402

SCHEMA_VERSION = 1

#: Protocols measured per-row in BENCH_sim.json (the Table I line-up).
SIM_PROTOCOLS = ("ABD", "CAS", "CASGC", "SODA")

#: Metrics gated against the committed baseline ("higher is better"); a
#: quick run falling below half the committed value fails CI.  The erasure
#: gate uses the table-vs-seed speedup ratio — both codecs run on the same
#: host, so the ratio is machine-independent, unlike raw MB/s measured on
#: the committer's machine.  The sim gate pairs one wall-clock rate (the
#: headline ``events_per_s``; 2x tolerance absorbs host variance) with the
#: deterministic completion ratios — the headline SODA workload plus one
#: per protocol row — which catch functional regressions on any hardware
#: and are independent of the quick/full workload size.  The remaining
#: rate rows (per-protocol ``*_events_per_s``, ``sweep_points_per_s``,
#: ``stream_ops_per_s``) are trajectory records, not gates: stacking more
#: absolute wall-clock gates would multiply the odds of a slow CI host
#: failing with no code change.  The checker-core row
#: (``checker_ops_per_s``) IS gated: it replays a pre-generated stream
#: with no simulation in the loop, so it is far less noisy than the
#: end-to-end rates and a 2x drop means the checker's flat core regressed.
GATED_METRICS = {
    "erasure": [
        "encode_speedup_vs_seed",
        "decode_speedup_vs_seed",
        "encode_decode_speedup_vs_seed",
        "stripe_encode_mb_per_s",
        "sodaerr_error_decode_mb_per_s",
    ],
    "sim": [
        "events_per_s",
        "completion_ratio",
        "eventloop_events_per_s",
        "send_path_msgs_per_s",
        "fanout_msgs_per_s",
        "checker_ops_per_s",
        "openloop_ops_per_s",
        "fleet_ops_per_s",
        "fleet_events_per_s",
    ]
    + [f"{proto.lower()}_completion_ratio" for proto in SIM_PROTOCOLS],
}
#: Per-metric regression factors overriding REGRESSION_FACTOR.  The
#: event-loop microbenchmark rows isolate the simulation core from
#: protocol logic and host-size effects, so they get a tighter gate: a
#: quick run below 70% of the committed value (>30% regression) fails CI.
GATED_METRIC_FACTORS = {
    "eventloop_events_per_s": 1 / 0.7,
    "send_path_msgs_per_s": 1 / 0.7,
    "fanout_msgs_per_s": 1 / 0.7,
    # The new erasure rows are raw wall-clock rates (unlike the
    # machine-independent *_vs_seed ratios), and stripe_encode additionally
    # takes the max over whatever GF backends build on the host.  A looser
    # 3x threshold rides out committer-vs-CI host speed differences while
    # still catching the failure modes these rows exist for: the native
    # backend silently not building, or the stripe fast path regressing
    # to the per-value loop (both are order-of-magnitude drops).
    "stripe_encode_mb_per_s": 3.0,
    "sodaerr_error_decode_mb_per_s": 3.0,
    # End-to-end wall-clock rate through the open-loop driver: same
    # host-speed caveat as the longrun rows, so gate loosely.
    "openloop_ops_per_s": 3.0,
    # The fleet capacity rows are CPU-time rates (core-count independent)
    # but still scale with the host's single-core speed, and each cell
    # pays spawn/import amortization in its CPU account.
    "fleet_ops_per_s": 3.0,
    "fleet_events_per_s": 3.0,
}
#: Memory-gauge gates ("lower is better"): the resident-record ceilings of
#: the streaming paths are deterministic functions of window + client
#: count, independent of workload size and host speed, so a quick run
#: exceeding the committed baseline by the regression factor means the
#: bounded-memory property itself regressed.
GATED_MEMORY_METRICS = {
    "erasure": [],
    "sim": [
        "stream_max_resident",
        "longrun_max_resident",
        "multiobj_max_resident",
        "fleet_max_resident",
    ],
}
#: Latency gates ("lower is better"): the open-loop p99 is measured in
#: *simulated* milliseconds, a deterministic function of the seed and the
#: cluster's message-delay model — host speed cannot move it, so a quick
#: run exceeding the committed tail by the regression factor means the
#: protocol's latency behaviour (or the admission path) itself regressed.
GATED_LATENCY_METRICS = {
    "erasure": [],
    "sim": [
        "openloop_p99_ms",
    ],
}
REGRESSION_FACTOR = 2.0


def _protocol_row(protocol: str, *, ops: int, seed: int) -> Dict[str, float]:
    """One per-protocol measurement: a small randomized workload."""
    extra = {"delta": 4} if protocol.upper() == "CASGC" else {}
    cluster = make_cluster(
        protocol, 5, 2, num_writers=2, num_readers=2, seed=seed, **extra
    )
    spec = WorkloadSpec(
        writes_per_writer=ops,
        reads_per_reader=ops,
        window=float(4 * ops),
        value_size=1024,
        seed=seed,
    )
    start = time.perf_counter()
    run_workload(cluster, spec)
    wall = time.perf_counter() - start
    scheduled = 4 * ops
    key = protocol.lower()
    return {
        f"{key}_events_per_s": cluster.sim.events_processed / wall,
        f"{key}_completion_ratio": cluster.history.completed_count / scheduled,
    }


def bench_sim(*, quick: bool = False, seed: int = 7) -> Dict[str, object]:
    """Simulation throughput: the headline SODA workload, per-protocol
    rows, a paper sweep and the streaming checker, all wall-clocked."""
    ops = 10 if quick else 40
    cluster = SodaCluster(
        n=5, f=2, num_writers=2, num_readers=2, seed=seed, initial_value=b"v0"
    )
    spec = WorkloadSpec(
        writes_per_writer=ops,
        reads_per_reader=ops,
        window=float(4 * ops),
        value_size=1024,
        seed=seed,
    )
    start = time.perf_counter()
    run_workload(cluster, spec)
    wall = time.perf_counter() - start
    events = cluster.sim.events_processed
    scheduled = 2 * ops + 2 * ops  # writes + reads across both client pairs
    completed = cluster.history.completed_count
    results = {
        "events": float(events),
        "wall_s": wall,
        "events_per_s": events / wall,
        "completed_operations": float(completed),
        "completion_ratio": completed / scheduled,
        "operations_per_s": completed / wall,
    }

    # Per-protocol rows (ABD/CAS/CASGC/SODA): same cluster shape, smaller
    # workload, one <proto>_events_per_s + <proto>_completion_ratio each.
    proto_ops = 4 if quick else 15
    for protocol in SIM_PROTOCOLS:
        results.update(_protocol_row(protocol, ops=proto_ops, seed=seed))

    # Event-loop microbenchmark rows: pure timer churn, send/deliver
    # churn, fan-out churn and cancel-heavy churn (see
    # bench_event_loop.py).  The first three carry a tighter CI gate
    # (>30% regression fails) because they isolate the simulation core
    # from protocol logic.
    results.update(bench_event_loop(quick=quick))

    # Checker-core microbenchmark row: a pre-generated operation stream
    # replayed straight into the checker (see bench_checker.py).  It
    # carries a CI gate: no simulation in the loop makes it stable enough.
    results.update(bench_checker(quick=quick, seed=seed))

    # Paper-sweep throughput: points of the E2 storage sweep per second.
    sweep_f_values = (1, 2) if quick else (1, 2, 3, 4)
    start = time.perf_counter()
    points = run_sweep("storage", seed=seed, values=sweep_f_values)
    results["sweep_points_per_s"] = len(points) / (time.perf_counter() - start)

    # Streaming-checker throughput: synthetic operations streamed through a
    # bounded recorder with the incremental atomicity checker subscribed.
    stream_ops = 5_000 if quick else 50_000
    recorder = StreamingRecorder(window=256)
    checker = recorder.subscribe(IncrementalAtomicityChecker())
    start = time.perf_counter()
    stream_stats = stream_operations(
        StreamSpec(operations=stream_ops, clients=16, seed=seed), recorder
    )
    stream_wall = time.perf_counter() - start
    if not checker.ok:  # pragma: no cover - would be a checker bug
        raise RuntimeError(f"streaming checker flagged violations: {checker.violations}")
    results["stream_ops_per_s"] = stream_stats.invoked / stream_wall
    results["stream_max_resident"] = float(recorder.max_resident)

    # Real-cluster streaming-checker throughput: a longrun (closed-loop
    # cluster simulation through bounded recorders, incremental checker
    # online, shard-merged verdict) measured end to end.  The residency
    # gauge is deterministic (window + clients) and gated; the rate row is
    # a trajectory record.
    longrun_ops = 1_500 if quick else 20_000
    report = run_experiment(
        "longrun",
        "SODA",
        ops=longrun_ops,
        epoch_ops=max(500, longrun_ops // 4),
        jobs=1,
        n=5,  # match the other sim rows' cluster shape
        f=2,
        seed=seed,
    )
    if not report.ok:  # pragma: no cover - would be a checker/protocol bug
        raise RuntimeError(
            f"longrun verdict reported violations: {report.verdict.violations}"
        )
    results["longrun_ops_per_s"] = report.ops_per_s
    results["longrun_events_per_s"] = report.events / report.wall_s
    results["longrun_max_resident"] = float(report.stream_max_resident)

    # Multi-object namespace throughput: 8 registers multiplexed over one
    # shared simulation, Zipf-skewed hot key, per-object bounded recorders
    # + online checkers, namespace verdict merged per object.  The
    # residency gauge (max over the per-object recorders) is deterministic
    # and gated; the rate row is a trajectory record.
    multiobj_ops = 1_000 if quick else 8_000
    multiobj_report = run_experiment(
        "multiobj-longrun",
        "SODA",
        ops=multiobj_ops,
        epoch_ops=max(500, multiobj_ops // 4),
        jobs=1,
        objects=8,
        key_dist="zipf:1.1",
        n=5,  # match the other sim rows' cluster shape
        f=2,
        seed=seed,
    )
    if not multiobj_report.ok:  # pragma: no cover - would be a checker bug
        raise RuntimeError(
            f"multiobj verdict reported violations: "
            f"{multiobj_report.verdict.violations()}"
        )
    results["multiobj_ops_per_s"] = multiobj_report.ops_per_s
    results["multiobj_events_per_s"] = (
        multiobj_report.events / multiobj_report.wall_s
    )
    results["multiobj_max_resident"] = float(multiobj_report.stream_max_resident)

    # Open-loop traffic rows: seeded Poisson arrivals through the bounded
    # admission queue, latency measured from arrival (queueing included)
    # into log-bucketed histograms.  The wall rate is gated loosely (host
    # speed); the p99 is in simulated ms — deterministic for the seed — so
    # it gates the protocol/admission latency behaviour itself.
    openloop_ops = 1_200 if quick else 12_000
    openloop_report = run_experiment(
        "openloop",
        "SODA",
        ops=openloop_ops,
        epoch_ops=max(400, openloop_ops // 4),
        jobs=1,
        arrival="poisson:2",
        policy="drop",
        n=5,  # match the other sim rows' cluster shape
        f=2,
        num_writers=8,
        num_readers=8,
        seed=seed,
    )
    results["openloop_ops_per_s"] = openloop_report.ops_per_s
    results["openloop_events_per_s"] = (
        openloop_report.events / openloop_report.wall_s
    )
    results["openloop_p99_ms"] = openloop_report.p99

    # Fleet-mode rows: the multiobj namespace partitioned across spawned
    # processes, one simulation per object, rated against the per-epoch
    # CPU critical path (see bench_fleet.py).  The capacity rows are
    # core-count independent; the residency gauge is deterministic and
    # gated like the other streaming-path ceilings.
    results.update(bench_fleet(quick=quick, seed=seed))

    return {
        "params": {
            "n": 5,
            "f": 2,
            "num_writers": 2,
            "num_readers": 2,
            "writes_per_writer": ops,
            "reads_per_reader": ops,
            "value_size_bytes": spec.value_size,
            "protocols": ",".join(SIM_PROTOCOLS),
            "protocol_ops_per_client": proto_ops,
            "sweep_points": len(sweep_f_values),
            "stream_operations": stream_ops,
            "longrun_operations": longrun_ops,
            "multiobj_operations": multiobj_ops,
            "multiobj_objects": 8,
            "multiobj_key_dist": "zipf:1.1",
            "openloop_operations": openloop_ops,
            "openloop_arrival": "poisson:2",
            "fleet_operations": 1_000 if quick else 8_000,
            "fleet_partitions": 4,
            "fleet_key_dist": "uniform",
            "seed": seed,
        },
        "results": results,
    }


def make_payload(benchmark: str, measurement: Dict[str, object]) -> Dict[str, object]:
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": benchmark,
        "params": measurement["params"],
        "results": measurement["results"],
    }


def validate_schema(payload: object, *, expected_benchmark: str) -> None:
    """Raise ``ValueError`` if ``payload`` is not a valid BENCH_*.json body."""
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"schema_version must be {SCHEMA_VERSION}, got {payload.get('schema_version')!r}"
        )
    if payload.get("benchmark") != expected_benchmark:
        raise ValueError(
            f"benchmark must be {expected_benchmark!r}, got {payload.get('benchmark')!r}"
        )
    for section in ("params", "results"):
        if not isinstance(payload.get(section), dict):
            raise ValueError(f"missing or non-object {section!r} section")
    for key, value in payload["results"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"results[{key!r}] must be a number, got {value!r}")


def check_regressions(
    benchmark: str, baseline: Dict[str, object], current: Dict[str, object]
) -> list:
    """Compare gated metrics; returns a list of failure strings."""
    failures = []

    def gate(metrics, *, lower_is_better: bool, suffix: str = "") -> None:
        for metric in metrics:
            base = baseline["results"].get(metric)
            now = current["results"].get(metric)
            if base is None or now is None:
                failures.append(f"{benchmark}: metric {metric!r} missing")
                continue
            factor = GATED_METRIC_FACTORS.get(metric, REGRESSION_FACTOR)
            if lower_is_better:
                bad = now > base * factor
                verb = "grew"
            else:
                bad = now * factor < base
                verb = "regressed"
            if bad:
                failures.append(
                    f"{benchmark}: {metric} {verb} >{factor:.2f}x "
                    f"(baseline {base:.2f}, current {now:.2f}){suffix}"
                )

    gate(GATED_METRICS[benchmark], lower_is_better=False)
    gate(
        GATED_MEMORY_METRICS[benchmark],
        lower_is_better=True,
        suffix=" — the streaming path's resident-memory bound regressed",
    )
    gate(
        GATED_LATENCY_METRICS[benchmark],
        lower_is_better=True,
        suffix=" — the open-loop latency tail regressed",
    )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: fast measurement, validate committed BENCH_*.json "
        "and fail on a >2x regression instead of rewriting the baselines",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=REPO_ROOT,
        help="where BENCH_*.json files live (default: repo root)",
    )
    parser.add_argument(
        "--dump-dir",
        type=Path,
        default=None,
        help="also write this run's measurements as BENCH_<name>.quick.json "
        "under the given directory (CI uploads them as artifacts when the "
        "regression gate fails, so the failing numbers are inspectable)",
    )
    args = parser.parse_args(argv)
    if args.dump_dir is not None:
        args.dump_dir.mkdir(parents=True, exist_ok=True)

    benchmarks = {
        "erasure": lambda: bench_erasure(quick=args.quick),
        "sim": lambda: bench_sim(quick=args.quick),
    }

    failures = []
    for name, runner in benchmarks.items():
        path = args.output_dir / f"BENCH_{name}.json"
        print(f"[bench] running {name} ({'quick' if args.quick else 'full'}) ...")
        payload = make_payload(name, runner())
        for metric in (
            GATED_METRICS[name]
            + GATED_MEMORY_METRICS[name]
            + GATED_LATENCY_METRICS[name]
        ):
            print(f"[bench]   {metric} = {payload['results'][metric]:.2f}")
        if args.dump_dir is not None:
            dump_path = args.dump_dir / f"BENCH_{name}.quick.json"
            dump_path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            print(f"[bench] dumped {dump_path}")
        if args.quick:
            if not path.exists():
                failures.append(f"{name}: committed baseline {path.name} is missing")
                continue
            try:
                baseline = json.loads(path.read_text())
                validate_schema(baseline, expected_benchmark=name)
            except ValueError as exc:
                failures.append(f"{name}: invalid baseline {path.name}: {exc}")
                continue
            failures.extend(check_regressions(name, baseline, payload))
        else:
            validate_schema(payload, expected_benchmark=name)
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            print(f"[bench] wrote {path}")

    if failures:
        for failure in failures:
            print(f"[bench] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[bench] OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
