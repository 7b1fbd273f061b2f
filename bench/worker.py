"""One workload, measured in one single-threaded child process.

``run.py`` launches this file once per measurement; it prints one JSON
object on its last line.  Three modes:

``--setup-only``
    import the program, build the workload up to "first operation
    issuable", exit.  The parent times the whole launch (``setup_s``).
``--trace 0``
    one untimed warm-up repetition, then timed repetitions of the *same
    seeded run* (fresh cluster each time) for ``--seconds``; reports the
    end-to-end metrics.  Tracing code is never imported.
``--trace 1``
    a few untraced repetitions (deterministic counters, CPU baseline),
    then traced repetitions with spans installed from ``spans.py``, then
    the layer calibrations and — for the open-loop workload — the rate
    ladder; reports the per-layer metrics.

Correctness is part of every repetition: an atomic verdict, every requested
operation completed, deterministic counters identical across repetitions
(and between traced and untraced ones), byte-identical CLI artefacts, both
checker probes flagged.  Any breach — or an exception — is reported with
its reason as ``correct: false`` with every attempted operation counted as
failed, never as a crash or a silently shorter run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional

from metrics import LADDER_RATES, PER_LAYER, fastest

#: Fewest timed repetitions, however slow the host.
MIN_REPETITIONS = 3


def _quartiles(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {"min": min(values), "q1": q1, "median": median, "q3": q3, "n": len(values)}


class Measurement:
    """Repetitions of one workload and what they establish."""

    def __init__(self, workload, seed: int, ops: int) -> None:
        self.workload = workload
        self.seed = seed
        self.ops = ops
        self.first = None  # the repetition every later one must equal
        self.problems: List[str] = []
        self.attempted = 0
        self.completed = 0
        self.build_s: List[float] = []

    def repeat(self, *, counted: bool = True) -> float:
        """Run one repetition; returns its CPU seconds."""
        # Untimed: free the previous repetition's cluster (a reference
        # cycle) so its memory and its collection are not charged to this
        # one.  The collector runs with its defaults inside the repetition.
        gc.collect()
        wall = time.perf_counter()
        cpu = time.process_time()
        ctx = self.workload.build(self.seed, self.ops)
        self.build_s.append(time.perf_counter() - wall)
        rep = self.workload.run(ctx)
        cpu = time.process_time() - cpu

        self.problems.extend(rep.problems)
        if rep.completed != rep.attempted:
            self.problems.append(
                f"{rep.attempted - rep.completed} of {rep.attempted} operations did not complete"
            )
        if self.first is None:
            self.first = rep
        elif rep.counters != self.first.counters:
            moved = sorted(
                key
                for key in {*rep.counters, *self.first.counters}
                if rep.counters.get(key) != self.first.counters.get(key)
            )
            self.problems.append(f"counters differ between repetitions: {moved}")
        if counted:
            self.attempted += rep.attempted
            self.completed += rep.completed
        return cpu

    def repeat_for(self, seconds: float, *, at_least: int) -> List[float]:
        """Timed repetitions until ``seconds`` of wall clock are used."""
        cpu_s: List[float] = []
        start = time.perf_counter()
        while True:
            cpu_s.append(self.repeat())
            elapsed = time.perf_counter() - start
            # Stop when half a repetition would overshoot the budget.
            if len(cpu_s) >= at_least and elapsed + 0.5 * elapsed / len(cpu_s) >= seconds:
                return cpu_s


def _end_to_end(m: Measurement, cpu_s: List[float]) -> Dict[str, float]:
    counters = m.first.counters
    completed = counters["completed"]
    return {
        "ops_per_cpu_s": completed / fastest(cpu_s),
        "sim_ms_per_op": counters["end_time"] / max(completed, 1),
        "completed_share": m.completed / m.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(numerator: Optional[float], denominator: Optional[float]) -> Optional[float]:
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _per_layer(
    m: Measurement,
    untraced_cpu: List[float],
    traced_cpu: List[float],
    traced_wall_s: float,
    recorder,
    calibration: Dict[str, Optional[float]],
    ladder: Optional[dict],
    import_s: float,
) -> Dict[str, Optional[float]]:
    import spans
    from workloads import slo_rate_max

    c = m.first.counters
    get = c.get
    ops = c["completed"]
    reads, writes = get("reads"), get("writes")
    traced_reps = len(traced_cpu)
    traced_ops = ops * traced_reps
    cpu = fastest(untraced_cpu)
    events_per_cpu_s = _ratio(get("events"), cpu)

    out: Dict[str, Optional[float]] = {m.name: None for m in PER_LAYER}
    out.update(
        {
            "sim_read_p50_ms": get("read_p50"),
            "sim_read_p99_ms": get("read_p99"),
            "sim_write_p50_ms": get("write_p50"),
            "sim_write_p99_ms": get("write_p99"),
            "storage_cost_peak": get("storage_peak"),
            "read_cost_mean": get("read_cost_mean"),
            "write_cost_mean": get("write_cost_mean"),
            "sim.events_per_op": _ratio(get("events"), ops),
            "sim.events_per_cpu_s": events_per_cpu_s,
            "sim.loop_efficiency": _ratio(
                events_per_cpu_s, calibration["sim.eventloop_events_per_s"]
            ),
            "core.storage_vs_theory": _ratio(get("storage_peak"), get("storage_theory")),
            "erasure.encoder_hit_ratio": _ratio(
                get("codec_encoder_hits"),
                get("codec_encoder_hits", 0) + get("codec_encoder_misses", 0),
            ),
            "erasure.decoder_hit_ratio": _ratio(
                get("codec_decoder_hits"),
                get("codec_decoder_hits", 0) + get("codec_decoder_misses", 0),
            ),
            "erasure.encode_batch_mean": _ratio(
                get("codec_encode_batcher_submitted"), get("codec_encode_batcher_flushes")
            ),
            "erasure.decode_batch_mean": _ratio(
                get("codec_decode_batcher_submitted"), get("codec_decode_batcher_flushes")
            ),
            "consistency.clusters_per_write": _ratio(get("checker_clusters"), writes),
            "consistency.merge_crossings_per_op": _ratio(get("merge_crossings"), ops),
            "consistency.max_resident": get("max_resident"),
            "analysis.artefact_bytes": get("artefact_bytes"),
            "runtime.cluster_build_s": statistics.median(m.build_s),
            "cli.import_s": import_s,
            "trace.overhead_ratio": fastest(traced_cpu) / cpu,
            "trace.coverage": recorder.coverage(),
        }
    )
    out.update(calibration)

    # Message counts come from the simulations the traced pass saw run
    # (the CLI workload builds its clusters out of the benchmark's reach).
    sent, _, dropped, metadata = recorder.network_totals()
    if sent:
        out["sim.msgs_per_op"] = sent / traced_ops
        out["sim.meta_msg_share"] = metadata / sent
        out["sim.msgs_dropped"] = dropped / traced_reps

    share = spans.shares(recorder, traced_wall_s)
    if share is None:
        # The trace missed messages: withhold every traced number.
        out.update({m.name: -1.0 for m in PER_LAYER if m.traced})
    else:
        out.update(share)
        by_type = recorder.sends_by_type_name()
        md_meta = by_type.pop("MDMeta", 0)
        md_value = by_type.pop("MDValueFull", 0) + by_type.pop("MDValueCoded", 0)
        handled = {
            layer: recorder.count(spans.DELIVER_PREFIX + layer) for layer in ("core", "baselines")
        }
        out.update(
            {
                "sim.send_calls_per_op": recorder.count(spans.SEND) / traced_ops,
                "core.handler_calls_per_op": handled["core"] / traced_ops,
                "baselines.handler_calls_per_op": handled["baselines"] / traced_ops,
                "core.md_meta_msgs_per_op": md_meta / traced_ops,
                "core.md_value_msgs_per_op": md_value / traced_ops,
                "core.client_msgs_per_op": sum(by_type.values()) / traced_ops,
                "erasure.encode_calls_per_write": _ratio(
                    recorder.count(spans.ENCODE) / traced_reps, writes
                ),
                "erasure.decode_calls_per_read": _ratio(
                    recorder.count(spans.DECODE) / traced_reps, reads
                ),
                "analysis.engine_overhead_share": _ratio(
                    recorder.inclusive(spans.CLI) - recorder.inclusive(spans.RUN),
                    recorder.inclusive(spans.CLI),
                ),
            }
        )

    if ladder is not None:
        out["slo_rate_max"] = slo_rate_max(ladder)
        for rate in LADDER_RATES:
            row = ladder[rate]
            out[f"runtime.p99_ms_r{rate}"] = row["all_p99"]
            out[f"runtime.max_queue_depth_r{rate}"] = row["max_queue_depth"]
            out[f"runtime.rejected_share_r{rate}"] = row["rejected"] / row["attempted"]
    return out


def measure(args: argparse.Namespace) -> dict:
    import_start = time.perf_counter()
    import workloads  # imports numpy and the program under test

    import_s = time.perf_counter() - import_start

    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.derive_seed(args.seed, workload.name)
    ops = workload.ops // 4 if args.quick else workload.ops
    if args.setup_only:
        workload.build(seed, ops)
        return {"ready": True}

    m = Measurement(workload, seed, ops)
    at_least = 1 if args.quick else MIN_REPETITIONS
    seconds = 0.0 if args.quick else args.seconds  # quick = one repetition
    if not args.quick:
        # Page faults and cold LRUs make a process's first repetition
        # 15-50% slow: run it, check it, but do not time it.
        m.repeat(counted=False)
    is_checker = isinstance(workload, workloads.CheckerWorkload)

    if not args.trace:
        cpu_s = m.repeat_for(seconds, at_least=at_least)
        metrics = _end_to_end(m, cpu_s)
        detail = {"cpu_s": _quartiles(cpu_s)}
    else:
        import calibrate
        import spans

        untraced_cpu = m.repeat_for(0.3 * seconds, at_least=1)
        recorder = spans.SpanRecorder()
        traced_wall = time.perf_counter()
        with spans.installed(recorder):
            traced_cpu = m.repeat_for(0.4 * seconds, at_least=1)
        traced_wall = time.perf_counter() - traced_wall

        scale = 10 if args.quick else 1
        calibration: Dict[str, Optional[float]] = {
            "sim.eventloop_events_per_s": calibrate.eventloop_events_per_s(200_000 // scale),
            "sim.send_path_msgs_per_s": calibrate.send_path_msgs_per_s(60_000 // scale),
        }
        if not is_checker:
            calibration.update(calibrate.codec_mb_per_s(workload, 8_000_000 // scale))
        ladder = None
        if isinstance(workload, workloads.ClusterWorkload) and workload.open_loop_rate:
            ladder = workload.ladder(seed, ops, m.first)
        metrics = _per_layer(
            m, untraced_cpu, traced_cpu, traced_wall, recorder, calibration, ladder, import_s
        )
        detail = {
            "untraced_cpu_s": _quartiles(untraced_cpu),
            "traced_cpu_s": _quartiles(traced_cpu),
            "spans": recorder.summary(),
            "sends_by_type": recorder.sends_by_type_name(),
            "ladder": ladder,
        }

    if is_checker:
        # After the timed repetitions and the memory reading: the probes
        # are a correctness check of the checker, not part of the workload.
        flagged = workload.probes_flagged(seed, args.quick)
        if flagged != 2:
            m.problems.append("the checker missed a seeded violation")
        if args.trace:
            metrics["consistency.probes_flagged"] = flagged
    detail["counters"] = m.first.counters
    return {
        "correct": not m.problems,
        "attempted": m.attempted,
        "failed": m.attempted - m.completed if not m.problems else m.attempted,
        "problems": sorted(set(m.problems)),
        "metrics": metrics,
        "detail": detail,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except Exception:  # the boundary: report the failure, do not crash the run
        result = {
            "correct": False,
            "attempted": 1,
            "failed": 1,
            "problems": [traceback.format_exc()],
            "metrics": {},
            "detail": {},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
