"""Names of the workloads and names, units and directions of every metric
the benchmark emits.

This module is the single source the runner, ``compare.py`` and the smoke
test read; ``BENCHMARK.json`` at the repository root must list exactly
these metrics, and workloads from among these (the smoke test checks both).

*End-to-end* metrics exist on every workload and carry the regression
bound the driver applies against the parent commit.  *Per-layer* metrics
have no driver bound.  Those flagged ``exact`` are deterministic functions
of the seed: ``compare.py`` lists any difference between two runs of the
same seed, and the protocol-level ones (bound 0 here) may not get worse at
all.  A per-layer metric that does not exist on a workload (no cluster, no
queue, ...) is ``None`` in the results file and ``0`` on the driver's
result line; a traced share whose trace did not see every message is
``-1`` there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

#: Every workload, in report order (``workloads.py`` defines them).
#: ``BENCHMARK.json`` lists four of them, the ones the driver runs and
#: bounds: its time limit covers all its runs of all listed workloads, and
#: a run must outlast the shared host's bursts of interference (tens of
#: seconds) to repeat — four workloads leave each run 25 s, seven left 10 s
#: and did not repeat.  The rest are measured by the report form only.
WORKLOAD_NAMES = (
    "soda-small",
    "soda-64k",
    "casgc-small",
    "soda-openloop",
    "namespace-zipf",
    "sodaerr-faults",
    "checker-stream",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "higher" | "lower"
    #: Share of the other run's value the metric may worsen by before
    #: compare.py (and, for end-to-end metrics, the driver) calls a breach.
    bound: Optional[float] = None
    #: Deterministic per seed: two runs of one seed and commit must agree.
    exact: bool = False
    #: Per-layer only: comes from traced spans (unreliable when coverage < 1).
    traced: bool = False


def fastest(samples: Sequence[float]) -> float:
    """The estimator behind every host-time metric.

    The samples (CPU seconds of repetitions, wall seconds of set-up
    launches) time identical work, and a shared host only ever adds time
    to it — in bursts that last tens of seconds and slow a repetition by
    up to 2x — so the fastest sample is the one the host disturbed least.
    Any quantile moves with the share of a run that a burst covers.
    """
    return min(samples)


END_TO_END: List[Metric] = [
    Metric("ops_per_cpu_s", "1/s", "higher", bound=0.20),
    Metric("sim_ms_per_op", "sim_ms", "lower", bound=0.15),
    Metric("completed_share", "ratio", "higher", bound=0.0),
    Metric("peak_rss_mb", "MiB", "lower", bound=0.10),
    Metric("setup_s", "s", "lower", bound=0.25),
]


def _exact(name: str, unit: str, better: str) -> Metric:
    return Metric(name, unit, better, exact=True)


def _protocol(name: str, unit: str, better: str) -> Metric:
    return Metric(name, unit, better, bound=0.0, exact=True)


def _traced(name: str, unit: str, better: str) -> Metric:
    return Metric(name, unit, better, traced=True)


#: The three open-loop ladder rates (arrivals per simulated ms).
LADDER_RATES = (2, 4, 6)

PER_LAYER: List[Metric] = [
    # Protocol-level results a user sees.  They do not exist on every
    # workload, so the contract keeps them out of END_TO_END; compare.py
    # still holds them to "no worse at all" on equal seeds.
    _protocol("sim_read_p50_ms", "sim_ms", "lower"),
    _protocol("sim_read_p99_ms", "sim_ms", "lower"),
    _protocol("sim_write_p50_ms", "sim_ms", "lower"),
    _protocol("sim_write_p99_ms", "sim_ms", "lower"),
    _protocol("storage_cost_peak", "value_units", "lower"),
    _protocol("read_cost_mean", "value_units/op", "lower"),
    _protocol("write_cost_mean", "value_units/op", "lower"),
    _protocol("slo_rate_max", "1/sim_ms", "higher"),
    # sim
    _exact("sim.events_per_op", "count/op", "lower"),
    _exact("sim.msgs_per_op", "count/op", "lower"),
    _exact("sim.meta_msg_share", "ratio", "lower"),
    _exact("sim.msgs_dropped", "count", "lower"),
    Metric("sim.events_per_cpu_s", "1/s", "higher"),
    _traced("sim.loop_self_share", "ratio", "lower"),
    _traced("sim.send_self_share", "ratio", "lower"),
    _traced("sim.send_calls_per_op", "count/op", "lower"),
    Metric("sim.eventloop_events_per_s", "1/s", "higher"),
    Metric("sim.send_path_msgs_per_s", "1/s", "higher"),
    Metric("sim.loop_efficiency", "ratio", "higher"),
    # core / baselines (protocol handlers)
    _traced("core.handler_self_share", "ratio", "lower"),
    _traced("core.handler_calls_per_op", "count/op", "lower"),
    _traced("baselines.handler_self_share", "ratio", "lower"),
    _traced("baselines.handler_calls_per_op", "count/op", "lower"),
    _traced("core.md_meta_msgs_per_op", "count/op", "lower"),
    _traced("core.md_value_msgs_per_op", "count/op", "lower"),
    _traced("core.client_msgs_per_op", "count/op", "lower"),
    _exact("core.storage_vs_theory", "ratio", "lower"),
    # erasure
    _traced("erasure.encode_self_share", "ratio", "lower"),
    _traced("erasure.decode_self_share", "ratio", "lower"),
    _traced("erasure.encode_calls_per_write", "count/op", "lower"),
    _traced("erasure.decode_calls_per_read", "count/op", "lower"),
    _exact("erasure.encoder_hit_ratio", "ratio", "higher"),
    _exact("erasure.decoder_hit_ratio", "ratio", "higher"),
    _exact("erasure.encode_batch_mean", "count", "higher"),
    _exact("erasure.decode_batch_mean", "count", "higher"),
    Metric("erasure.encode_mb_per_s", "MB/s", "higher"),
    Metric("erasure.decode_mb_per_s", "MB/s", "higher"),
    Metric("erasure.error_decode_mb_per_s", "MB/s", "higher"),
    # consistency
    _traced("consistency.record_self_share", "ratio", "lower"),
    _traced("consistency.merge_self_share", "ratio", "lower"),
    _exact("consistency.clusters_per_write", "count/op", "lower"),
    _exact("consistency.merge_crossings_per_op", "count/op", "lower"),
    _exact("consistency.max_resident", "count", "lower"),
    _exact("consistency.probes_flagged", "count", "higher"),
    # workloads
    _traced("workloads.generator_self_share", "ratio", "lower"),
    # runtime / cli / analysis
    Metric("runtime.cluster_build_s", "s", "lower"),
    Metric("cli.import_s", "s", "lower"),
    *(
        _exact(f"runtime.{stem}_r{rate}", unit, "lower")
        for rate in LADDER_RATES
        for stem, unit in (
            ("p99_ms", "sim_ms"),
            ("max_queue_depth", "count"),
            ("rejected_share", "ratio"),
        )
    ),
    _traced("analysis.engine_overhead_share", "ratio", "lower"),
    _exact("analysis.artefact_bytes", "B", "lower"),
    # validity of the traced rows
    Metric("trace.overhead_ratio", "ratio", "lower"),
    Metric("trace.coverage", "ratio", "higher"),
]

END_TO_END_NAMES = [m.name for m in END_TO_END]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
