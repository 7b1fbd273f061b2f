"""(Re)capture the golden determinism fixtures in this directory.

Run only when a deliberate, reviewed semantic change to the simulation
core makes the committed fixtures stale:

    PYTHONPATH=src python tests/golden/capture_goldens.py

See README.md; the scenarios here must stay in lockstep with
tests/sim/test_golden_trace.py and tests/analysis/test_golden_longrun.py.
``paper_sweeps_seed0.json`` was written by this script at the last commit
that had the per-sweep wrapper functions and their registry, through them;
tests/analysis/test_experiments.py holds the table that replaced them to it.
``stream_tapes_seed0.json`` was written at the last commit whose streamed
history generator built three dicts and five closure draws per operation,
with that generator; tests/workloads/test_stream_tapes.py holds the
rewritten one to it.  ``table1_n6_seed0.txt`` was written at the last
commit whose Table I ran through the generator module's own scheduler and
result class; tests/analysis/test_tables.py holds the one scheduler to it.
``driver_stats_seed0.json`` was written at the last commit whose closed and
open loops were two drivers with a stats class each, and its
``{"float64": x}`` tags were later read as plain floats, once the open
loop stopped leaving numpy floats in its stats, and it was re-captured by
this script once more to gain the closed runs' zero admission fields;
tests/runtime/test_driver_stats.py holds the one driver to it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, fields, is_dataclass
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent

#: Streamed-history scenarios (mirrored by tests/workloads/test_stream_tapes.py):
#: name -> ``StreamSpec`` keywords.  The first is the ``checker-stream``
#: benchmark shape; each other row moves one knob off it.
_SHAPE = dict(clients=16, seed=0)
STREAM_TAPE_SPECS = {
    "checker-stream-20000": dict(_SHAPE, operations=20_000),
    "incomplete-0.1": dict(_SHAPE, operations=4_000, incomplete_fraction=0.1),
    "inject-stale": dict(_SHAPE, operations=4_000, inject="stale"),
    "inject-phantom": dict(_SHAPE, operations=4_000, inject="phantom"),
    "value-size-4": dict(_SHAPE, operations=4_000, value_size=4),
    "value-size-200": dict(_SHAPE, operations=4_000, value_size=200),
    "clients-3-reads-0.9": dict(_SHAPE, operations=4_000, clients=3, read_fraction=0.9),
}


class StreamTape:
    """A sink that keeps nothing but a SHA-256 over every event it is sent.

    Each ``invoke`` / ``respond`` / ``mark_failed`` call is hashed as the
    ``repr`` of its name and arguments (times exactly, values as bytes),
    whether the caller passed them positionally or by keyword.
    """

    def __init__(self) -> None:
        self.events = 0
        self._digest = hashlib.sha256()

    def _note(self, *event) -> None:
        self.events += 1
        self._digest.update(repr(event).encode() + b"\n")

    def invoke(self, op_id, kind, client, time, value=None):
        self._note("invoke", op_id, kind, client, time, value)

    def respond(self, op_id, time, value=None, tag=None):
        self._note("respond", op_id, time, value, tag)

    def mark_failed(self, op_id):
        self._note("mark_failed", op_id)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def stream_tape(name: str) -> dict:
    """Stream scenario ``name`` into a :class:`StreamTape`: its event count,
    ``StreamStats`` fields and tape digest."""
    from repro.workloads.generator import StreamSpec, stream_operations

    tape = StreamTape()
    stats = stream_operations(StreamSpec(**STREAM_TAPE_SPECS[name]), tape)
    return {"events": tape.events, "stats": asdict(stats), "sha256": tape.hexdigest()}

#: Driver-stats scenarios (mirrored by tests/runtime/test_driver_stats.py):
#: name -> cluster keywords (``objects`` makes it a MultiRegisterCluster),
#: client crashes (pid -> time) and ``run_streamed`` / ``run_open_loop``
#: keywords (an ``arrival`` makes it open-loop; specs as strings).
_OPEN = dict(
    operations=300, arrival="poisson:4", queue_per_server=1, op_timeout=3.0, seed=1
)
_SMALL = dict(n=5, f=2, num_writers=2, num_readers=2, seed=7)
DRIVER_STATS_RUNS = {
    # w1 and w2 die mid-operation (each fails an issued op, and the slot
    # goes to the next live client at its completion), r0 before its first
    # start; w2's and r0's next starts hand their slots on round-robin.
    # Live clients are often busy (the 0.25 retry).
    "closed-client-crash": dict(
        cluster=dict(n=5, f=2, num_writers=3, num_readers=3, seed=3),
        crash={"w1": 4.0, "r0": 0.0, "w2": 20.0},
        run=dict(operations=240, mean_gap=0.1, seed=5),
    ),
    "open-drop": dict(
        cluster=_SMALL, run=dict(_OPEN, policy="drop", keep_samples=True)
    ),
    "open-shed-reads": dict(cluster=_SMALL, run=dict(_OPEN, policy="shed-reads")),
    "open-backpressure": dict(
        cluster=_SMALL, run=dict(_OPEN, policy="backpressure", keep_samples=True)
    ),
    "namespace-closed-zipf": dict(
        cluster=dict(_SMALL, objects=4, seed=11),
        run=dict(operations=400, key_dist="zipf:1.1", seed=3),
    ),
    "namespace-open-zipf": dict(
        cluster=dict(_SMALL, objects=4, seed=11),
        run=dict(
            _OPEN, operations=400, arrival="poisson:3", key_dist="zipf:1.1",
            policy="shed-reads", keep_samples=True,
        ),
    ),
}

#: What a namespace run's stats answer besides their dataclass fields (the
#: allocation, the summed counters and the merged histograms); a name its
#: per-object stats do not have is left out.
_NAMESPACE_READS = (
    "allocation truncated arrived admitted issued completed failed rejected "
    "shed_reads timed_out writes reads queued_at_end stall_time read_latency "
    "write_latency samples"
).split()


def _jsonable(value):
    """``value`` as JSON; a numpy scalar as ``{"<type>": value}``, so that a
    field that changes between ``float`` and ``numpy.float64`` shows."""
    if hasattr(value, "to_jsonable"):
        return value.to_jsonable()
    if hasattr(value, "dtype"):
        return {type(value).__name__: value.item()}
    if is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    return value


def run_driver_scenario(name: str):
    """Build and run driver-stats scenario ``name``; return its stats."""
    from repro.baselines.registry import make_cluster
    from repro.runtime.namespace import MultiRegisterCluster
    from repro.workloads.arrivals import parse_arrival
    from repro.workloads.keyed import parse_key_dist

    scenario = DRIVER_STATS_RUNS[name]
    shape = dict(scenario["cluster"])
    if "objects" in shape:
        cluster = MultiRegisterCluster("SODA", **shape)
    else:
        cluster = make_cluster("SODA", **shape)
    for pid, at_time in scenario.get("crash", {}).items():
        cluster.failures.crash_at(pid, at_time)
    run = dict(scenario["run"])
    if "key_dist" in run:
        run["key_dist"] = parse_key_dist(run["key_dist"])
    if "arrival" in run:
        run["arrival"] = parse_arrival(run["arrival"])
        stats = cluster.run_open_loop(**run)
    else:
        stats = cluster.run_streamed(**run)
    return stats


def driver_stats(name: str) -> dict:
    """Run driver-stats scenario ``name``: every field of its stats, as JSON."""
    stats = run_driver_scenario(name)
    captured = _jsonable(stats)
    if "objects" in DRIVER_STATS_RUNS[name]["cluster"]:
        for read in _NAMESPACE_READS:
            try:
                captured[read] = _jsonable(getattr(stats, read))
            except AttributeError:
                continue
    return captured


def capture_driver_stats() -> None:
    rows = {name: driver_stats(name) for name in DRIVER_STATS_RUNS}
    (GOLDEN_DIR / "driver_stats_seed0.json").write_text(
        json.dumps({"runs": DRIVER_STATS_RUNS, "stats": rows}, indent=1) + "\n"
    )
    print(f"captured {len(rows)} driver stats")


#: Golden event-trace scenario (mirrored by tests/sim/test_golden_trace.py).
TRACE_SCENARIO = dict(
    protocol="SODA",
    n=5,
    f=2,
    num_writers=2,
    num_readers=2,
    seed=123,
    initial_value="golden",
    writes_per_writer=6,
    reads_per_reader=6,
    window=20.0,
    value_size=64,
    workload_seed=123,
)

#: Golden artefact scenarios, one or more per artefact kind (mirrored by
#: tests/analysis/test_golden_longrun.py): name -> (kind, protocol, params).
#: The name is the artefact stem the scenario writes under this directory.
ARTEFACT_SCENARIOS = {
    "longrun_soda_1200": (
        "longrun",
        "SODA",
        dict(ops=1200, epoch_ops=400, n=5, f=2, seed=11),
    ),
    "multiobj_soda_4x600": (
        "multiobj-longrun",
        "SODA",
        dict(
            ops=600, epoch_ops=200, objects=4, key_dist="zipf:1.1", n=5, f=2, seed=11
        ),
    ),
    "multiobj_soda_4x800": (
        "multiobj-longrun",
        "SODA",
        dict(
            # 4 KiB values: the checker digests them with SHA-256, the memo
            # finds reads by comparison, and the shard merge orders its
            # export by those digests.
            ops=800, epoch_ops=400, objects=4, key_dist="zipf:1.1", n=5, f=2,
            value_size=4096, seed=11,
        ),
    ),
    "openloop_soda_poisson_1x400": (
        "openloop",
        "SODA",
        dict(
            ops=400, epoch_ops=200, arrival="poisson:2", n=5, f=2,
            num_writers=4, num_readers=4, seed=11,
        ),
    ),
    "openloop_soda_burst_3x360": (
        "openloop",
        "SODA",
        dict(
            # Lossy on purpose: a 5-slot queue per object under shed-reads
            # with a queue timeout, so rejected/shed/timed-out are all > 0.
            ops=360, epoch_ops=180, objects=3, key_dist="zipf:1.1",
            arrival="burst:12:0.5:10:20", policy="shed-reads", queue_per_server=1,
            op_timeout=6.0, n=5, f=2, num_writers=1, num_readers=1, seed=11,
        ),
    ),
    "adversary_soda_2x600": (
        "adversary-longrun",
        "SODA",
        dict(
            ops=600, epoch_ops=300, objects=2,
            faults="withhold:1:8:20;partition:2:2:5", audit_rounds=30, seed=11,
        ),
    ),
    "adversary_soda_3x600": (
        "adversary-longrun",
        "SODA",
        dict(
            # Every fault leg at once: crash bursts, slow disks and the delay
            # adversary beside withholding and a partition.
            ops=600, epoch_ops=300, objects=3,
            faults=(
                "crash:1:1:9:0.1;slow:1:2;delayadv:4:1:20;"
                "withhold:1:5:20:2;partition:1:4:12"
            ),
            seed=11,
        ),
    ),
    "fleet_soda_4x240": (
        "fleet-longrun",
        "SODA",
        dict(
            ops=240, epoch_ops=120, fleet=2, objects=4, key_dist="zipf:1.1", n=5,
            seed=11,
        ),
    ),
    "fleet_openloop_soda_poisson_4x240": (
        "fleet-openloop",
        "SODA",
        dict(
            # Lossy on purpose (drop policy, 5-slot queues): rejected > 0, so
            # completed < arrived.
            ops=240, epoch_ops=120, fleet=2, objects=4, key_dist="zipf:1.1",
            arrival="poisson:8", policy="drop", queue_per_server=1, n=5,
            num_writers=1, num_readers=1, seed=11,
        ),
    ),
    "fleet_adversary_soda_4x240": (
        "fleet-adversary",
        "SODA",
        dict(
            ops=240, epoch_ops=120, fleet=2, objects=4, key_dist="zipf:1.1", n=6,
            seed=11,
        ),
    ),
}


def write_scenario(name: str, directory: Path, **scheduling):
    """Run artefact scenario ``name`` — under the given scheduling overrides
    (``jobs``, ``fleet``), neither of which may move a byte — and write its
    JSON+CSV under ``directory``; returns ``(report, json_path, csv_path)``."""
    from repro.analysis.engine import run_experiment, write_artefacts

    kind, protocol, params = ARTEFACT_SCENARIOS[name]
    report = run_experiment(kind, protocol, **{**params, **scheduling})
    return (report, *write_artefacts(report, directory))


def record_event_trace() -> list:
    from repro.core.soda.cluster import SodaCluster
    from repro.workloads.scenarios import WorkloadSpec, run_workload

    s = TRACE_SCENARIO
    cluster = SodaCluster(
        n=s["n"],
        f=s["f"],
        num_writers=s["num_writers"],
        num_readers=s["num_readers"],
        seed=s["seed"],
        initial_value=s["initial_value"].encode(),
        keep_message_trace=True,
    )
    trace: list = []
    cluster.sim.event_hook = lambda ev: trace.append([ev.time, ev.seq, ev.label])
    run_workload(
        cluster,
        WorkloadSpec(
            writes_per_writer=s["writes_per_writer"],
            reads_per_reader=s["reads_per_reader"],
            window=s["window"],
            value_size=s["value_size"],
            seed=s["workload_seed"],
        ),
    )
    return trace


def sweep_rows(name: str) -> list:
    """Paper sweep ``name`` at its table defaults, seed 0: its rows as dicts,
    NaN as ``None`` (JSON ``null``)."""
    from repro.analysis.experiments import run_sweep

    return [
        {
            key: None if isinstance(value, float) and math.isnan(value) else value
            for key, value in asdict(row).items()
        }
        for row in run_sweep(name, seed=0)
    ]


def table1_stdout() -> str:
    """What ``python -m repro.cli table1 --n 6 --seed 0`` prints on stdout."""
    import contextlib
    import io

    from repro.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["table1", "--n", "6", "--seed", "0"]) == 0
    return out.getvalue()


def capture_table1() -> None:
    (GOLDEN_DIR / "table1_n6_seed0.txt").write_text(table1_stdout())
    print("captured Table I")


def capture_stream_tapes() -> None:
    rows = {name: stream_tape(name) for name in STREAM_TAPE_SPECS}
    (GOLDEN_DIR / "stream_tapes_seed0.json").write_text(
        json.dumps({"specs": STREAM_TAPE_SPECS, "tapes": rows}, indent=1) + "\n"
    )
    print(f"captured {len(rows)} stream tapes")


def main() -> None:
    from repro.analysis.experiments import SWEEPS

    capture_stream_tapes()
    capture_table1()
    capture_driver_stats()

    (GOLDEN_DIR / "paper_sweeps_seed0.json").write_text(
        json.dumps({name: sweep_rows(name) for name in SWEEPS}, indent=1) + "\n"
    )
    print("captured paper sweeps")

    trace = record_event_trace()
    (GOLDEN_DIR / "golden_event_trace.json").write_text(
        json.dumps({"scenario": TRACE_SCENARIO, "events": trace}) + "\n"
    )
    print(f"captured event trace: {len(trace)} events")

    for name in ARTEFACT_SCENARIOS:
        report, json_path, csv_path = write_scenario(name, GOLDEN_DIR)
        assert json_path.stem == name, (json_path, name)
        assert report.ok, name
        print("captured:", json_path, csv_path)


if __name__ == "__main__":
    main()
