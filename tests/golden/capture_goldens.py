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
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
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
