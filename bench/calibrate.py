"""Short calibrations of single layers, run inside the traced child.

They time a layer's public functions alone (the bare event loop, the bare
send path, the codec at the workload's ``[n, k]`` and value size) in the
same process and minute as the traced repetitions, so a ratio such as
``sim.loop_efficiency`` = workload events per CPU-second / bare-loop events
per second cancels the host's speed: the bare rate moving means the host
or the loop changed, the ratio moving means protocol overhead changed.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.baselines.registry import make_cluster
from repro.erasure.mds import corrupt
from repro.sim.process import Process
from repro.sim.simulation import Simulation


def _cpu_rate(work: Callable[[], float]) -> float:
    """Units of work per CPU-second; ``work`` returns the units it did."""
    start = time.process_time()
    units = work()
    return units / max(time.process_time() - start, 1e-9)


def eventloop_events_per_s(events: int) -> float:
    """Self-rescheduling timers: schedule + heap pop + fire, no network."""
    sim = Simulation(seed=1)
    budget = [events]

    def tick() -> None:
        if budget[0] > 0:
            budget[0] -= 1
            sim.schedule(0.25, tick)

    for i in range(16):
        sim.schedule(0.001 * i, tick)

    def work() -> float:
        sim.run(max_events=events + 100)
        return sim.events_processed

    return _cpu_rate(work)


class _Echo(Process):
    def __init__(self, pid: str, peer: str, budget: list) -> None:
        super().__init__(pid)
        self.peer = peer
        self.budget = budget

    def on_message(self, sender, message) -> None:
        if self.budget[0] > 0:
            self.budget[0] -= 1
            self.send(self.peer, message)


def send_path_msgs_per_s(messages: int) -> float:
    """Process pairs echoing one payload: send, delay draw, deliver."""
    sim = Simulation(seed=2)
    budget = [messages]
    for p in range(4):
        a = sim.add_process(_Echo(f"a{p}", f"b{p}", budget))
        sim.add_process(_Echo(f"b{p}", f"a{p}", budget))
        sim.schedule(0.0, lambda a=a: a.send(a.peer, object()))

    def work() -> float:
        sim.run(max_events=2 * messages + 100)
        return sim.network.stats.messages_sent

    return _cpu_rate(work)


def codec_mb_per_s(workload, budget_bytes: int) -> Dict[str, Optional[float]]:
    """Encode / decode / error-decode throughput of the workload's code."""
    cluster = make_cluster(
        workload.protocol, workload.n, workload.f, **dict(workload.protocol_kwargs)
    )
    code = cluster.code
    size = workload.value_size
    # Small values are dominated by per-call cost, so cap their count too.
    count = min(4096, max(4, budget_bytes // size))
    values = [i.to_bytes(4, "big").ljust(size, b"\x5a") for i in range(count)]
    megabytes = count * size / 1e6

    coded: list = []
    decoded: list = []
    repaired: list = []

    def encode() -> float:
        coded.extend(code.encode_many(values))
        return megabytes

    def decode() -> float:
        decoded.extend(code.decode_many([elements[-code.k :] for elements in coded]))
        return megabytes

    rates: Dict[str, Optional[float]] = {
        "erasure.encode_mb_per_s": _cpu_rate(encode),
        "erasure.decode_mb_per_s": _cpu_rate(decode),
        "erasure.error_decode_mb_per_s": None,
    }
    errors = getattr(cluster, "e", 0)
    if errors:
        # k + 2e elements, e of them corrupted: the SODAerr read path.
        damaged = [
            [corrupt(el) if i < errors else el for i, el in enumerate(elements[: code.k + 2 * errors])]
            for elements in coded
        ]

        def error_decode() -> float:
            repaired.extend(code.decode_with_errors(d, max_errors=errors) for d in damaged)
            return megabytes

        rates["erasure.error_decode_mb_per_s"] = _cpu_rate(error_decode)
    if decoded != values or (errors and repaired != values):
        raise RuntimeError("codec calibration decoded a wrong value")
    return rates
