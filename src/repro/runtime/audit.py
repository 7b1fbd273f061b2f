"""Availability-sampling audit reads.

A full read costs a majority round-trip plus ``k`` relayed coded elements;
detecting that a register has silently become unrecoverable (fewer than
``k`` coded elements reachable, e.g. because servers withhold their
elements) should cost far less.  The audit pool runs cheap probabilistic
probes in the style of data-availability sampling (SNIPPETS.md §1): each
round an :class:`AuditClient` probes a random ``sample`` of the ``n``
servers, counts which of them still serve element-bearing traffic, and
maintains a per-server *consecutive-miss streak*.  A server whose streak
reaches ``confirm`` is a **suspect**; the surviving-element estimate is
``n - |suspects|``, and the register is flagged **unrecoverable** while
the estimate sits below ``k``.

The confirmation streak is what gives the configurable confidence: one
missed probe can be bad luck (the probe or its reply raced a partition
heal), but ``confirm`` consecutive misses of the same server are
vanishingly unlikely unless the server really is unreachable or
withholding — probe replies ride the same network as protocol traffic and
are subject to the same adversaries (:mod:`repro.workloads.faults`: a
withholding server's ``AuditProbeResponse`` is dropped, a partition drops
both directions, crashed servers never answer).

Servers need no audit-specific code: protocol servers silently ignore
unknown message types, and the :class:`AuditPool` answers probes on their
behalf from a network delivery listener — the request must *reach* a live
server and the reply must *survive the trip back*, which is exactly the
reachability property being estimated.  Probes carry ``data_units = 0``
so audit traffic never perturbs the paper's communication-cost metrics.

Audit rounds are bounded (``rounds`` per client) so a simulation with an
audit pool still quiesces once foreground traffic drains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.network import MessageRecord, ProcessId
from repro.sim.process import Process
from repro.sim.simulation import Simulation

__all__ = [
    "AuditProbeRequest",
    "AuditProbeResponse",
    "AuditConfig",
    "AuditReport",
    "AuditClient",
    "AuditPool",
]


@dataclass(frozen=True)
class AuditProbeRequest:
    """One availability probe; answered on the server's behalf by the pool."""

    probe_id: int
    reply_to: ProcessId
    data_units = 0.0


@dataclass(frozen=True)
class AuditProbeResponse:
    """A probe reply; withheld/dropped exactly like a coded-element relay."""

    probe_id: int
    server: ProcessId
    data_units = 0.0


@dataclass(frozen=True)
class AuditConfig:
    """Tuning knobs for the audit client pool.

    ``sample`` servers are probed per round, rounds start every
    ``interval`` time units (first one at ``start``), a probe unanswered
    after ``timeout`` counts as a miss, and a server is suspected after
    ``confirm`` consecutive missed rounds.  ``rounds`` bounds the total
    number of rounds per client so the simulation quiesces.
    """

    sample: int = 4
    interval: float = 2.5
    timeout: float = 2.0
    confirm: int = 2
    rounds: int = 80
    start: float = 1.0

    def __post_init__(self) -> None:
        if self.sample < 1:
            raise ValueError("audit sample size must be at least 1")
        if not self.interval > 0:
            raise ValueError("audit interval must be positive")
        if not 0 < self.timeout <= self.interval:
            raise ValueError(
                "audit timeout must be positive and at most the interval "
                "(rounds must not overlap)"
            )
        if self.confirm < 1:
            raise ValueError("audit confirmation streak must be at least 1")
        if self.rounds < 1:
            raise ValueError("audit rounds must be at least 1")
        if self.start < 0:
            raise ValueError("audit start time must be non-negative")


@dataclass(frozen=True)
class AuditReport:
    """What one object's audit client observed over the run."""

    object_index: int
    rounds: int
    probes_sent: int
    responses: int
    min_estimate: int
    flagged: bool
    first_flagged_at: Optional[float]
    flag_events: int
    last_cleared_at: Optional[float]
    unrecoverable_at_end: bool

    def to_jsonable(self) -> Dict[str, object]:
        return {
            "object": self.object_index,
            "rounds": self.rounds,
            "probes_sent": self.probes_sent,
            "responses": self.responses,
            "min_estimate": self.min_estimate,
            "flagged": self.flagged,
            "first_flagged_at": self.first_flagged_at,
            "flag_events": self.flag_events,
            "last_cleared_at": self.last_cleared_at,
            "unrecoverable_at_end": self.unrecoverable_at_end,
        }


class AuditClient(Process):
    """Background prober estimating one object's surviving element count."""

    def __init__(
        self,
        pid: ProcessId,
        server_ids: Sequence[ProcessId],
        k: int,
        config: AuditConfig,
        rng: np.random.Generator,
        *,
        object_index: int = 0,
    ) -> None:
        super().__init__(pid)
        if k > len(server_ids):
            raise ValueError(f"k={k} exceeds the server count {len(server_ids)}")
        self.servers: List[ProcessId] = list(server_ids)
        self.k = k
        self.config = config
        self.object_index = object_index
        self._rng = rng
        self._round = 0
        self._pending: Dict[int, ProcessId] = {}
        self._probed: List[ProcessId] = []
        self._streak: Dict[ProcessId, int] = {pid: 0 for pid in self.servers}
        self._suspects: set = set()
        self._next_probe_id = 0
        self.probes_sent = 0
        self.responses = 0
        self.min_estimate = len(self.servers)
        self.unrecoverable = False
        self.first_flagged_at: Optional[float] = None
        self.flag_events = 0
        self.last_cleared_at: Optional[float] = None

    def start(self) -> None:
        """Arm the first probe round (call after the process is attached)."""
        self.set_timer(
            self.config.start, self._probe_round, label=f"audit-start@{self.pid}"
        )

    # -- probing ---------------------------------------------------------
    def _probe_round(self) -> None:
        if self._round >= self.config.rounds:
            return
        self._round += 1
        count = min(self.config.sample, len(self.servers))
        chosen = self._rng.choice(len(self.servers), size=count, replace=False)
        self._pending = {}
        self._probed = []
        for idx in sorted(int(i) for i in chosen):
            server = self.servers[idx]
            probe_id = self._next_probe_id
            self._next_probe_id += 1
            self._pending[probe_id] = server
            self._probed.append(server)
            self.probes_sent += 1
            self.send(server, AuditProbeRequest(probe_id=probe_id, reply_to=self.pid))
        self.set_timer(
            self.config.timeout, self._evaluate, label=f"audit-eval@{self.pid}"
        )
        self.set_timer(
            self.config.interval, self._probe_round, label=f"audit-round@{self.pid}"
        )

    def on_message(self, sender: ProcessId, message: object) -> None:
        if isinstance(message, AuditProbeResponse):
            # Late replies (after the round's evaluation) are ignored; with
            # timeout >= the network's round-trip bound they only occur for
            # servers that really were unreachable at probe time.
            if self._pending.pop(message.probe_id, None) is not None:
                self.responses += 1

    # -- estimation ------------------------------------------------------
    def _evaluate(self) -> None:
        missed = set(self._pending.values())
        self._pending = {}
        for server in self._probed:
            if server in missed:
                streak = self._streak[server] + 1
                self._streak[server] = streak
                if streak >= self.config.confirm:
                    self._suspects.add(server)
            else:
                self._streak[server] = 0
                self._suspects.discard(server)
        estimate = len(self.servers) - len(self._suspects)
        if estimate < self.min_estimate:
            self.min_estimate = estimate
        if estimate < self.k:
            if not self.unrecoverable:
                self.unrecoverable = True
                self.flag_events += 1
                if self.first_flagged_at is None:
                    self.first_flagged_at = self.now
        elif self.unrecoverable:
            self.unrecoverable = False
            self.last_cleared_at = self.now

    def report(self) -> AuditReport:
        return AuditReport(
            object_index=self.object_index,
            rounds=self._round,
            probes_sent=self.probes_sent,
            responses=self.responses,
            min_estimate=self.min_estimate,
            flagged=self.first_flagged_at is not None,
            first_flagged_at=self.first_flagged_at,
            flag_events=self.flag_events,
            last_cleared_at=self.last_cleared_at,
            unrecoverable_at_end=self.unrecoverable,
        )


class AuditPool:
    """One audit client per object, sharing the cluster's clock and network.

    The pool registers a single delivery listener that answers
    :class:`AuditProbeRequest` on behalf of whichever *live* server the
    probe reached — protocol servers themselves ignore the unknown message
    type.  Replies travel back through the network send path, so they are
    subject to the same withholding, partition and crash drops as real
    coded-element relays.
    """

    def __init__(
        self,
        sim: Simulation,
        groups: Sequence[Tuple[int, str, Sequence[ProcessId]]],
        *,
        k: int,
        config: Optional[AuditConfig] = None,
        seeds: Optional[Sequence[int]] = None,
    ) -> None:
        self.config = config or AuditConfig()
        self._network = sim.network
        self.clients: List[AuditClient] = []
        self._servers: set = set()
        for slot, (object_index, namespace, server_ids) in enumerate(groups):
            seed = seeds[slot] if seeds is not None else slot
            client = AuditClient(
                f"{namespace}audit0",
                server_ids,
                k,
                self.config,
                np.random.default_rng(seed),
                object_index=object_index,
            )
            sim.add_process(client)
            self.clients.append(client)
            self._servers.update(server_ids)
        sim.network.on_deliver(self._answer_probe)

    def _answer_probe(self, record: MessageRecord) -> None:
        payload = record.payload
        if type(payload) is AuditProbeRequest and record.dst in self._servers:
            # Answer on the server's behalf; the reply rides the real
            # network (src = the probed server) so adversaries and crashes
            # apply to it exactly as to the server's own element relays.
            self._network.send(
                record.dst,
                payload.reply_to,
                AuditProbeResponse(probe_id=payload.probe_id, server=record.dst),
            )

    def start(self) -> None:
        for client in self.clients:
            client.start()
