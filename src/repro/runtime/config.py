"""Driver knobs: one validated record.

The ``run_streamed`` / ``run_open_loop`` entry points of a bare cluster and
of a :class:`~repro.runtime.namespace.MultiRegisterCluster` build one
:class:`RunConfig` from their keyword arguments per call (an unknown name
is a ``TypeError``, an out-of-range value a ``ValueError``) and arm a
:class:`~repro.runtime.driver.Driver` with it.  Each arrival policy reads
its own knobs and ignores the other's: the closed loop has no admission
queue and its read mix is the client mix; the open loop has no think time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ADMISSION_POLICIES", "RunConfig"]

#: Admission-queue overflow policies, in CLI surface order.
ADMISSION_POLICIES = ("drop", "shed-reads", "backpressure")


@dataclass(frozen=True)
class RunConfig:
    """Driver knobs shared by the closed- and open-loop run engines.

    * ``value_size`` — written value size in bytes;
    * ``warm_batch`` — values per refill of the value source: the unit in
      which written values take their place in the driver's rng stream,
      and the batch the cluster pre-encodes when they are small (larger
      values are drawn one at a time, when written);
    * ``mean_gap`` — closed-loop exponential think time between a client's
      operations;
    * ``start_window`` — closed-loop initial-invocation jitter window;
    * ``read_fraction`` — open-loop probability that an arrival is a read;
    * ``policy`` — open-loop admission-queue overflow policy;
    * ``queue_per_server`` — open-loop admission-queue capacity per server;
    * ``op_timeout`` — open-loop maximum queue wait (None disables);
    * ``keep_samples`` — open-loop raw latency sample retention.
    """

    value_size: int = 32
    warm_batch: int = 64
    mean_gap: float = 0.25
    start_window: float = 1.0
    read_fraction: float = 0.5
    policy: str = "drop"
    queue_per_server: int = 4
    op_timeout: Optional[float] = None
    keep_samples: bool = False

    def __post_init__(self) -> None:
        if self.value_size < 1:
            raise ValueError("value_size must be at least 1")
        if self.warm_batch < 1:
            raise ValueError("warm_batch must be at least 1")
        if not (self.mean_gap >= 0 and self.start_window >= 0):
            raise ValueError("mean_gap and start_window must be non-negative")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be within [0, 1]")
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {self.policy!r}; "
                f"expected one of {', '.join(ADMISSION_POLICIES)}"
            )
        if self.queue_per_server < 1:
            raise ValueError("queue_per_server must be at least 1")
        if self.op_timeout is not None and not self.op_timeout > 0:
            raise ValueError("op_timeout must be positive (or None to disable)")

