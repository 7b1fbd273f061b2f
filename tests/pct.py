"""PCT schedules for the simulated network.

PCT (Burckhardt, Kothari, Musuvathi and Nagarakatte, "A Randomized
Scheduler with Probabilistic Guarantees of Finding Bugs", ASPLOS 2010) runs
the highest-priority enabled step.  It draws the priorities at random and,
at ``d - 1`` change points drawn uniformly over the run's ``k`` steps,
lowers the priority of the step about to run below every drawn one.  A bug
of depth ``d`` then shows with probability at least ``1/(n k^(d-1))`` per
run.

Here a step is a send.  :class:`PCTScheduler` is a message adversary
(:meth:`~repro.sim.network.Network.install_adversary`) that replaces each message's delay
with the one its random priority maps to: the higher the priority, the
sooner the delivery, within ``spread``.  The send at a change point is
demoted to a delay longer than an operation, and the change point drawn
first the furthest, as PCT gives it the lowest priority.  Every delay is
finite and nothing is dropped, so each schedule is one the paper's
asynchronous model (Section II) allows.  Importable as ``pct`` through
``tests/conftest.py``.
"""

import random
from typing import Tuple

from repro.sim.network import MessageRecord


class PCTScheduler:
    """Random per-send priorities, ``depth - 1`` demotions among the first
    ``steps`` sends; draws only from its own ``random.Random(seed)``."""

    def __init__(
        self,
        *,
        depth: int,
        steps: int,
        seed: int,
        spread: float = 1.0,
        demotion: float = 20.0,
    ) -> None:
        if depth < 1 or steps < depth - 1:
            raise ValueError("PCT needs depth >= 1 and a change point per demotion")
        self.rng = random.Random(seed)
        # The i-th change point drawn gets PCT's priority i: below every
        # drawn priority, and the lower the earlier it was drawn.
        points = self.rng.sample(range(1, steps + 1), depth - 1)
        self.delay_at = {
            step: spread + demotion * (depth - i) for i, step in enumerate(points, 1)
        }
        self.spread = spread
        self.sends = 0
        self.demoted = 0

    def intervene(
        self, record: MessageRecord, delay: float, now: float
    ) -> Tuple[float, bool]:
        self.sends += 1
        demoted = self.delay_at.get(self.sends)
        if demoted is not None:
            self.demoted += 1
            return demoted, False
        return self.spread * self.rng.random(), False
