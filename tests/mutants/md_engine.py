"""Mutants of the message-disperse server engine's copy countdown; each
docstring names the check that kills it, and its row of
:data:`mutants.MUTANTS` installs it over
``repro.core.soda.server.MDServerEngine``.

The count is set in ``__init__``, so it reaches MD-VALUE (through
``_later_copy``) and MD-META (whose countdown is inlined) alike; so do the
relay targets.
"""

from repro.core.message_disperse import MDServerEngine


class EarlyCountdownEngine(MDServerEngine):
    """Expects one copy fewer than its position is due.

    The last copy of every md-send then finds no pending entry, counts as a
    first copy and is delivered and relayed a second time, so a later server
    of the dispersal set receives more copies than the relay topology
    produces.  The per-copy tap of ``tests/core/test_md_state_bound.py``
    kills it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._later_copies -= 1


class LateCountdownEngine(MDServerEngine):
    """Expects one copy more than its position is due.

    Deliveries stay exactly-once, but every md-send keeps a pending entry
    for a copy that never comes: the id map grows by one entry per send, a
    leak no checker sees.  The drained-map check of
    ``tests/core/test_md_state_bound.py`` kills it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._later_copies += 1


class ShortMetaRelayEngine(MDServerEngine):
    """An MD-META relay that stops short: the last server of the dispersal
    set forwards to its later peers (it has none) but sends nothing to the
    servers outside the set.

    Fault-free, every outside server still hears from the other ``f``
    dispersal servers, so it delivers, but one of its ``f + 1`` copies
    never comes and its pending entry never drains.  Once the first ``f``
    dispersal servers crash before their copies arrive, an outside server
    never delivers at all: uniformity (Theorem 3.1) is lost.
    ``check_md_meta_is_uniform_after_f_crashes`` of
    ``tests/core/test_md_state_bound.py`` kills it by the second, the
    drained-map check by the first.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not self._forward_targets and self._outside_dispersal:
            self._meta_targets = self._forward_targets
