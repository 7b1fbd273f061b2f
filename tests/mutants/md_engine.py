"""Mutants of the message-disperse server engine's copy countdown; each
docstring names the check that kills it, and its row of
:data:`mutants.MUTANTS` installs it over
``repro.core.soda.server.MDServerEngine``.

The count is set in ``__init__``, so it reaches MD-VALUE (through
``_later_copy``) and MD-META (whose countdown is inlined) alike.
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
