"""The suite's replacement for ``frozen=True`` on the message classes.

One message object is shared by every destination of a ``send_many`` and by
every relay hop, so no handler may change a payload it sent or received.
Production does not pay to enforce that per field; the runs that watch their
network check it here: each distinct payload is deep-copied at its first
send and must still equal that copy when the run is over.

Importable as ``sent_payloads`` through ``tests/conftest.py``.
"""

import copy


class SentPayloads:
    """A send listener that remembers every payload as it was first sent."""

    def __init__(self, network) -> None:
        # id -> (payload, its deep copy); holding the payload pins its id.
        self._sent = {}
        network.on_send(self._on_send)

    def _on_send(self, record) -> None:
        payload = record.payload
        if id(payload) not in self._sent:
            self._sent[id(payload)] = (payload, copy.deepcopy(payload))

    def check(self) -> None:
        """Every payload is as it was sent, and none can grow attributes."""
        assert self._sent, "no payload was sent"
        for payload, as_sent in self._sent.values():
            assert payload == as_sent, (
                f"payload changed after it was sent: {as_sent!r} is now {payload!r}"
            )
            assert not hasattr(payload, "__dict__"), (
                f"payload {type(payload).__name__} carries a __dict__"
            )
