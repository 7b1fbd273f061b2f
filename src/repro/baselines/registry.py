"""Registry of every atomic-register protocol available in this repository.

The comparison experiments (Table I, the storage/communication trade-off
ablation) iterate over protocols by name; this module centralises the
construction so benchmarks, examples and the CLI all build clusters the
same way.  A protocol's cluster module is imported by the first
:func:`make_cluster` of it: naming the protocols loads none of them.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:
    from repro.runtime.cluster import RegisterCluster

#: Protocol name -> (defining module, cluster class name).
_CLUSTERS = {
    "ABD": ("repro.baselines.abd", "AbdCluster"),
    "CAS": ("repro.baselines.cas", "CasCluster"),
    "CASGC": ("repro.baselines.casgc", "CasGcCluster"),
    "SODA": ("repro.core.soda.cluster", "SodaCluster"),
    "SODAerr": ("repro.core.sodaerr.cluster", "SodaErrCluster"),
}
_BY_KEY = {name.upper(): name for name in _CLUSTERS}
#: The construction arguments a protocol cannot be built without: CASGC's
#: concurrency bound ``delta`` and SODAerr's error budget ``e``.
_DEFAULT_KWARGS = {"CASGC": {"delta": 4}, "SODAerr": {"e": 1}}


def available_protocols() -> List[str]:
    """Names accepted by :func:`make_cluster`."""
    return list(_CLUSTERS)


def default_kwargs(protocol: str) -> Dict[str, object]:
    """The protocol-specific keyword arguments every experiment builds a
    cluster of ``protocol`` (case-insensitive) with unless it gives its own."""
    return dict(_DEFAULT_KWARGS.get(_BY_KEY.get(protocol.strip().upper()), {}))


def make_cluster(protocol: str, n: int, f: int, **kwargs) -> RegisterCluster:
    """Build a cluster of the named protocol (case-insensitive).

    Protocol-specific keyword arguments: ``delta`` for CASGC (concurrency
    bound used by garbage collection), ``e`` and the error-injection
    controls for SODAerr.  All other keyword arguments are passed through to
    the cluster constructor (seed, delay model, client counts, ...).
    """
    name = _BY_KEY.get(protocol.strip().upper())
    if name is None:
        raise ValueError(
            f"unknown protocol {protocol!r}; available: {', '.join(available_protocols())}"
        )
    module, cls = _CLUSTERS[name]
    return getattr(import_module(module), cls)(n, f, **kwargs)
