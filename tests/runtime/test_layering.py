"""Layering: no package below ``analysis/`` reaches back up into it (the
epoch engine's cell runner used to live in ``runtime/fleet.py``, and the
checker mux's worker mode in ``consistency/multiplex.py``; both imported
``repro.analysis`` lazily to break the cycle).

And a launch imports what it runs: a package ``__init__`` loads no
submodule, and a command loads its machinery when it runs.  The start-up
budget below pins, for four fresh-interpreter launches, the exact sorted
list of ``repro`` modules each loads — a module that starts loading where
it is not used fails here by name.  Run as a script, this file prints the
start-up line CI records.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).resolve().parent
BELOW_ANALYSIS = (
    "sim",
    "erasure",
    "core",
    "baselines",
    "metrics",
    "consistency",
    "workloads",
    "runtime",
)


def _sources():
    return sorted(
        path for package in BELOW_ANALYSIS for path in (ROOT / package).rglob("*.py")
    )


def test_importing_the_lower_packages_does_not_import_analysis():
    modules = sorted(
        ".".join(("repro", *path.relative_to(ROOT).with_suffix("").parts))
        for path in _sources()
        if path.stem != "__init__"
    )
    assert "repro.runtime.namespace" in modules
    assert "repro.consistency.multiplex" in modules
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}: importlib.import_module(name)\n"
        "bad = sorted(m for m in sys.modules if m.startswith('repro.analysis'))\n"
        "assert not bad, bad\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT.parent)},
    )
    assert done.returncode == 0, done.stderr


def test_no_lower_module_names_the_analysis_package_in_an_import():
    sources = _sources()
    assert len({path.parent for path in sources}) >= len(BELOW_ANALYSIS)
    for path in sources:
        source = path.read_text()
        assert "import repro.analysis" not in source, path
        assert "from repro.analysis" not in source, path


# ----------------------------------------------------------------------
# start-up budget
# ----------------------------------------------------------------------
#: The module-level imports of the benchmark's workloads (bench/workloads.py).
_BENCH_IMPORTS = """
import repro.cli
import repro.workloads.arrivals
import repro.workloads.generator
from repro.baselines.registry import make_cluster
from repro.consistency.incremental import IncrementalAtomicityChecker
from repro.consistency.stream import StreamingRecorder
"""

#: launch -> (the code it runs, the sorted ``repro`` modules it loads).
STARTUP_BUDGET = {
    "import repro.cli": (
        "import repro.cli",
        """
        repro repro.baselines repro.baselines.registry repro.cli repro.erasure
        repro.erasure.gf repro.native
        """,
    ),
    "soda-small build": (
        _BENCH_IMPORTS
        + """
recorder = StreamingRecorder(window=256)
recorder.subscribe(IncrementalAtomicityChecker(initial_value=b""))
cluster = make_cluster("SODA", 6, 2, num_writers=2, num_readers=2, recorder=recorder)
cluster.warm_encode([bytes(32)])
""",
        """
        repro repro.baselines repro.baselines.registry repro.cli
        repro.consistency repro.consistency.history repro.consistency.incremental
        repro.consistency.stream repro.core repro.core.client
        repro.core.message_disperse repro.core.messages repro.core.soda
        repro.core.soda.cluster
        repro.core.soda.reader repro.core.soda.server repro.core.soda.writer
        repro.core.tags repro.erasure repro.erasure.batch repro.erasure.gf
        repro.erasure.linear repro.erasure.matrix
        repro.erasure.mds repro.erasure.poly repro.erasure.rs repro.metrics
        repro.metrics.costs repro.native repro.runtime
        repro.runtime.cluster repro.runtime.config repro.runtime.driver repro.sim
        repro.sim.events repro.sim.failures repro.sim.network repro.sim.process
        repro.sim.simulation repro.workloads repro.workloads.arrivals
        repro.workloads.generator
        """,
    ),
    "checker-stream build": (
        _BENCH_IMPORTS
        + """
recorder = StreamingRecorder(window=256)
recorder.subscribe(IncrementalAtomicityChecker())
repro.workloads.generator.StreamSpec(operations=80_000, clients=16)
""",
        """
        repro repro.baselines repro.baselines.registry repro.cli
        repro.consistency repro.consistency.incremental
        repro.consistency.stream repro.erasure repro.erasure.gf
        repro.native repro.workloads repro.workloads.arrivals
        repro.workloads.generator
        """,
    ),
    # What every spawned pool worker loads to unpickle its payload.
    "import repro.analysis.engine": (
        "import repro.analysis.engine",
        """
        repro repro.analysis repro.analysis.engine repro.analysis.pool
        repro.baselines repro.baselines.registry repro.consistency
        repro.consistency.history repro.consistency.incremental
        repro.consistency.multiplex repro.consistency.shardmerge
        repro.consistency.stream repro.erasure repro.erasure.batch
        repro.erasure.mds repro.metrics repro.metrics.costs repro.metrics.latency
        repro.runtime repro.runtime.audit repro.runtime.cluster
        repro.runtime.config repro.runtime.driver repro.runtime.namespace
        repro.sim repro.sim.events repro.sim.failures
        repro.sim.network repro.sim.process repro.sim.simulation repro.workloads
        repro.workloads.arrivals repro.workloads.faults repro.workloads.keyed
        repro.workloads.spec
        """,
    ),
}

_LIST_MODULES = """
import sys
print(" ".join(sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))))
"""


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT.parent)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("launch", STARTUP_BUDGET)
def test_a_launch_loads_exactly_its_budgeted_modules(launch):
    code, budget = STARTUP_BUDGET[launch]
    assert _fresh(code + _LIST_MODULES).split() == budget.split()


def test_naming_the_protocols_imports_no_cluster():
    code = (
        "from repro.baselines.registry import available_protocols\n"
        "print(' '.join(available_protocols()))\n"
    )
    names, *modules = _fresh(code + _LIST_MODULES).splitlines()
    assert names.split() == ["ABD", "CAS", "CASGC", "SODA", "SODAerr"]
    assert modules[0].split() == ["repro", "repro.baselines", "repro.baselines.registry"]


if __name__ == "__main__":
    code, _ = STARTUP_BUDGET["soda-small build"]
    modules = len(_fresh(code + _LIST_MODULES).split())
    seconds = _fresh(
        "import time\n"
        "start = time.perf_counter()\n"
        "import repro.cli\n"
        "print(time.perf_counter() - start)\n"
    )
    print(f"Start-up: {modules} repro modules, import repro.cli {float(seconds) * 1e3:.0f} ms")
