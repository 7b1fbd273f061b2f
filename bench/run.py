"""The repository's benchmark: seven workloads, measured from outside.

Driver form (the contract in ``BENCHMARK.json``, which lists four of the
workloads), one workload per call::

    python3 bench/run.py --workload soda-small --seed 0 --seconds 25 --trace 0

prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Report form, every workload and both passes from one parent process::

    python3 bench/run.py --seed 0 [--workloads a,b] [--out FILE] [--quick]

prints every end-to-end metric of every workload by name with its unit,
then the per-layer table of the traced pass, and writes a results file
that ``compare.py`` reads.  ``--quick`` (one repetition, quarter sizes) is
for the smoke test and is never comparable.

Each measurement runs in a fresh single-threaded child (``worker.py``);
nothing runs in parallel, because the build host has two shared cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
DEFAULT_OUT = BENCH_DIR / "results" / "latest.json"

sys.path.insert(0, str(BENCH_DIR))
from metrics import END_TO_END, PER_LAYER, WORKLOAD_NAMES, fastest  # noqa: E402

#: ``--setup-only`` launches before and again after the measuring child, so
#: a burst of host interference shorter than the run cannot cover them all.
SETUP_LAUNCHES = 3
CHILD_TIMEOUT_S = 170


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # The backend a user gets by default, whatever the caller exported.
    env.pop("REPRO_GF_BACKEND", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE), *filter(None, [env.get("PYTHONPATH")])]
    )
    return env


def _worker(args: List[str]) -> dict:
    """Run ``worker.py`` to completion and parse its last line."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        env=_child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        check=True,
        text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _setup_seconds(common: List[str], launches: int) -> List[float]:
    """Wall seconds from interpreter start to "first operation issuable"."""
    samples = []
    for _ in range(launches):
        start = time.perf_counter()
        _worker([*common, "--setup-only"])
        samples.append(time.perf_counter() - start)
    return samples


def run_workload(
    name: str, seed: int, seconds: float, trace: int, quick: bool = False
) -> dict:
    """One driver-form run: the child's result plus ``setup_s``."""
    common = ["--workload", name, "--seed", str(seed)]
    if quick:
        common.append("--quick")
    measure = [*common, "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        return _worker(measure)
    setup = _setup_seconds(common, 1 if quick else SETUP_LAUNCHES)
    result = _worker(measure)
    if not quick:
        setup += _setup_seconds(common, SETUP_LAUNCHES)
    if result["metrics"]:
        result["metrics"]["setup_s"] = fastest(setup)
        result["detail"]["setup_s"] = setup
    return result


def result_line(result: dict, trace: int) -> str:
    """The driver's JSON line: every declared metric, as a number."""
    declared = PER_LAYER if trace else END_TO_END
    metrics = {}
    for metric in declared:
        value = result["metrics"].get(metric.name)
        # A layer metric that does not exist on this workload reads 0.
        metrics[metric.name] = {"value": 0.0 if value is None else value, "unit": metric.unit}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


# ----------------------------------------------------------------------
# report form
# ----------------------------------------------------------------------
def _host() -> dict:
    import numpy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gf_backend": "default (REPRO_GF_BACKEND unset)",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_sha": sha,
    }


def _format(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == -1.0:
        return "unreliable"
    return f"{value:.6g}"


def _print_table(title: str, metrics, columns: List[str], cell) -> None:
    print(f"\n{title}")
    width = max(len(m.name) for m in metrics)
    print(f"{'metric':<{width}}  {'unit':<14} {'better':<7}" + "".join(f" {c:>15}" for c in columns))
    for m in metrics:
        cells = "".join(f" {_format(cell(c, m.name)):>15}" for c in columns)
        print(f"{m.name:<{width}}  {m.unit:<14} {m.better:<7}{cells}")


def report(names: List[str], seed: int, seconds: float, quick: bool, out: Path) -> int:
    results: Dict[str, dict] = {}
    for name in names:
        print(f"[{name}] untraced pass ...", file=sys.stderr, flush=True)
        plain = run_workload(name, seed, seconds, trace=0, quick=quick)
        print(f"[{name}] traced pass ...", file=sys.stderr, flush=True)
        traced = run_workload(name, seed, seconds, trace=1, quick=quick)
        results[name] = {
            "correct": plain["correct"] and traced["correct"],
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "problems": sorted({*plain["problems"], *traced["problems"]}),
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "detail": {"untraced": plain["detail"], "traced": traced["detail"]},
        }

    _print_table(
        "End-to-end metrics (untraced pass)",
        END_TO_END,
        names,
        lambda w, m: results[w]["end_to_end"].get(m),
    )
    _print_table(
        "Per-layer metrics (traced pass; '-' = does not exist on the workload)",
        PER_LAYER,
        names,
        lambda w, m: results[w]["per_layer"].get(m),
    )
    print()
    for name in names:
        row = results[name]
        status = "ok" if row["correct"] else "FAILED: " + "; ".join(row["problems"])
        print(f"{name}: attempted {row['attempted']}, failed {row['failed']}, {status}")

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {
                "schema": 1,
                "quick": quick,
                "seed": seed,
                "seconds": seconds,
                "host": _host(),
                "workloads": results,
            },
            indent=1,
        )
        + "\n"
    )
    print(f"results written to {out}")
    return 0 if all(row["correct"] for row in results.values()) else 1


def main(argv: Optional[List[str]] = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_names = list(WORKLOAD_NAMES)

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=all_names, help="driver form: the one workload to run")
    parser.add_argument("--workloads", help="report form: comma-separated subset")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro").is_dir():
        print(f"run.py: no program to measure: {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.quick)
        for problem in result["problems"]:
            print(f"run.py: {args.workload}: {problem}", file=sys.stderr)
        print(result_line(result, args.trace))
        return 0

    names = args.workloads.split(",") if args.workloads else all_names
    unknown = sorted(set(names) - set(all_names))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    return report(names, args.seed, args.seconds, args.quick, args.out)


if __name__ == "__main__":
    sys.exit(main())
