"""Compare two results files of ``run.py``: ``compare.py A.json B.json``.

``A`` is the reference (the parent commit, or the first of two runs of one
commit), ``B`` the candidate.  For every workload and every bounded metric
the candidate may be worse than the reference — in the metric's own
direction — by at most the bound fixed in ``metrics.py`` (the end-to-end
bounds are the ones in ``BENCHMARK.json``); bound 0 means "no worse at
all".  More failed operations than the reference is a breach as well.
Deterministic counters are compared exactly and listed when they differ,
but only as information: a protocol change may move them on purpose.
Metrics that are a function of the seed are compared only when both files
used the same seed.

One row is printed per pairing; the exit status is non-zero on any breach.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))
from metrics import END_TO_END, PER_LAYER, Metric  # noqa: E402


def worsening(metric: Metric, reference: float, candidate: float) -> float:
    """How much worse ``candidate`` is, as a share of ``reference``."""
    delta = candidate - reference if metric.better == "lower" else reference - candidate
    if delta <= 0:
        return 0.0
    return delta / abs(reference) if reference else float("inf")


def compare(a: dict, b: dict) -> Tuple[List[str], int]:
    """Rows to print and the number of breaches."""
    rows: List[str] = []
    breaches = 0
    same_seed = a["seed"] == b["seed"]
    for name in a["workloads"]:
        if name not in b["workloads"]:
            rows.append(f"{name:<16} missing from the candidate                         BREACH")
            breaches += 1
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        failed_a = wa["failed"] / wa["attempted"]
        failed_b = wb["failed"] / wb["attempted"]
        verdict = "ok"
        if failed_b > failed_a or not wb["correct"]:
            verdict = "BREACH"
            breaches += 1
        rows.append(f"{name:<16} {'failed share':<34} {failed_a:>12.6g} {failed_b:>12.6g} {'':>9} {verdict}")

        for metric in (*END_TO_END, *PER_LAYER):
            section = "end_to_end" if metric in END_TO_END else "per_layer"
            va: Optional[float] = wa[section].get(metric.name)
            vb: Optional[float] = wb[section].get(metric.name)
            if va is None and vb is None:
                continue
            if metric.exact and not same_seed:
                continue  # a function of the seed: nothing to compare
            if metric.bound is not None:
                if va is None or vb is None:
                    worse, verdict = float("inf"), "BREACH"
                else:
                    worse = worsening(metric, va, vb)
                    verdict = "BREACH" if worse > metric.bound else "ok"
                breaches += verdict == "BREACH"
                note = f"{worse:+.2%} of {metric.bound:.0%}"
            elif metric.exact and va != vb:
                verdict, note = "info", "differs"
            else:
                continue
            rows.append(
                f"{name:<16} {metric.name:<34} {_cell(va)} {_cell(vb)} {note:>16} {verdict}"
            )
    return rows, breaches


def _cell(value: Optional[float]) -> str:
    return f"{'-':>12}" if value is None else f"{value:>12.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    if a["quick"] or b["quick"]:
        print("compare.py: a --quick results file is never comparable", file=sys.stderr)
        return 2
    rows, breaches = compare(a, b)
    print(f"{'workload':<16} {'metric':<34} {'A':>12} {'B':>12} {'worse / bound':>16} verdict")
    print("\n".join(rows))
    print(f"\n{breaches} breach(es); seeds {a['seed']} vs {b['seed']}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
