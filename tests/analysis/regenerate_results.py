"""Regenerate every committed ``results/*.json`` artefact from its own record
and compare the bytes.

Each artefact names its ``kind`` and ``protocol`` and records in ``params``
everything its bytes depend on.  This script maps that block back to
``run_experiment`` keywords, runs the experiment into a temporary
directory, and compares the produced ``<stem>.json`` and ``<stem>.csv``
with the committed ones byte for byte (what ``cmp`` does).  It fails, by
name, on a byte difference and on a recorded param it cannot map back; the
one hand-made artefact is reported as skipped, by name.

    PYTHONPATH=src python tests/analysis/regenerate_results.py [--jobs N] [STEM ...]

``--jobs`` moves no byte (the engine's contract); the 1M-operation long
run takes about five minutes at ``--jobs 2``, every other artefact
seconds.  Naming stems restricts the run to them.  Exit status 0 when every
regenerated file is equal, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: Artefacts no engine kind writes: stem -> why it is not regenerated.
HAND_MADE = {
    "fleet_scaling_soda_16x16000": "hand-made fleet scaling table, not an "
    "engine artefact",
}

#: Recorded params that are derived from the others, not passed back.
_DERIVED = ("epochs",)


def run_keywords(record: Dict[str, object]) -> Tuple[Dict[str, object], List[str]]:
    """``run_experiment`` keywords for an artefact's ``params``, and the
    recorded names that map to none."""
    from repro.analysis.engine import DEFAULTS

    keywords: Dict[str, object] = {}
    protocol_kwargs: Dict[str, object] = {}
    unmapped = []
    for name, value in record["params"].items():
        if name in _DERIVED:
            continue
        if name.startswith("protocol_"):
            protocol_kwargs[name[len("protocol_"):]] = value
        elif name == "slo_ms":
            keywords["slo"] = value
        elif name in DEFAULTS and name not in ("jobs", "fleet", "protocol_kwargs"):
            keywords[name] = value
        else:
            unmapped.append(name)
    if protocol_kwargs:
        keywords["protocol_kwargs"] = protocol_kwargs
    return keywords, unmapped


def regenerate(path: Path, jobs: int, scratch: Path) -> List[str]:
    """Rebuild the artefact ``path``; return its problems (none when equal)."""
    from repro.analysis.engine import KINDS, run_experiment, write_artefacts

    record = json.loads(path.read_text())
    if record.get("kind") not in KINDS:
        return [f"{path.name}: kind {record.get('kind')!r} is no engine kind"]
    keywords, unmapped = run_keywords(record)
    if unmapped:
        return [f"{path.name}: cannot map params back: {', '.join(unmapped)}"]
    report = run_experiment(record["kind"], record["protocol"], jobs=jobs, **keywords)
    produced = write_artefacts(report, scratch)
    problems = []
    for made in produced:
        committed = path.with_name(made.name)
        if made.stem != path.stem:
            problems.append(f"{path.name}: regenerated as {made.name}")
        elif not committed.exists():
            problems.append(f"{committed.name}: not committed")
        elif made.read_bytes() != committed.read_bytes():
            problems.append(f"{committed.name}: differs from its regeneration")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("stems", nargs="*", help="only these artefacts")
    args = parser.parse_args(argv)

    paths = sorted(RESULTS.glob("*.json"))
    if args.stems:
        known = {path.stem for path in paths}
        missing = sorted(set(args.stems) - known)
        if missing:
            parser.error(f"no such artefact: {', '.join(missing)}")
        paths = [path for path in paths if path.stem in args.stems]
    failures = []
    equal = 0
    for path in paths:
        if path.stem in HAND_MADE:
            print(f"skipped  {path.name}: {HAND_MADE[path.stem]}")
            continue
        with tempfile.TemporaryDirectory() as scratch:
            problems = regenerate(path, args.jobs, Path(scratch))
        for problem in problems:
            print(f"FAILED   {problem}")
        if problems:
            failures.extend(problems)
        else:
            equal += 2
            print(f"equal    {path.stem}.json {path.stem}.csv")
        sys.stdout.flush()
    print(f"{equal} files equal, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
