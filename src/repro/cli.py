"""Command-line interface for the SODA reproduction.

Usage examples::

    python -m repro.cli list
    python -m repro.cli table1 --n 6 --delta 2
    python -m repro.cli demo --protocol SODA --n 5 --f 2
    python -m repro.cli experiment storage --n 8
    python -m repro.cli experiment read-cost --n 6 --f 2
    python -m repro.cli experiment sodaerr
    python -m repro.cli experiment atomicity --protocol ABD --executions 3
    python -m repro.cli experiment slow-disk --seed 7

The CLI is a thin wrapper over :mod:`repro.analysis`; anything it prints can
also be obtained programmatically (see docs/sweeps.md for the sweep table
and the mapping of its rows to the paper's tables and theorems).  Each
command imports its machinery when it runs, so ``import repro.cli`` loads
the registry and the GF backend switch and nothing else.

``experiment <sweep>`` runs one row of :data:`repro.analysis.experiments.
SWEEPS` at the row's defaults and prints its rows as ``key=value`` lines.
``--n``, ``--f``, ``--protocol`` override a keyword the row holds fixed and
``--executions`` the repetitions of ``atomicity``; a flag the row has no use
for — its swept keyword, an engine flag — is refused by name (exit 2), as
is a configuration the cluster constructors refuse.

``experiment longrun | openloop | adversary`` are the three faces of the
one epoch engine (:mod:`repro.analysis.engine`): a long run is cut into
seeded epochs, each simulated on a fresh cluster, and folded in epoch
order into a JSON/CSV artefact pair under ``--results-dir`` that is
byte-identical for every ``--jobs`` / ``--fleet``; a run that loses cells
(a dead worker, a raising cell) names each on stderr and exits 3.  The
flags pick one of the engine's seven artefact kinds:

* ``longrun`` streams a closed-loop real-cluster run through bounded
  recorders with the incremental atomicity checker attached online
  (``results/longrun_*``); ``--objects N --key-dist zipf:1.1`` makes it a
  namespace of N registers on one shared simulation per epoch, checked
  per object (``results/multiobj_*``; object 0 is the hottest key).
* ``openloop --arrival poisson:4`` drives the cluster open-loop: arrivals
  follow a seeded arrival process (Poisson, diurnal, burst, or trace
  replay) independent of completions, a bounded admission queue applies
  ``--admission`` (drop, shed-reads, backpressure), and latency
  percentiles come from bounded-memory mergeable histograms
  (``results/openloop_*``).
* ``adversary`` runs the namespace under a fault plan with a background
  availability-audit pool and reports whether every register driven
  below ``k`` surviving coded elements was flagged before any foreground
  read stalled (``results/adversary_*``).
* ``--fleet P`` on any of the three partitions every epoch's namespace
  into ``P`` slices (LPT on the key-popularity shares), each object on
  its own simulation in its slice's spawned process, so a namespace run
  saturates all cores (``results/fleet_*``).  Every object's event
  stream is a pure function of ``(seed, object)``.

Every summary reports this host's wall-clock rate and the capacity rate
(completed operations per CPU-second of the critical path, one core per
partition).  ``--faults`` accepts the unified fault-plan spec
(:func:`repro.workloads.faults.parse_faults`) on all three commands.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from repro import __version__
from repro.baselines.registry import available_protocols, default_kwargs, make_cluster
from repro.erasure.gf import (
    BACKEND_ENV_VAR,
    GF_BACKENDS,
    describe_backend,
    set_default_backend,
)

if TYPE_CHECKING:
    from repro.analysis.engine import Report


#: The epoch engine's three commands, as ``list`` and ``experiment -h`` show them.
_ENGINE_COMMANDS = {
    "longrun": "streamed real-cluster run with sharded online checking",
    "openloop": "open-loop traffic engine with admission control and "
    "bounded-memory latency percentiles",
    "adversary": "multi-object longrun under a fault plan with "
    "availability-audit reads and detection verdicts",
}


def _experiments() -> dict:
    """Every ``experiment <name>``: the paper sweeps, then the engine commands."""
    from repro.analysis.experiments import SWEEPS

    return {**{name: sweep.claim for name, sweep in SWEEPS.items()}, **_ENGINE_COMMANDS}


def _cmd_list(args: argparse.Namespace) -> int:
    print("Available protocols:")
    for name in available_protocols():
        print(f"  {name}")
    print("\nExperiments (experiment <name>; Table I is the `table1` command):")
    for name, text in _experiments().items():
        print(f"  {name:<12} {text}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table, generate_table1

    entries = generate_table1(n=args.n, delta=args.delta, seed=args.seed)
    print(format_table(entries))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    cluster = make_cluster(
        args.protocol, args.n, args.f, seed=args.seed, **default_kwargs(args.protocol)
    )
    value = args.value.encode()
    w = cluster.write(value)
    r = cluster.read()
    cluster.run()
    print(f"protocol        : {cluster.protocol_name} (n={args.n}, f={args.f})")
    print(f"write           : tag={w.tag}, cost={cluster.operation_cost(w.op_id):.3f}, "
          f"latency={w.duration:.2f}")
    print(f"read            : value={r.value!r}, cost={cluster.operation_cost(r.op_id):.3f}, "
          f"latency={r.duration:.2f}")
    print(f"storage peak    : {cluster.storage_peak():.3f} value units")
    return 0


def _cmd_sweep(name: str, args: argparse.Namespace) -> int:
    """``experiment <sweep>``: one row of :data:`SWEEPS`, its rows printed.
    Every flag the user gave is applied to the row or refused by name."""
    from repro.analysis.experiments import SWEEPS, run_sweep
    from repro.metrics.latency import format_latency

    sweep = SWEEPS[name]
    fixed, values = {}, None
    for dest in args.given:
        if dest == "executions" and sweep.swept is None:
            values = range(args.executions)
        elif dest in sweep.fixed:
            fixed[dest] = getattr(args, dest)
        elif dest != "seed":
            why = "is what it sweeps" if dest == sweep.swept else "does not apply to it"
            print(
                f"experiment {name}: --{dest.replace('_', '-')} {why} (this sweep "
                f"varies {sweep.swept or 'only the seed'} and holds "
                f"{', '.join(sweep.fixed)} fixed)",
                file=sys.stderr,
            )
            return 2
    try:
        rows = run_sweep(name, seed=args.seed, values=values, **fixed)
    except ValueError as exc:
        print(f"experiment {name}: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        # nan means "no completed operations" (see LatencyStats.empty);
        # format_latency renders the sentinel as '-' instead of 'nan'.
        cells = (
            f"{k}={format_latency(v) if isinstance(v, float) else v}"
            for k, v in asdict(row).items()
        )
        print("  ".join(cells))
    if name == "atomicity":
        return 0 if all(r.linearizable_executions == r.executions for r in rows) else 1
    return 0


def _engine_kind(name: str, args: argparse.Namespace) -> str:
    """Which of the engine's artefact kinds the flags select."""
    if name == "longrun":
        if args.fleet:
            return "fleet-longrun"
        return "multiobj-longrun" if args.objects > 1 else "longrun"
    if name == "openloop":
        return "fleet-openloop" if args.fleet else "openloop"
    return "fleet-adversary" if args.fleet else "adversary-longrun"


def _engine_params(kind, args: argparse.Namespace) -> dict:
    """The ``run_experiment`` parameters the flags map to (everything not
    named here keeps the kind's default)."""
    params = dict(
        ops=args.ops,
        epoch_ops=args.epoch_ops,
        jobs=args.jobs,
        n=args.n,
        f=args.f,
        seed=args.seed,
        faults=args.faults,
    )
    if kind.namespace:
        params.update(objects=args.objects, key_dist=args.key_dist)
    if kind.private:
        params["fleet"] = args.fleet
    if kind.driver == "open":
        writers = max(1, args.clients // 2)
        params.update(
            arrival=args.arrival,
            read_fraction=args.read_fraction,
            policy=args.admission,
            queue_per_server=args.queue_per_server,
            op_timeout=args.op_timeout if args.op_timeout > 0 else None,
            slo=args.slo,
            num_writers=writers,
            num_readers=max(1, args.clients - writers),
        )
    if kind.driver == "audited":
        params["stall_threshold"] = args.stall_threshold
        if args.faults == "none":
            # 'none' (the shared flag default) means "the canonical
            # adversarial plan" here — an adversary run with no faults
            # has nothing to detect.
            del params["faults"]
    return params


def _print_summary(report: Report, args: argparse.Namespace) -> None:
    """Print what the report carries: counts, rates, then whichever of the
    checker verdict, latency percentiles and detection verdict it has."""
    from repro.metrics.latency import format_latency

    kind, p = report.kind, report.params
    scope = f"{len(report.epochs)} epochs ({args.jobs} jobs"
    scope += f", {report.fleet} partitions)" if kind.private else ")"
    if kind.namespace:
        scope += f", {p['objects']} objects ({p['key_dist']})"
    if "faults" in p:
        scope += f", under {p['faults']!r}"
    if kind.driver == "open":
        print(
            f"{report.protocol} {kind.name}: {report.arrived} arrivals "
            f"({p['arrival']}), policy {p['policy']}, over {scope}"
        )
        print(
            f"admission       : {report.admitted} admitted, {report.rejected} "
            f"rejected, {report.shed_reads} reads shed, {report.timed_out} timed out"
        )
        in_flight = report.issued - report.completed - report.failed
        print(
            f"outcome         : {report.completed} completed "
            f"({report.writes} writes / {report.reads} reads), "
            f"{report.failed} failed, {in_flight} in flight at end"
        )
    else:
        print(
            f"{report.protocol} {kind.name}: {report.issued} ops issued over "
            f"{scope}, {report.completed} completed, {report.failed} failed"
        )
    print(
        f"throughput      : {report.ops_per_s:.0f} ops/s wall "
        f"({report.events} simulated events in {report.wall_s:.1f}s)"
    )
    print(
        f"capacity        : {report.ops_per_cpu_s:.0f} ops per CPU-second of the "
        f"critical path, one core per partition ({report.cpu_s:.1f} CPU-s, "
        f"{report.events_per_cpu_s:.0f} events/s)"
    )
    print(
        f"memory          : {report.worker_max_rss_kb / 1024:.1f} MiB peak RSS "
        f"of the largest cell worker"
    )
    if report.read_latency is not None:
        print(
            f"simulated       : {format_latency(report.sim_ops_per_s, precision=0)} "
            f"ops/s sustained over {report.sim_time:.0f} simulated ms"
        )
        print(
            f"latency (ms)    : p50={format_latency(report.p50)} "
            f"p99={format_latency(report.p99)} p999={format_latency(report.p999)} "
            f"mean={format_latency(report.latency().summary()['mean'])}"
        )
        attained = format_latency(100.0 * report.slo_attainment(), precision=2)
        print(
            f"slo             : {attained}% of completed ops within "
            f"{report.slo_ms:g} ms"
        )
    verdict = report.verdict
    if verdict is not None:
        print(
            f"memory gauge    : stream_max_resident={report.stream_max_resident} "
            f"records, {report.stream_max_value_bytes / 1024:.1f} KiB of values "
            f"per recorder (window {p['window']})"
        )
        status = "ATOMIC" if report.checker_ok else "VIOLATIONS"
        counts = f"{verdict.clusters} clusters, {verdict.crossings_tested} crossings"
        if kind.namespace:
            print(
                f"namespace       : {status} ({counts} tested, "
                f"{verdict.shards} shards per object)"
            )
            for j, merged in enumerate(verdict.per_object):
                print(
                    f"  object o{j:<3}: {'atomic' if merged.ok else 'VIOLATIONS'} "
                    f"({merged.clusters} clusters, {merged.ops_seen} ops)"
                )
                for violation in merged.violations[:3]:
                    print(f"    merged : [{violation.kind}] {violation.description}")
        else:
            print(
                f"merged verdict  : {status} ({counts} tested, "
                f"{verdict.shards} shards)"
            )
            for violation in verdict.violations[:5]:
                print(f"  merged  : [{violation.kind}] {violation.description}")
        for obj, violation in report.local_violations[:5]:
            print(f"  online o{obj}: {violation}")
    if kind.driver == "closed" and kind.object_columns:
        hot, totals = max(
            enumerate(report.object_totals()), key=lambda pair: pair[1]["issued"]
        )
        print(
            f"hottest object  : o{hot} with {totals['issued']} ops "
            f"({totals['writes']} writes / {totals['reads']} reads)"
        )
    if kind.driver == "audited":
        detection = report.detection_summary()
        print(
            f"audit detection : {detection['detected']}/{detection['below_k_rows']} "
            f"below-k registers flagged "
            f"({detection['detected_before_stall']} before any foreground stall), "
            f"{detection['missed']} missed, {detection['false_flags']} false flags, "
            f"{detection['stalled_reads']} stalled reads"
        )
        for row in report.object_rows:
            if row.below_k and not row.detected_before_stall:
                print(
                    f"  MISSED e{row.epoch}/o{row.object}: "
                    f"{row.surviving_elements} surviving elements, "
                    f"flagged_at={row.first_flagged_at}, "
                    f"first_stall_at={row.first_stall_at}"
                )


def _cmd_engine(name: str, args: argparse.Namespace) -> int:
    """``experiment longrun | openloop | adversary``: one engine run.

    Exits 0 when every object's history is atomic, 1 when one is not, 2 on
    a usage error and 3 when the run lost cells (a worker died, a cell
    raised): one stderr line names each lost cell, and no traceback."""
    from repro.analysis.engine import KINDS, run_experiment, write_artefacts
    from repro.analysis.pool import WorkerDied

    if args.objects < 1:
        print(f"--objects must be at least 1, got {args.objects}", file=sys.stderr)
        return 2
    kind = KINDS[_engine_kind(name, args)]
    if not kind.namespace and args.key_dist != "uniform":
        print(
            f"--key-dist {args.key_dist!r} has no effect on a single register; "
            f"pass --objects N (N > 1) for a keyed namespace run",
            file=sys.stderr,
        )
        return 2
    try:
        report = run_experiment(
            kind.name, args.protocol, **_engine_params(kind, args)
        )
    except WorkerDied as died:
        for cell in died.cells:
            print(f"{name}: lost {cell}: its worker died", file=sys.stderr)
        return 3
    except Exception as exc:
        if hasattr(exc, "cells"):
            (cell,) = exc.cells
            message = str(exc).removeprefix(f"{cell}: ")
            print(
                f"{name}: lost {cell}: {type(exc).__name__}: {message}",
                file=sys.stderr,
            )
            return 3
        if isinstance(exc, ValueError):
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        raise
    _print_summary(report, args)
    if not args.no_artefacts:
        json_path, csv_path = write_artefacts(report, Path(args.results_dir))
        print(f"artefacts       : {json_path} {csv_path}")
    return 0 if report.ok else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name.replace("_", "-")
    if name in _ENGINE_COMMANDS:
        return _cmd_engine(name, args)
    if name in _experiments():
        return _cmd_sweep(name, args)
    print(
        f"unknown experiment {args.name!r}; available: {', '.join(_experiments())}",
        file=sys.stderr,
    )
    return 2


class _Given(argparse.Action):
    """Store the flag and note on ``args.given`` that the user gave it: a
    paper sweep applies or refuses exactly the flags given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)
        namespace.given = (*namespace.given, self.dest)


_PROG = "soda-repro"


def _global_flags() -> argparse.ArgumentParser:
    """The flags that stand before the command.  :func:`main` reads them
    ahead of the full parse: ``--version`` needs no command and must name
    the backend ``--gf-backend`` selects, whichever of the two comes first."""
    flags = argparse.ArgumentParser(prog=_PROG, add_help=False, allow_abbrev=False)
    flags.add_argument(
        "--version",
        action="store_true",
        help="print the version and the resolved GF(2^8) backend, then exit",
    )
    flags.add_argument(
        "--gf-backend",
        choices=GF_BACKENDS,
        default=None,
        help="GF(2^8) kernel backend for erasure coding (default: the "
        "REPRO_GF_BACKEND env var, else the compiled 'native' kernels when "
        "they load or build and 'numpy' otherwise; an explicit 'native' "
        "needs cffi plus a C toolchain and fails fast when unavailable)",
    )
    return flags


def build_parser() -> argparse.ArgumentParser:
    from repro.runtime.config import ADMISSION_POLICIES

    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="Reproduction of the SODA storage-optimized atomic register algorithms",
        parents=[_global_flags()],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list protocols and experiments")
    p_list.set_defaults(func=_cmd_list)

    p_table = sub.add_parser("table1", help="regenerate the paper's Table I")
    p_table.add_argument("--n", type=int, default=6, help="number of servers (even)")
    p_table.add_argument("--delta", type=int, default=2, help="CASGC concurrency bound")
    p_table.add_argument("--seed", type=int, default=0)
    p_table.set_defaults(func=_cmd_table1)

    p_demo = sub.add_parser("demo", help="run a single write/read against a protocol")
    p_demo.add_argument("--protocol", default="SODA", choices=available_protocols())
    p_demo.add_argument("--n", type=int, default=5)
    p_demo.add_argument("--f", type=int, default=2)
    p_demo.add_argument("--value", default="hello from the SODA reproduction")
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=_cmd_demo)

    p_exp = sub.add_parser("experiment", help="run one of the paper experiments")
    p_exp.add_argument(
        "name",
        help=" | ".join(f"{name} ({text})" for name, text in _experiments().items()),
    )
    p_exp.set_defaults(given=())
    flag = partial(p_exp.add_argument, action=_Given)
    flag("--n", type=int, default=6, help="servers (a sweep's own default when not given)")
    flag("--f", type=int, default=2, help="tolerated crashes (likewise)")
    flag(
        "--delta",
        type=float,
        default=1.0,
        help="'latency' and 'tradeoff' sweep it and no sweep holds it fixed: refused",
    )
    flag("--protocol", default="SODA")
    flag("--executions", type=int, default=3, help="with 'atomicity': executions to check")
    flag("--seed", type=int, default=0)
    flag(
        "--jobs",
        type=int,
        default=1,
        help="with 'longrun'/'openloop'/'adversary': epochs simulated at once "
        "(artefacts are identical for any value)",
    )
    flag(
        "--ops",
        type=int,
        default=1_000_000,
        help="with 'longrun': total operations to stream",
    )
    flag(
        "--epoch-ops",
        type=int,
        default=25_000,
        help="with 'longrun': operations per epoch (the sharding grain; "
        "the verdict is identical for any value of --jobs)",
    )
    flag(
        "--objects",
        type=int,
        default=1,
        help="with 'longrun': number of register objects in the namespace "
        "(>1 runs the multi-object engine with per-object sharded checking)",
    )
    flag(
        "--key-dist",
        default="uniform",
        help="with 'longrun --objects N': key popularity, 'uniform' or "
        "'zipf:<theta>' (object 0 is the hottest key)",
    )
    flag(
        "--results-dir",
        default="results",
        help="with 'longrun': directory for the committed JSON/CSV artefacts",
    )
    flag(
        "--no-artefacts",
        nargs=0,
        const=True,
        default=False,
        help="with 'longrun': skip writing artefact files",
    )
    flag(
        "--fleet",
        type=int,
        default=0,
        help="with 'longrun'/'openloop'/'adversary': partition the "
        "namespace's objects into this many fleet partitions, each epoch's "
        "partitions simulating in their own spawned processes (composes "
        "with --jobs: up to jobs x fleet processes); artefacts are "
        "byte-identical for any --fleet/--jobs combination (0 disables "
        "fleet mode)",
    )
    flag(
        "--arrival",
        default="poisson:4",
        help="with 'openloop': arrival process, 'poisson[:rate]', "
        "'diurnal[:rate[:amplitude[:period]]]', "
        "'burst[:rate_on[:rate_off[:mean_on[:mean_off]]]]' or "
        "'trace:t1,t2,...' (rates are arrivals per simulated ms)",
    )
    flag(
        "--admission",
        default="drop",
        choices=ADMISSION_POLICIES,
        help="with 'openloop': what to do when the admission queue is full",
    )
    flag(
        "--queue-per-server",
        type=int,
        default=4,
        help="with 'openloop': admission queue capacity per server "
        "(total capacity = this x n)",
    )
    flag(
        "--op-timeout",
        type=float,
        default=0.0,
        help="with 'openloop': expire queued operations older than this many "
        "simulated ms at dispatch time (0 disables timeouts)",
    )
    flag(
        "--read-fraction",
        type=float,
        default=0.5,
        help="with 'openloop': fraction of arrivals that are reads",
    )
    flag(
        "--slo",
        type=float,
        default=10.0,
        help="with 'openloop': latency SLO threshold in simulated ms",
    )
    flag(
        "--clients",
        type=int,
        default=16,
        help="with 'openloop': virtual clients per object "
        "(split evenly between writers and readers)",
    )
    flag(
        "--faults",
        default="none",
        help="with 'longrun'/'openloop'/'adversary': unified fault plan, "
        "';'-separated legs 'crash[:count[:start_lo[:start_hi[:width]]]]', "
        "'slow[:count[:extra[:jitter]]]', "
        "'delayadv[:factor[:start[:duration]]]', "
        "'withhold[:short[:start[:duration[:objects]]]]', "
        "'partition[:isolated[:start[:duration]]]' or 'none' "
        "(e.g. 'withhold:1:40:30;partition:2:10:12'); every leg derives "
        "from the epoch seed",
    )
    flag(
        "--stall-threshold",
        type=float,
        default=25.0,
        help="with 'adversary': a foreground read counts as stalled once "
        "its latency exceeds this many simulated ms; audit flags must "
        "come earlier",
    )
    p_exp.set_defaults(func=_cmd_experiment)

    return parser


@contextmanager
def _backend_pinned(backend: Optional[str]):
    """Pin the GF backend ``--gf-backend`` names for one :func:`main` call,
    then put the process back as it was: a later ``main()`` in the same
    process (tests, notebooks, the benchmark's in-process CLI loop) resolves
    its own backend."""
    if backend is None:
        yield
        return
    previous_env = os.environ.get(BACKEND_ENV_VAR)
    previous_pin = set_default_backend(backend)
    # Pool workers are spawned: they resolve from the environment.
    os.environ[BACKEND_ENV_VAR] = backend
    try:
        yield
    finally:
        set_default_backend(previous_pin)
        if previous_env is None:
            os.environ.pop(BACKEND_ENV_VAR, None)
        else:
            os.environ[BACKEND_ENV_VAR] = previous_env


def main(argv: Optional[List[str]] = None) -> int:
    early, _ = _global_flags().parse_known_args(argv)
    args = early if early.version else build_parser().parse_args(argv)
    with _backend_pinned(args.gf_backend):
        if args.version:
            print(f"{_PROG} {__version__} (gf backend: {describe_backend()})")
            sys.exit(0)
        # Results and artefacts are byte-equal across backends, so this line
        # is the only place a run says which kernels it used.
        print(f"gf backend: {describe_backend()}", file=sys.stderr)
        return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
