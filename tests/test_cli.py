"""Tests for the command-line interface."""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro import __version__
from repro import cli
from repro.analysis.experiments import SWEEPS
from repro.cli import build_parser, main
from repro.consistency.checker_core import CORE
from repro.erasure.gf import KERNELS
from repro.native import NATIVE
from repro.sim.run_loop import LOOP
from tests.golden.capture_goldens import GOLDEN_DIR

#: The ``twin`` fixture's test runs on both GF backends.
TWINS = ("gf backend",)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "SODA" in out and "ABD" in out

    def test_table1(self, capsys):
        assert main(["table1", "--n", "4", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Algorithm" in out
        assert "SODA" in out

    def test_demo_soda(self, capsys):
        assert main(["demo", "--protocol", "SODA", "--n", "5", "--f", "2"]) == 0
        out = capsys.readouterr().out
        assert "storage peak" in out
        assert "hello from the SODA reproduction" in out

    def test_demo_sodaerr(self, capsys):
        assert main(["demo", "--protocol", "SODAerr", "--n", "7", "--f", "2"]) == 0
        assert "SODAerr" in capsys.readouterr().out

    def test_demo_casgc(self, capsys):
        assert main(["demo", "--protocol", "CASGC", "--n", "6", "--f", "2"]) == 0
        assert "CASGC" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table1", "--n", "5"], "table1: Table I assumes an even number of servers"),
            (["table1", "--delta", "-1"], "table1: delta (the concurrency bound) must be"),
            (["demo", "--n", "3", "--f", "2"], "demo: SodaCluster requires f <= (n-1)/2"),
            (["demo", "--protocol", "CAS", "--n", "4"], "demo: CasCluster requires f <="),
            (["demo", "--f", "-1"], "demo: f cannot be negative"),
        ],
    )
    def test_a_usage_error_exits_2_with_one_line(self, capsys, argv, message):
        """Like ``experiment <sweep>``: nothing printed, no traceback."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (_backend, line) = captured.err.splitlines()
        assert line.startswith(message)


class TestWhichBackendRan:
    """Artefacts are byte-equal across backends, so the version line and one
    stderr line per run are where a run names its kernels."""

    def test_version_names_the_resolved_backend(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out == (
            f"soda-repro {__version__} (gf backend: {KERNELS.describe()}, "
            f"run loop: {LOOP.describe()}, "
            f"checker core: {CORE.describe()})\n"
        )

    @pytest.mark.parametrize(
        "label, names",
        [
            ("run loop", "run loop: python (native unavailable: {}), "),
            ("gf backend", "gf backend: numpy (native unavailable: {}), "),
            ("checker core", "checker core: python (native unavailable: {}))"),
        ],
        ids=["run-loop", "gf-kernels", "checker-core"],
    )
    def test_version_names_a_fallback_with_its_reason(
        self, capsys, monkeypatch, label, names
    ):
        def load():
            raise RuntimeError("no C compiler on this host")

        (module,) = [module for module in NATIVE if module.label == label]
        monkeypatch.setattr(module, "load", load)
        with pytest.raises(SystemExit):
            main(["--version"])
        assert names.format("no C compiler on this host") in capsys.readouterr().out

    def test_every_run_says_so_once_on_stderr(self, capsys):
        assert main(["demo", "--protocol", "SODA", "--n", "5", "--f", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"gf backend: {KERNELS.describe()}\n"
        assert "gf backend" not in captured.out

    def test_a_fallback_comes_with_its_reason(self, capsys, twin):
        assert main(["list"]) == 0
        assert capsys.readouterr().err == (
            "gf backend: native\n"
            if twin == "native"
            else "gf backend: numpy (native unavailable: no C toolchain)\n"
        )


class TestExperiments:
    def test_list_names_every_experiment_with_its_claim(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name, sweep in SWEEPS.items():
            assert f"  {name:<12} {sweep.claim}\n" in out
        for name in ("longrun", "openloop", "adversary"):
            assert f"\n  {name} " in out
        assert "table1" in out

    @pytest.mark.parametrize("name", list(SWEEPS))
    def test_every_sweep_runs_at_its_table_defaults(self, capsys, name):
        assert main(["experiment", name]) == 0
        lines = capsys.readouterr().out.splitlines()
        golden = json.loads((GOLDEN_DIR / "paper_sweeps_seed0.json").read_text())[name]
        assert [line.split("=")[0] for line in lines] == [next(iter(row)) for row in golden]

    def test_storage(self, capsys):
        assert main(["experiment", "storage", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "predicted" in out
        assert [line.split()[:2] for line in out.splitlines()] == [
            ["n=6", "f=1"],
            ["n=6", "f=2"],
        ]

    def test_storage_means_the_table_n(self, capsys):
        assert main(["experiment", "storage"]) == 0
        assert capsys.readouterr().out.startswith("n=10  f=1  ")

    def test_write_cost_fixes_a_given_n(self, capsys):
        assert main(["experiment", "write-cost", "--n", "9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["n=9", f"f={f}"] for f in (1, 2, 3, 4)
        ]

    def test_read_cost(self, capsys):
        assert main(["experiment", "read-cost", "--n", "6", "--f", "2"]) == 0
        assert "bound" in capsys.readouterr().out

    def test_latency(self, capsys):
        assert main(["experiment", "latency", "--n", "5", "--f", "2"]) == 0
        assert "max_write_latency=" in capsys.readouterr().out

    def test_sodaerr_runs_without_flags(self, capsys):
        assert main(["experiment", "sodaerr"]) == 0
        assert capsys.readouterr().out.count("reads_correct=True") == 3

    def test_atomicity_exit_code(self, capsys):
        assert main(["experiment", "atomicity", "--protocol", "ABD",
                     "--executions", "1", "--n", "5", "--f", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("protocol=ABD  executions=1  ")
        assert "linearizable_executions=1" in out

    def test_atomicity_exits_1_when_an_execution_is_not_linearizable(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(
            "repro.analysis.experiments.check_linearizability", lambda *a, **k: False
        )
        assert main(["experiment", "atomicity", "--executions", "2"]) == 1
        out = capsys.readouterr().out
        assert "  executions=2  " in out and "  linearizable_executions=0  " in out

    def test_tradeoff(self, capsys):
        assert main(["experiment", "tradeoff"]) == 0
        assert "casgc_storage=" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiment", "nonsense"]) == 2
        assert "unknown experiment 'nonsense'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["write-cost", "--protocol", "ABD"], "write-cost: --protocol does not apply"),
            (["write-cost", "--f", "3"], "write-cost: --f is what it sweeps"),
            (["tradeoff", "--delta", "2"], "tradeoff: --delta is what it sweeps"),
            (["latency", "--delta", "1.0"], "latency: --delta is what it sweeps"),
            (["storage", "--protocol", "CAS"], "storage: --protocol does not apply"),
            (["storage", "--jobs", "4"], "storage: --jobs does not apply"),
            (["storage", "--jobs", "1"], "storage: --jobs does not apply"),
            (["skew", "--fleet", "2"], "skew: --fleet does not apply"),
            (["sodaerr", "--ops", "10"], "sodaerr: --ops does not apply"),
            (["latency", "--executions", "2"], "latency: --executions does not apply"),
            (["slow-disk", "--no-artefacts"], "slow-disk: --no-artefacts does not apply"),
            (["read-cost", "--n", "2", "--f", "2"], "read-cost: SodaCluster requires f <="),
            (["sodaerr", "--n", "6"], "sodaerr: k = n - f - 2e must be at least 1"),
            (["atomicity", "--protocol", "PAXOS"], "atomicity: unknown protocol 'PAXOS'"),
        ],
    )
    def test_a_flag_is_applied_or_refused_by_name(self, capsys, argv, message):
        """Exit 2 with one line on stderr, nothing run, no traceback."""
        assert main(["experiment", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (_backend, line) = captured.err.splitlines()
        assert line.startswith(f"experiment {message}")

    def test_there_is_no_second_positional(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "atomicity", "CASGC", "--executions", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: CASGC" in capsys.readouterr().err


class TestLongrunCommand:
    def test_longrun_writes_artefacts_and_reports_verdict(self, capsys, tmp_path):
        assert (
            main(
                [
                    "experiment",
                    "longrun",
                    "--protocol",
                    "SODA",
                    "--ops",
                    "120",
                    "--epoch-ops",
                    "60",
                    "--jobs",
                    "1",
                    "--seed",
                    "3",
                    "--results-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "merged verdict  : ATOMIC" in out
        assert "stream_max_resident" in out
        assert (tmp_path / "longrun_soda_120.json").exists()
        assert (tmp_path / "longrun_soda_120.csv").exists()
        # Peak RSS of the cell workers: on stdout, in no artefact.
        (memory,) = re.findall(r"^memory          : ([0-9.]+) MiB peak RSS", out, re.M)
        assert 1.0 < float(memory) < 4096.0
        # Peak value bytes one recorder's retired window held: same rule.
        ((records, kib),) = re.findall(
            r"^memory gauge    : stream_max_resident=(\d+) records, "
            r"([0-9.]+) KiB of values per recorder \(window 256\)$",
            out,
            re.M,
        )
        assert int(records) > 0 and 0.0 < float(kib) <= 2048.0
        for artefact in tmp_path.iterdir():
            text = artefact.read_text().lower()
            assert "rss" not in text and "value_bytes" not in text

    def test_longrun_no_artefacts(self, capsys, tmp_path):
        assert (
            main(
                [
                    "experiment",
                    "longrun",
                    "--ops",
                    "60",
                    "--epoch-ops",
                    "60",
                    "--results-dir",
                    str(tmp_path),
                    "--no-artefacts",
                ]
            )
            == 0
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("timeout", ["nan", "-5"])
    def test_an_op_timeout_that_is_nan_or_negative_exits_2(self, capsys, timeout):
        # Both used to run without timeouts: only "0" disables them.
        argv = ["experiment", "openloop", "--ops", "400", "--epoch-ops", "400"]
        assert main([*argv, "--op-timeout", timeout, "--no-artefacts"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "openloop: --op-timeout must be a non-negative number" in captured.err

    @pytest.mark.parametrize("timeout, param", [("0", None), ("2.5", 2.5)])
    def test_an_op_timeout_of_zero_disables_timeouts(self, timeout, param):
        from repro.analysis.engine import KINDS

        args = build_parser().parse_args(
            ["experiment", "openloop", "--op-timeout", timeout]
        )
        assert cli._engine_params(KINDS["openloop"], args)["op_timeout"] == param

    @pytest.mark.parametrize("threshold", ["nan", "-1", "0"])
    def test_a_stall_threshold_that_is_not_positive_exits_2(self, capsys, threshold):
        argv = ["experiment", "adversary", "--ops", "200", "--faults", "withhold:1:8:20:0"]
        assert main([*argv, "--stall-threshold", threshold, "--no-artefacts"]) == 2
        assert "adversary: stall_threshold must be positive" in capsys.readouterr().err


class TestLostCellsExit3:
    """A run that loses cells exits 3 (1 is "not atomic", 2 is usage) with
    one stderr line per lost cell and no traceback; the faults are injected
    as in ``tests/analysis/test_engine.py::TestLostCellsAreNamed``."""

    ARGV = [
        "experiment",
        "longrun",
        "--ops",
        "200",
        "--epoch-ops",
        "100",
        "--no-artefacts",
    ]

    @pytest.mark.parametrize("error", [ValueError, RuntimeError])
    def test_a_raising_cell(self, capsys, monkeypatch, tmp_path, error):
        from repro.analysis import engine

        real = engine._run_group

        def raises_in_epoch_one(cell, gids):
            if cell["epoch"] == 1:
                raise error("injected")
            return real(cell, gids)

        monkeypatch.setattr(engine, "_run_group", raises_in_epoch_one)
        assert main([*self.ARGV, "--results-dir", str(tmp_path)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[1:] == [
            f"longrun: lost longrun epoch 1 cell 0: {error.__name__}: injected"
        ]

    def test_a_dead_worker(self, capsys, monkeypatch, tmp_path):
        from repro.analysis import engine
        from repro.analysis.pool import WorkerDied

        def dies(fn, payloads, *, jobs):
            raise WorkerDied([1, 2])

        monkeypatch.setattr(engine, "iter_unordered", dies)
        argv = [*self.ARGV, "--objects", "2", "--fleet", "2", "--jobs", "2"]
        assert main([*argv, "--results-dir", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.splitlines()[1:] == [
            "longrun: lost fleet-longrun epoch 0 cell 1: its worker died",
            "longrun: lost fleet-longrun epoch 1 cell 0: its worker died",
        ]
        assert "Traceback" not in captured.err + captured.out

    def test_a_worker_out_of_address_space(self, tmp_path):
        """Under ``--jobs 2`` the cell of epoch 1 lowers its worker's
        ``RLIMIT_AS`` and allocates past it: one lost-cell line naming the
        ``MemoryError`` (or the dead worker, if the allocator aborts it)."""
        tests = Path(__file__).resolve().parent
        done = subprocess.run(
            [
                sys.executable,
                str(tests / "analysis" / "pool_payloads.py"),
                *self.ARGV,
                "--jobs",
                "2",
                "--results-dir",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])},
        )
        assert done.returncode == 3, done.stderr
        lost = [line for line in done.stderr.splitlines() if " lost " in line]
        assert len(lost) == 1, done.stderr
        assert re.match(
            r"longrun: lost longrun epoch 1 cell 0: "
            r"(MemoryError: |its worker died$)",
            lost[0],
        ), lost
        assert "Traceback" not in done.stderr + done.stdout


def _pool_workers(pid):
    """The spawn-pool workers among ``pid``'s children."""
    workers = []
    for child in Path(f"/proc/{pid}/task/{pid}/children").read_text().split():
        try:
            if b"spawn_main" in Path(f"/proc/{child}/cmdline").read_bytes():
                workers.append(int(child))
        except FileNotFoundError:
            pass  # exited between the two reads
    return workers


def _ignores_sigint(pid):
    """Whether ``pid`` has installed ``SIG_IGN`` for SIGINT (the pool's
    worker initializer has run)."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    mask = int(re.search(r"^SigIgn:\s*([0-9a-f]+)", status, re.M).group(1), 16)
    return bool(mask >> (signal.SIGINT - 1) & 1)


def _alive(pid):
    """Running, not a zombie and not gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc")
class TestInterrupt:
    """^C in the middle of ``experiment longrun`` exits 130 at once, with
    one stderr line and no traceback: the parent terminates its pool's
    workers instead of waiting for their cells (each far longer than the
    timeout here), and leaves no ``*.tmp`` behind and no worker alive."""

    def _interrupt(self, tmp_path, jobs, *, whole_group):
        argv = ["experiment", "longrun", "--ops", "400000", "--epoch-ops", "100000"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv, "--jobs", str(jobs)]
            + ["--results-dir", str(tmp_path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parent.parent)},
            start_new_session=True,  # a group of its own, for killpg
        )
        try:
            backend_line = proc.stderr.readline()  # printed before the run starts
            workers = []
            deadline = time.monotonic() + 60
            while jobs > 1 and time.monotonic() < deadline:
                workers = _pool_workers(proc.pid)
                if len(workers) == jobs and all(map(_ignores_sigint, workers)):
                    break
                time.sleep(0.05)
            assert len(workers) == (jobs if jobs > 1 else 0)
            time.sleep(1.0)  # into the cells
            if whole_group:  # a terminal's ^C
                os.killpg(proc.pid, signal.SIGINT)
            else:
                proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert backend_line.startswith("gf backend:")
        assert proc.returncode == 130, err
        assert err.splitlines() == ["longrun: interrupted"]
        assert "Traceback" not in out + err
        assert list(tmp_path.glob("*.tmp")) == []
        assert not any(map(_alive, workers))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_sigint_to_the_parent(self, tmp_path, jobs):
        self._interrupt(tmp_path, jobs, whole_group=False)

    def test_sigint_to_the_process_group(self, tmp_path):
        self._interrupt(tmp_path, 2, whole_group=True)


class TestMultiObjectLongrunCommand:
    def test_parser_accepts_objects_and_key_dist(self):
        args = build_parser().parse_args(
            ["experiment", "longrun", "--objects", "8", "--key-dist", "zipf:1.1"]
        )
        assert args.objects == 8
        assert args.key_dist == "zipf:1.1"

    def test_parser_defaults_to_single_object(self):
        args = build_parser().parse_args(["experiment", "longrun"])
        assert args.objects == 1
        assert args.key_dist == "uniform"

    def test_removed_checker_workers_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "longrun", "--objects", "2", "--checker-workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --checker-workers" in capsys.readouterr().err

    def test_multiobj_run_writes_artefacts_and_reports_verdicts(
        self, capsys, tmp_path
    ):
        assert (
            main(
                [
                    "experiment",
                    "longrun",
                    "--protocol",
                    "SODA",
                    "--ops",
                    "120",
                    "--epoch-ops",
                    "60",
                    "--objects",
                    "3",
                    "--key-dist",
                    "zipf:1.5",
                    "--seed",
                    "3",
                    "--results-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "namespace       : ATOMIC" in out
        assert "hottest object  : o0" in out
        assert "object o0" in out and "object o2" in out
        assert (tmp_path / "multiobj_soda_3x120.json").exists()
        assert (tmp_path / "multiobj_soda_3x120.csv").exists()

    def test_zero_objects_exits_2(self, capsys):
        assert (
            main(["experiment", "longrun", "--ops", "20", "--objects", "0"]) == 2
        )
        assert "--objects must be at least 1" in capsys.readouterr().err

    def test_key_dist_without_objects_exits_2(self, capsys):
        assert (
            main(
                [
                    "experiment",
                    "longrun",
                    "--ops",
                    "20",
                    "--key-dist",
                    "zipf:1.1",
                ]
            )
            == 2
        )
        assert "no effect on a single register" in capsys.readouterr().err

    def test_invalid_key_dist_exits_2(self, capsys):
        assert (
            main(
                [
                    "experiment",
                    "longrun",
                    "--ops",
                    "20",
                    "--objects",
                    "2",
                    "--key-dist",
                    "hotcold",
                    "--no-artefacts",
                ]
            )
            == 2
        )
        assert "unknown key distribution" in capsys.readouterr().err
