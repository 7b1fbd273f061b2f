"""Tests for the command-line interface."""

import json
import os
import re

import pytest

from repro import __version__
from repro import cli
from repro.analysis.experiments import SWEEPS
from repro.cli import build_parser, main
from repro.erasure import gf_native
from repro.erasure.gf import default_backend, describe_backend, set_default_backend
from tests.golden.capture_goldens import GOLDEN_DIR


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


    def test_removed_split_gf_backend_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["--gf-backend", "split", "list"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'split'" in capsys.readouterr().err
        assert build_parser().parse_args(["--gf-backend", "numpy", "list"])


class TestWhichBackendRan:
    """Artefacts are byte-equal across backends, so the version line and one
    stderr line per run are where a run names its kernels."""

    @pytest.fixture(autouse=True)
    def unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_GF_BACKEND", raising=False)
        yield
        set_default_backend(None)

    def test_version_names_the_resolved_backend(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out == f"soda-repro {__version__} (gf backend: {describe_backend()})\n"

    def test_every_run_says_so_once_on_stderr(self, capsys):
        assert main(["demo", "--protocol", "SODA", "--n", "5", "--f", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.err == f"gf backend: {describe_backend()}\n"
        assert "gf backend" not in captured.out

    def test_a_fallback_comes_with_its_reason(self, capsys, monkeypatch):
        def load():
            raise RuntimeError("no C compiler on this host")

        monkeypatch.setattr(gf_native, "load", load)
        assert main(["list"]) == 0
        assert capsys.readouterr().err == (
            "gf backend: numpy (native unavailable: no C compiler on this host)\n"
        )

    def test_explicit_flag_reaches_spawned_workers(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_GF_BACKEND", "native")
        seen = []

        def list_command(args):
            seen.append(os.environ["REPRO_GF_BACKEND"])
            return 0

        monkeypatch.setattr(cli, "_cmd_list", list_command)
        assert main(["--gf-backend", "numpy", "list"]) == 0
        assert capsys.readouterr().err == "gf backend: numpy\n"
        # Pool and checker workers resolve from the environment they inherit
        # while the command runs ...
        assert seen == ["numpy"]
        # ... and the caller's environment is its own again afterwards.
        assert os.environ["REPRO_GF_BACKEND"] == "native"

    @pytest.mark.parametrize("env_before", [None, "native"])
    def test_the_flag_pins_one_call_not_the_process(self, capsys, monkeypatch, env_before):
        if env_before is not None:
            monkeypatch.setenv("REPRO_GF_BACKEND", env_before)
        before = default_backend()
        assert main(["--gf-backend", "numpy", "list"]) == 0
        assert capsys.readouterr().err == "gf backend: numpy\n"
        assert os.environ.get("REPRO_GF_BACKEND") == env_before
        assert default_backend() == before
        # The next main() in the same process resolves its own backend.
        assert main(["list"]) == 0
        assert capsys.readouterr().err == f"gf backend: {describe_backend()}\n"

    def test_a_failing_command_still_unpins(self, monkeypatch):
        def boom(args):
            raise RuntimeError("command failed")

        monkeypatch.setattr(cli, "_cmd_list", boom)
        before = default_backend()
        with pytest.raises(RuntimeError, match="command failed"):
            main(["--gf-backend", "numpy", "list"])
        assert "REPRO_GF_BACKEND" not in os.environ
        assert default_backend() == before

    def test_a_pin_made_by_the_caller_survives(self):
        set_default_backend("numpy")
        assert main(["--gf-backend", "numpy", "list"]) == 0
        assert default_backend() == "numpy"

    @pytest.mark.parametrize(
        "argv",
        [["--gf-backend", "numpy", "--version"], ["--version", "--gf-backend", "numpy"]],
    )
    def test_version_names_the_backend_the_flags_select(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == f"soda-repro {__version__} (gf backend: numpy)\n"
        assert "REPRO_GF_BACKEND" not in os.environ


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
