"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve", "mr-kcenter"])
        assert args.command == "mr-kcenter"
        assert args.dataset == "higgs"
        assert args.k == 20

    def test_figure_defaults(self):
        args = build_parser().parse_args(["figure2"])
        assert args.figure == "figure2"
        assert args.n_points == 2000

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure99"])

    def test_backend_defaults(self):
        args = build_parser().parse_args(["solve", "mr-kcenter"])
        assert args.backend is None
        assert args.workers is None

    def test_backend_choices(self):
        args = build_parser().parse_args(
            ["solve", "mr-outliers", "--backend", "processes", "--workers", "2"]
        )
        assert args.backend == "processes"
        # --workers stays a string at parse time: it is either a pool size
        # or a distributed address list, resolved per backend by the handler.
        assert args.workers == "2"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "mr-kcenter", "--backend", "spark"])

    def test_backend_rejected_where_not_honored(self):
        # Subcommands that would silently ignore the knob must reject it.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "sequential-kcenter", "--backend", "serial"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure2", "--backend", "processes"])
        args = build_parser().parse_args(["figure7", "--backend", "processes"])
        assert args.backend == "processes"

    @pytest.mark.parametrize("command", [["solve", "stream-outliers"], ["figure5"]])
    def test_batch_size_must_be_positive(self, command, capsys):
        assert build_parser().parse_args([*command, "--batch-size", "1"]).batch_size == 1
        for value in ("0", "-2", "x"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args([*command, "--batch-size", value])
            assert excinfo.value.code != 0
            assert "--batch-size: must be an integer >= 1" in capsys.readouterr().err


class TestMain:
    def test_solve_mr_kcenter(self, capsys):
        exit_code = main([
            "solve", "mr-kcenter", "--dataset", "power",
            "--n-points", "300", "--k", "5", "--ell", "2", "--mu", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "MapReduceKCenter" in output
        assert "radius" in output

    def test_solve_mr_kcenter_from_stream(self, capsys):
        exit_code = main([
            "solve", "mr-kcenter", "--dataset", "power",
            "--n-points", "600", "--k", "5", "--ell", "2", "--mu", "2",
            "--from-stream", "--chunk-size", "128",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "streamed" in output
        assert "coordinator_peak" in output

    def test_solve_mr_outliers_from_stream(self, capsys):
        exit_code = main([
            "solve", "mr-outliers", "--dataset", "higgs",
            "--n-points", "600", "--k", "5", "--z", "10",
            "--ell", "2", "--mu", "2", "--randomized",
            "--from-stream", "--chunk-size", "100",
        ])
        assert exit_code == 0
        assert "streamed" in capsys.readouterr().out

    def test_solve_mr_kcenter_from_stream_disk_storage(self, capsys, tmp_path):
        exit_code = main([
            "solve", "mr-kcenter", "--dataset", "power",
            "--n-points", "600", "--k", "5", "--ell", "2", "--mu", "2",
            "--from-stream", "--chunk-size", "128",
            "--storage", "disk", "--spill-dir", str(tmp_path),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "disk" in output
        assert "spilled_bytes" in output
        # Spill files are cleaned up after the run.
        assert list(tmp_path.glob("*.npy")) == []

    def test_solve_mr_kcenter_in_memory_honours_storage_flags(self, capsys, tmp_path):
        # Without --from-stream the dataset is built in memory, but the
        # storage flags still reach the shuffle rather than being ignored.
        spill_dir = tmp_path / "spill"
        exit_code = main([
            "solve", "mr-kcenter", "--dataset", "power",
            "--n-points", "600", "--k", "5", "--ell", "2", "--mu", "2",
            "--chunk-size", "128", "--storage", "disk", "--spill-dir", str(spill_dir),
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "streamed" not in output
        assert "disk" in output
        assert spill_dir.is_dir()
        assert list(spill_dir.glob("*.npy")) == []

    def test_solve_mr_outliers_from_stream_auto_spills_over_budget(self, capsys):
        exit_code = main([
            "solve", "mr-outliers", "--dataset", "higgs",
            "--n-points", "600", "--k", "5", "--z", "10",
            "--ell", "2", "--mu", "2", "--randomized",
            "--from-stream", "--chunk-size", "100",
            "--storage", "auto", "--memory-budget-mb", "0.001",
        ])
        assert exit_code == 0
        assert "disk" in capsys.readouterr().out

    def test_non_positive_memory_budget_rejected(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            main([
                "solve", "mr-kcenter", "--dataset", "power",
                "--n-points", "300", "--k", "5", "--ell", "2", "--mu", "2",
                "--from-stream", "--memory-budget-mb", "-1",
            ])

    def test_storage_choices_rejected(self):
        for storage in ("tape", "shared"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["solve", "mr-kcenter", "--from-stream", "--storage", storage]
                )

    def test_from_stream_rejected_on_non_mr_commands(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["solve", "sequential-kcenter", "--from-stream"]
            )

    def test_solve_mr_outliers_randomized(self, capsys):
        exit_code = main([
            "solve", "mr-outliers", "--dataset", "higgs",
            "--n-points", "300", "--k", "5", "--z", "10",
            "--ell", "2", "--mu", "2", "--randomized",
        ])
        assert exit_code == 0
        assert "randomized" in capsys.readouterr().out

    def test_solve_mr_kcenter_on_threads_backend(self, capsys):
        exit_code = main([
            "solve", "mr-kcenter", "--dataset", "power",
            "--n-points", "300", "--k", "5", "--ell", "2", "--mu", "2",
            "--backend", "threads", "--workers", "2",
        ])
        assert exit_code == 0
        assert "threads" in capsys.readouterr().out

    def test_solve_mr_kcenter_on_distributed_backend(self, capsys):
        from repro.mapreduce import LocalCluster

        with LocalCluster(2) as cluster:
            exit_code = main([
                "solve", "mr-kcenter", "--dataset", "power",
                "--n-points", "300", "--k", "5", "--ell", "2", "--mu", "2",
                "--backend", "distributed", "--workers", ",".join(cluster.addresses),
            ])
        assert exit_code == 0
        assert "distributed" in capsys.readouterr().out

    def test_solve_mr_outliers_distributed_from_stream_disk(self, capsys, tmp_path):
        from repro.mapreduce import LocalCluster

        with LocalCluster(2) as cluster:
            exit_code = main([
                "solve", "mr-outliers", "--dataset", "higgs",
                "--n-points", "400", "--k", "5", "--z", "10",
                "--ell", "2", "--mu", "2", "--randomized",
                "--from-stream", "--chunk-size", "100",
                "--storage", "disk", "--spill-dir", str(tmp_path),
                "--backend", "distributed", "--workers", ",".join(cluster.addresses),
            ])
        assert exit_code == 0
        assert "streamed" in capsys.readouterr().out
        assert list(tmp_path.glob("*.npy")) == []

    def test_distributed_memory_storage_rejected(self):
        from repro.exceptions import InvalidParameterError

        # Refused before a worker is contacted: the address needs no daemon.
        with pytest.raises(InvalidParameterError, match="distributed"):
            main([
                "solve", "mr-kcenter", "--dataset", "power",
                "--n-points", "300", "--k", "5", "--ell", "2", "--mu", "2",
                "--backend", "distributed", "--workers", "127.0.0.1:9",
                "--storage", "memory",
            ])

    def test_distributed_requires_worker_addresses(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="--workers"):
            main([
                "solve", "mr-kcenter", "--n-points", "200", "--k", "4",
                "--backend", "distributed",
            ])

    def test_non_integer_workers_rejected_for_pool_backends(self):
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="integer count"):
            main([
                "solve", "mr-kcenter", "--n-points", "200", "--k", "4",
                "--backend", "threads", "--workers", "host:7071",
            ])

    def test_worker_subcommand_parses(self):
        args = build_parser().parse_args(
            ["worker", "--listen", "127.0.0.1:7071", "--spill-dir", "/tmp/x"]
        )
        assert args.listen == "127.0.0.1:7071"
        assert args.spill_dir == "/tmp/x"

    def test_solve_sequential_outliers(self, capsys):
        exit_code = main([
            "solve", "sequential-outliers", "--dataset", "wiki",
            "--n-points", "200", "--k", "4", "--z", "8", "--mu", "2",
        ])
        assert exit_code == 0
        assert "SequentialKCenterOutliers" in capsys.readouterr().out

    def test_solve_sequential_kcenter(self, capsys):
        exit_code = main([
            "solve", "sequential-kcenter", "--dataset", "power",
            "--n-points", "200", "--k", "4",
        ])
        assert exit_code == 0
        assert "GMM" in capsys.readouterr().out

    def test_ablation_partitioning_figure(self, capsys):
        exit_code = main([
            "ablation-partitioning", "--n-points", "300", "--k", "5", "--z", "10",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "configuration" in output
        assert "randomized" in output

    def test_figure6_scaling(self, capsys):
        exit_code = main([
            "figure6", "--n-points", "150", "--k", "4", "--z", "8", "--seed", "1",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "size_factor" in output
        assert "points_per_s" in output

    def test_ablation_coreset(self, capsys):
        exit_code = main([
            "ablation-coreset", "--n-points", "250", "--k", "5",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "rule" in output
        assert "epsilon" in output
