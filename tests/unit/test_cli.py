"""Unit tests for the command-line interface (and the pool() front door)."""

import pytest

from repro.cli import build_parser, main
from repro.util.errors import BackendError, ValidationError


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_permute_defaults(self):
        args = build_parser().parse_args(["permute", "--n", "100"])
        assert args.command == "permute"
        assert args.procs == 4
        assert args.matrix_algorithm == "root"

    def test_matrix_requires_sizes(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_transport_flag_parsed(self):
        args = build_parser().parse_args(
            ["permute", "--n", "10", "--backend", "process", "--transport", "sharedmem"]
        )
        assert args.transport == "sharedmem"
        assert build_parser().parse_args(["permute", "--n", "10"]).transport is None

    def test_transport_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["permute", "--n", "10", "--transport", "carrier-pigeon"]
            )

    def test_persistent_flag_parsed(self):
        args = build_parser().parse_args(
            ["permute", "--n", "10", "--backend", "process", "--persistent",
             "--repeats", "3"]
        )
        assert args.persistent and args.repeats == 3
        assert not build_parser().parse_args(["permute", "--n", "10"]).persistent

    def test_schedule_seed_parsed_on_permute_and_matrix(self):
        args = build_parser().parse_args(
            ["permute", "--n", "10", "--backend", "sim", "--schedule-seed", "7"]
        )
        assert args.backend == "sim" and args.schedule_seed == 7
        args = build_parser().parse_args(
            ["matrix", "--sizes", "4,4", "--backend", "sim", "--schedule-seed", "0"]
        )
        assert args.schedule_seed == 0
        assert build_parser().parse_args(["permute", "--n", "10"]).schedule_seed is None

    def test_sim_backend_is_a_choice_everywhere(self):
        for argv in (["permute", "--n", "10", "--backend", "sim"],
                     ["matrix", "--sizes", "4,4", "--backend", "sim"]):
            assert build_parser().parse_args(argv).backend == "sim"

    def test_retries_and_deadline_parsed_on_permute_and_matrix(self):
        args = build_parser().parse_args(
            ["permute", "--n", "10", "--retries", "3", "--deadline", "2.5"])
        assert args.retries == 3 and args.deadline == 2.5
        args = build_parser().parse_args(
            ["matrix", "--sizes", "4,4", "--retries", "2"])
        assert args.retries == 2 and args.deadline is None
        defaults = build_parser().parse_args(["permute", "--n", "10"])
        assert defaults.retries is None and defaults.deadline is None


class TestCommands:
    def test_permute(self, capsys):
        code = main(["permute", "--n", "200", "--procs", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "permuted 200 items" in out
        assert "Per-processor resource usage" in out

    def test_permute_alg6(self, capsys):
        code = main(["permute", "--n", "60", "--procs", "3", "--seed", "1",
                     "--matrix-algorithm", "alg6"])
        assert code == 0
        assert "permuted 60 items" in capsys.readouterr().out

    @pytest.mark.subprocess
    def test_permute_process_transport(self, capsys):
        code = main(["permute", "--n", "200", "--procs", "2", "--seed", "1",
                     "--backend", "process", "--transport", "sharedmem"])
        assert code == 0
        assert "permuted 200 items" in capsys.readouterr().out

    @pytest.mark.subprocess
    def test_permute_persistent_repeats(self, capsys):
        code = main(["permute", "--n", "200", "--procs", "2", "--seed", "1",
                     "--backend", "process", "--persistent", "--repeats", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "run 3/3" in out
        assert "process persistent backend" in out

    def test_transport_rejected_for_thread_backend(self):
        with pytest.raises(ValidationError, match="does not accept"):
            main(["permute", "--n", "50", "--backend", "thread",
                  "--transport", "sharedmem"])

    def test_permute_sim_schedule_seed(self, capsys):
        code = main(["permute", "--n", "300", "--procs", "4", "--seed", "1",
                     "--backend", "sim", "--schedule-seed", "13"])
        out = capsys.readouterr().out
        assert code == 0
        assert "permuted 300 items" in out and "sim backend" in out

    def test_permute_sim_results_match_thread_backend(self, capsys):
        outputs = []
        for extra in (["--backend", "thread"],
                      ["--backend", "sim", "--schedule-seed", "5"]):
            assert main(["permute", "--n", "120", "--procs", "3",
                         "--seed", "9", *extra]) == 0
            out = capsys.readouterr().out
            outputs.append(next(line for line in out.splitlines()
                                if line.startswith("first ")))
        assert outputs[0] == outputs[1]

    def test_schedule_seed_rejected_for_thread_backend(self):
        with pytest.raises(ValidationError, match="does not accept"):
            main(["permute", "--n", "50", "--backend", "thread",
                  "--schedule-seed", "3"])

    def test_repeats_clamped_to_at_least_one(self, capsys):
        code = main(["permute", "--n", "60", "--procs", "2", "--seed", "1",
                     "--repeats", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "permuted 60 items" in out and "run 0/" not in out

    def test_matrix_sequential(self, capsys):
        code = main(["matrix", "--sizes", "5,5,5", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "row sums   : [5, 5, 5]" in out

    def test_matrix_parallel_with_targets(self, capsys):
        code = main(["matrix", "--sizes", "4,4,4", "--target-sizes", "6,3,3",
                     "--algorithm", "alg6", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "column sums: [6, 3, 3]" in out

    def test_matrix_sim_backend_matches_thread(self, capsys):
        outputs = []
        for extra in (["--backend", "thread"],
                      ["--backend", "sim", "--schedule-seed", "4"]):
            assert main(["matrix", "--sizes", "5,5,5", "--algorithm", "alg5",
                         "--seed", "11", *extra]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.subprocess
    def test_matrix_process_transport(self, capsys):
        code = main(["matrix", "--sizes", "6,6", "--algorithm", "root",
                     "--backend", "process", "--transport", "pickle",
                     "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "row sums   : [6, 6]" in out

    @pytest.mark.subprocess
    def test_matrix_persistent_pool(self, capsys):
        code = main(["matrix", "--sizes", "5,5", "--algorithm", "alg6",
                     "--backend", "process", "--persistent", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "row sums   : [5, 5]" in out

    def test_matrix_transport_rejected_on_sequential_path(self):
        with pytest.raises(ValidationError, match="parallel"):
            main(["matrix", "--sizes", "5,5", "--transport", "pickle"])

    def test_matrix_persistent_rejected_on_sequential_path(self):
        with pytest.raises(ValidationError, match="parallel"):
            main(["matrix", "--sizes", "5,5", "--persistent"])

    def test_matrix_schedule_seed_rejected_on_sequential_path(self):
        with pytest.raises(ValidationError, match="parallel"):
            main(["matrix", "--sizes", "5,5", "--schedule-seed", "2"])

    def test_permute_with_retries_matches_unsupervised_run(self, capsys):
        argv = ["permute", "--n", "120", "--procs", "3", "--seed", "9",
                "--backend", "thread"]
        assert main(argv + ["--retries", "2", "--deadline", "60"]) == 0
        supervised = capsys.readouterr().out
        assert main(argv) == 0
        plain = capsys.readouterr().out

        # Supervision only changes what happens on failure: a healthy run
        # prints the identical permutation and cost table (the wall-clock
        # header line is timing noise, so it is excluded).
        def _stable(out):
            return [line for line in out.splitlines() if "wall clock" not in line]

        assert _stable(supervised) == _stable(plain)

    def test_matrix_retries_rejected_on_sequential_path(self):
        with pytest.raises(ValidationError, match="parallel"):
            main(["matrix", "--sizes", "5,5", "--retries", "2"])

    def test_scaling_paper(self, capsys):
        code = main(["scaling", "--paper"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overhead factor" in out
        assert "crossover at p = 6" in out

    def test_scaling_measured(self, capsys):
        code = main(["scaling", "--measure", "5000", "--procs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Measured on this machine" in out

    def test_uniformity(self, capsys):
        code = main(["uniformity", "--n", "4", "--procs", "2", "--samples", "1500", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "uniformity NOT rejected" in out

    def test_randoms(self, capsys):
        code = main(["randoms", "--procs", "6", "--items-per-proc", "100", "--matrices", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "uniforms per call" in out


    @pytest.mark.subprocess
    @pytest.mark.slow
    def test_scaling_measured_with_transport(self, capsys):
        code = main(["scaling", "--measure", "3000", "--procs", "2",
                     "--backend", "process", "--transport", "pickle"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Measured on this machine" in out


def _allreduce_program(ctx):
    return ctx.comm.allreduce(ctx.rank)


def _raise_program(ctx):
    raise RuntimeError("boom inside the pool")


@pytest.mark.subprocess
class TestPoolContextManagerErrorPaths:
    """pool() must release its standing fleet on *every* exit path."""

    def test_body_exception_still_closes_the_fleet(self):
        from repro.pro.backends.pool import pool

        with pytest.raises(RuntimeError, match="user code"):
            with pool(2, seed=0) as machine:
                assert machine.run(_allreduce_program).results == [1, 1]
                saved = machine
                raise RuntimeError("user code went wrong")
        assert not saved.backend._pools  # fleet released, nothing standing

    def test_failed_run_propagates_and_fleet_is_released(self):
        from repro.pro.backends.pool import pool

        with pytest.raises(BackendError, match="rank"):
            with pool(2, seed=0) as machine:
                saved = machine
                machine.run(_raise_program)
        assert not saved.backend._pools

    def test_poisoned_fleet_inside_the_context(self):
        from repro.pro.backends.pool import pool

        with pool(2, seed=0) as machine:
            with pytest.raises(BackendError):
                machine.run(_raise_program)
            with pytest.raises(BackendError, match="poisoned"):
                machine.run(_allreduce_program)

    def test_invalid_n_procs_raises_before_spawning(self):
        from repro.pro.backends.pool import pool

        with pytest.raises(ValidationError):
            with pool(0, seed=0):
                pass  # pragma: no cover - never entered

    def test_invalid_transport_raises_before_spawning(self):
        from repro.pro.backends.pool import pool

        with pytest.raises(ValidationError, match="transport"):
            with pool(2, seed=0, transport="carrier-pigeon"):
                pass  # pragma: no cover - never entered

    def test_machine_usable_again_after_context_exit(self):
        from repro.pro.backends.pool import pool

        with pool(2, seed=0) as machine:
            first = machine.run(_allreduce_program).results
        # exiting closed the fleet; a later run simply respawns one
        assert machine.run(_allreduce_program).results == first
        machine.close()


class TestStatsAndTelemetry:
    def test_stats_parser_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.command == "stats"
        assert args.procs == 4 and args.n == 100_000 and args.seed == 0
        assert args.json is None

    def test_telemetry_json_flag_on_permute_and_matrix(self):
        args = build_parser().parse_args(
            ["permute", "--n", "10", "--telemetry-json", "out.json"])
        assert args.telemetry_json == "out.json"
        args = build_parser().parse_args(
            ["matrix", "--sizes", "4,4", "--telemetry-json", "out.json"])
        assert args.telemetry_json == "out.json"
        assert build_parser().parse_args(
            ["permute", "--n", "10"]).telemetry_json is None

    def test_stats_prints_a_fleet_report(self, capsys):
        assert main(["stats", "--n", "2000", "--procs", "2",
                     "--backend", "thread"]) == 0
        out = capsys.readouterr().out
        assert "fleet report: backend=thread" in out
        assert "kernel tier" in out
        assert "resilience: no retries" in out

    def test_stats_json_dumps_every_report(self, tmp_path, capsys):
        import json

        path = tmp_path / "fleet.json"
        assert main(["stats", "--n", "2000", "--procs", "2",
                     "--backend", "thread", "--repeats", "3",
                     "--json", str(path)]) == 0
        reports = json.loads(path.read_text())
        assert len(reports) == 3
        for report in reports:
            assert report["schema"] == 2
            assert len(report["ranks"]) == 2
        assert "3 fleet report(s)" in capsys.readouterr().out

    def test_permute_verbose_routes_through_fleet_report(self, capsys):
        assert main(["permute", "--n", "2000", "--procs", "2",
                     "--seed", "5", "--verbose"]) == 0
        out = capsys.readouterr().out
        # One formatting path: the verbose block IS FleetReport.summary().
        assert "fleet report: backend=thread" in out
        assert "rank 0: kernel tier" in out
        assert "rank 1: transport" in out

    def test_permute_telemetry_json_writes_the_report(self, tmp_path, capsys):
        import json

        path = tmp_path / "fleet.json"
        assert main(["permute", "--n", "2000", "--procs", "2",
                     "--telemetry-json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["schema"] == 2 and report["n_procs"] == 2
        assert f"fleet report written to {path}" in capsys.readouterr().out

    def test_matrix_sequential_rejects_telemetry_json(self):
        with pytest.raises(ValidationError, match="parallel"):
            main(["matrix", "--sizes", "4,4", "--telemetry-json", "out.json"])

    def test_matrix_parallel_telemetry_json(self, tmp_path):
        import json

        path = tmp_path / "fleet.json"
        assert main(["matrix", "--sizes", "4,4,4", "--algorithm", "alg6",
                     "--seed", "3", "--telemetry-json", str(path)]) == 0
        report = json.loads(path.read_text())
        assert report["backend"] == "thread" and report["n_procs"] == 3


class TestExploreCommand:
    def test_explore_smoke_with_json_report(self, tmp_path, capsys):
        import json

        path = tmp_path / "coverage.json"
        code = main(["explore", "--budget", "25", "--programs", "alg5",
                     "--procs", "2", "--plans", "committed",
                     "--baseline", "10", "--json", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "distinct trace fingerprints" in out
        assert "coverage ratio" in out
        report = json.loads(path.read_text())
        assert report["schema"] == 1
        assert report["budget"] == 25
        assert report["baseline"]["draws"] == 10
        assert report["cells"]

    def test_explore_findings_exit_code_and_commit(self, tmp_path):
        code = main(["explore", "--budget", "40", "--programs", "racy-append",
                     "--procs", "4", "--plans", "none",
                     "--commit", str(tmp_path)])
        assert code == 3  # findings are a failure for CI
        assert list(tmp_path.glob("test_repro_*.py"))

    def test_explore_min_distinct_gate(self, capsys):
        code = main(["explore", "--budget", "12", "--programs", "alg5",
                     "--procs", "2", "--plans", "none",
                     "--min-distinct", "10000"])
        assert code == 4
        assert "coverage regression" in capsys.readouterr().out

    def test_explore_parser_defaults(self):
        args = build_parser().parse_args(["explore"])
        assert args.budget == 500
        assert args.plans == "auto"
        assert args.procs == "2,4,8"
        assert args.min_distinct is None
