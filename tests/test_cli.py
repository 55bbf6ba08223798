from __future__ import annotations

import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import terrainguard.cli as cli_module
import terrainguard.visibility as visibility_module
from terrainguard import (
    CoverMatrix,
    GenSpec,
    GuardSolution,
    InfeasibilityReport,
    Terrain,
    random_terrain,
    serialize,
    solve,
    validate,
    visibility_relation,
)
from terrainguard.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_ORACLE_MISMATCH,
    MAX_RANDOM_STEPS,
    format_report,
    run,
)
from tests.conftest import SINGLE_STEP_UP, SQUARE_VALLEY
from tests.test_solver import MIXED_FEASIBILITY

VALLEY_REPORT = """\
status: optimal
guards: 2
guard 0 0 10 RR
guard 3 10 10 LR
assign 1 <- 3
assign 2 <- 0
"""

# no reflex vertex of this seeded terrain sees a convex one
RANDOM_5_6_REPORT = """\
cols: 10 8 6 4 2 1
row 0: 000000
row 11: 000000
row 9: 000000
row 7: 000000
row 5: 000000
row 3: 000000
status: partial
guards: 0
unguardable: 6
unguardable 0 0 0 RC
unguardable 3 4 -1 LC
unguardable 5 11 -11 LC
unguardable 7 12 -17 LC
unguardable 9 17 -21 LC
unguardable 11 19 -28 LC
oracle: match (0 = 0)
"""


@pytest.fixture
def valley_file(tmp_path):
    path = tmp_path / "valley.txt"
    path.write_text(serialize(validate(SQUARE_VALLEY)))
    return str(path)


@pytest.fixture
def step_file(tmp_path):
    path = tmp_path / "step.txt"
    path.write_text(serialize(validate(SINGLE_STEP_UP)))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text(serialize(validate(MIXED_FEASIBILITY)))
    return str(path)


class TestRun:
    def test_optimal_report(self, valley_file, capsys):
        assert run(["--input", valley_file]) == EXIT_OK
        assert capsys.readouterr().out == VALLEY_REPORT

    def test_infeasible(self, step_file, capsys):
        assert run(["--input", step_file]) == EXIT_INFEASIBLE
        out = capsys.readouterr().out
        assert out.startswith("status: infeasible\n")
        assert "unguardable: 1" in out
        assert "unguardable 0 0 0 RC" in out

    def test_allow_partial(self, mixed_file, capsys):
        assert run(["--input", mixed_file, "--allow-partial"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("status: partial\n")
        assert "guards: 2" in out
        assert "assign 3 <- 5" in out
        assert "unguardable 0 0 0 RC" in out

    def test_infeasible_without_flag_keeps_exit_two(self, mixed_file):
        assert run(["--input", mixed_file]) == EXIT_INFEASIBLE

    def test_oracle_match(self, valley_file, capsys):
        assert run(["--input", valley_file, "--oracle"]) == EXIT_OK
        assert "oracle: match (2 = 2)" in capsys.readouterr().out

    def test_oracle_match_infeasible(self, step_file, capsys):
        assert run(["--input", step_file, "--oracle"]) == EXIT_INFEASIBLE
        assert "oracle: match (infeasible)" in capsys.readouterr().out

    def test_oracle_mismatch_exits_three(self, valley_file, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "brute_force_optimum", lambda m: (99, ()))
        assert run(["--input", valley_file, "--oracle"]) == EXIT_ORACLE_MISMATCH
        captured = capsys.readouterr()
        assert "MISMATCH" in captured.err

    def test_oracle_checks_partial_covers(self, mixed_file, capsys):
        assert run(["--input", mixed_file, "--oracle", "--allow-partial"]) == EXIT_OK
        assert capsys.readouterr().out.endswith("oracle: match (2 = 2)\n")

    def test_oracle_mismatch_on_partial_cover_exits_three(self, mixed_file, capsys, monkeypatch):
        monkeypatch.setattr(cli_module, "brute_force_optimum", lambda m: (1, (0,)))
        assert run(["--input", mixed_file, "--oracle", "--allow-partial"]) == EXIT_ORACLE_MISMATCH
        assert "oracle: MISMATCH (greedy 2 != optimum 1)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fixture, wrong, message",
        [
            ("valley_file", InfeasibilityReport((1,)), "solver infeasible, oracle found a cover"),
            ("step_file", GuardSolution((), {}), "oracle infeasible, solver found a cover"),
        ],
    )
    def test_oracle_flags_feasibility_disagreement(
        self, request, capsys, monkeypatch, fixture, wrong, message
    ):
        monkeypatch.setattr(cli_module, "solve", lambda t, allow_partial: wrong)
        path = request.getfixturevalue(fixture)
        assert run(["--input", path, "--oracle"]) == EXIT_ORACLE_MISMATCH
        assert f"oracle: MISMATCH ({message})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "wrong, vertex",
        [
            (GuardSolution((0, 3), {1: 0, 2: 3}), 1),  # right size, guards that do not see
            (GuardSolution((0, 3), {2: 0}), 1),  # a target left out
            (GuardSolution((0, 3), {0: 3, 1: 3, 2: 0}), 0),  # a reflex vertex assigned
            (GuardSolution((0, 3), {1: 3, 2: 1}), 2),  # a guard not in the solution
            (GuardSolution((0, 2, 3), {1: 3, 2: 2}), 2),  # a target guarding itself
        ],
        ids=["blind-guards", "missing-target", "extra-target", "unchosen-guard", "self-guard"],
    )
    def test_oracle_checks_the_assignment(self, valley_file, capsys, monkeypatch, wrong, vertex):
        monkeypatch.setattr(cli_module, "solve", lambda t, allow_partial: wrong)
        assert run(["--input", valley_file, "--oracle"]) == EXIT_ORACLE_MISMATCH
        assert f"oracle: MISMATCH (assignment of vertex {vertex})" in capsys.readouterr().err

    def test_oracle_checks_visibility_pairwise(self, valley_file, capsys, monkeypatch):
        relation = cli_module.visibility_relation

        def drop_guards_of_vertex_1(t):
            rel = relation(t)
            rows = list(rel.rows)
            rows[rel.row_labels.index(1)] = ()
            return CoverMatrix(rows, rel.row_labels, rel.col_labels)

        monkeypatch.setattr(cli_module, "visibility_relation", drop_guards_of_vertex_1)
        assert run(["--input", valley_file, "--oracle"]) == EXIT_ORACLE_MISMATCH
        # dropping guard 3 leaves target 1 without its guard
        assert "oracle: MISMATCH (visibility of vertex 1)" in capsys.readouterr().err

    def test_pipeline_never_reads_relation_pairs(self, mixed_file, capsys, monkeypatch):
        t = validate(MIXED_FEASIBILITY)
        argv = ["--input", mixed_file, "--oracle", "--matrix", "--allow-partial"]
        expected_solution = solve(t, allow_partial=True)
        assert run(argv) == EXIT_OK
        expected_out = capsys.readouterr().out

        reads = []
        pairs = CoverMatrix.pairs

        def counted(rel):
            reads.append(rel)
            return pairs.fget(rel)

        monkeypatch.setattr(CoverMatrix, "pairs", property(counted))
        assert solve(t, allow_partial=True) == expected_solution
        assert run(argv) == EXIT_OK
        assert capsys.readouterr().out == expected_out
        assert reads == []
        # the counter is live: a direct read is seen
        rel = visibility_relation(t)
        assert rel.pairs == pairs.fget(rel)
        assert reads == [rel]

    def test_report_never_builds_classes(self, valley_file, step_file, mixed_file, capsys, monkeypatch):
        """The report classes each printed vertex alone: without --matrix,
        --svg or --oracle a run never builds Terrain.classes."""

        for t in (validate(MIXED_FEASIBILITY), random_terrain(GenSpec(seed=5, steps=300))):
            format_report(t, solve(t, allow_partial=True))
            assert "classes" not in vars(t)
        argvs = [
            ["--input", valley_file],
            ["--input", step_file],
            ["--input", mixed_file, "--allow-partial"],
            ["--random", "5:300", "--allow-partial"],
        ]
        expected = []
        for argv in argvs:
            expected.append((run(argv), capsys.readouterr().out))

        def unbuilt(t):
            raise AssertionError("Terrain.classes was built")

        monkeypatch.setattr(Terrain, "classes", property(unbuilt))
        for argv, (code, out) in zip(argvs, expected):
            assert run(argv) == code
            assert capsys.readouterr().out == out

    def test_oracle_rejects_large_terrains(self, tmp_path, capsys):
        path = tmp_path / "big.txt"
        path.write_text(serialize(random_terrain(GenSpec(seed=3, steps=30))))
        assert run(["--input", str(path), "--oracle"]) == EXIT_INPUT_ERROR
        assert "25" in capsys.readouterr().err

    def test_matrix_dump(self, valley_file, capsys):
        assert run(["--input", valley_file, "--matrix"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("cols: 0 3\nrow 2: 10\nrow 1: 01\n")
        assert "status: optimal" in out

    def test_svg_output(self, valley_file, tmp_path, capsys):
        svg_path = tmp_path / "valley.svg"
        assert run(["--input", valley_file, "--svg", str(svg_path)]) == EXIT_OK
        text = svg_path.read_text()
        ET.fromstring(text)
        assert text.count('class="guard"') == 2

    def test_svg_on_infeasible_draws_terrain_only(self, step_file, tmp_path):
        svg_path = tmp_path / "step.svg"
        assert run(["--input", step_file, "--svg", str(svg_path), "--quiet"]) == EXIT_INFEASIBLE
        text = svg_path.read_text()
        ET.fromstring(text)
        assert 'class="guard"' not in text

    def test_unwritable_svg_is_an_input_error(self, tmp_path, capsys):
        svg_path = tmp_path / "no" / "such" / "dir" / "x.svg"
        assert run(["--random", "1:3", "--svg", str(svg_path)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert captured.out.startswith("status: ")

    def test_quiet(self, valley_file, capsys):
        assert run(["--input", valley_file, "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_random_source_deterministic(self, capsys):
        assert run(["--random", "5:6"]) in (EXIT_OK, EXIT_INFEASIBLE)
        first = capsys.readouterr().out
        run(["--random", "5:6"])
        assert capsys.readouterr().out == first

    def test_missing_file(self, capsys):
        assert run(["--input", "/nonexistent/terrain.txt"]) == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 0\n5 5\n")
        assert run(["--input", str(path)]) == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, sweeps, relations",
        [
            ([], 0, 0),
            (["--matrix"], 2, 1),
            (["--oracle"], 2, 1),
            (["--oracle", "--matrix"], 2, 1),
            (["--matrix", "--quiet"], 0, 0),
        ],
        ids=["default", "matrix", "oracle", "oracle-matrix", "matrix-quiet"],
    )
    def test_sweeps_per_run(self, valley_file, capsys, monkeypatch, flags, sweeps, relations):
        # solve runs once and makes its own passes; only a printed --matrix and
        # --oracle build the matrix, with one visibility sweep pass per side
        passes, built, solved = [], [], []
        sweep, relation, solver = visibility_module._sweep, cli_module.visibility_relation, cli_module.solve

        def counting_sweep(*args):
            passes.append(args)
            return sweep(*args)

        def counting_relation(t):
            built.append(t)
            return relation(t)

        def counting_solve(*args):
            solved.append(args)
            return solver(*args)

        monkeypatch.setattr(visibility_module, "_sweep", counting_sweep)
        monkeypatch.setattr(cli_module, "visibility_relation", counting_relation)
        monkeypatch.setattr(cli_module, "solve", counting_solve)
        assert run(["--input", valley_file, *flags]) == EXIT_OK
        out = capsys.readouterr().out
        if "--quiet" in flags:
            assert out == ""
        else:
            assert VALLEY_REPORT in out
        assert (len(passes), len(built), len(solved)) == (sweeps, relations, 1)

    def test_matrix_and_oracle_report(self, capsys):
        assert run(["--random", "5:6", "--oracle", "--matrix", "--allow-partial"]) == EXIT_OK
        assert capsys.readouterr().out == RANDOM_5_6_REPORT

    def test_random_steps_are_capped(self, capsys, monkeypatch):
        def never(spec):
            raise AssertionError(f"generated {spec.steps} steps past the cap")

        monkeypatch.setattr(cli_module, "random_terrain", never)
        assert run(["--random", f"1:{MAX_RANDOM_STEPS + 1}"]) == EXIT_INPUT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_random_steps_cap_is_checked_before_the_generator_bounds(self, capsys):
        # 2e8 steps also overflow GenSpec's coordinate bound; the cap speaks first
        assert run(["--random", "1:200000000"]) == EXIT_INPUT_ERROR
        assert f"at most {MAX_RANDOM_STEPS} steps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argument",
        ["nope", "\u0661:\u0663", " 5:6", "1_0:3", "5:6 ", "5:"],
        ids=["nope", "arabic-indic-digits", "leading-blank", "underscore", "trailing-blank", "no-steps"],
    )
    def test_bad_random_argument(self, capsys, argument):
        assert run(["--random", argument]) == EXIT_INPUT_ERROR
        assert "SEED:STEPS" in capsys.readouterr().err

    def test_random_takes_a_negative_seed_as_the_next_argument(self, capsys):
        assert run(["--random=-5:6", "--allow-partial"]) == EXIT_OK
        attached = capsys.readouterr().out
        assert run(["--random", "-5:6", "--allow-partial"]) == EXIT_OK
        assert capsys.readouterr().out == attached

    @pytest.mark.parametrize("option", ["--r", "--rand"])
    def test_random_abbreviation_takes_a_negative_seed(self, capsys, option):
        attached_code = run(["--random=-5:6"])
        attached = capsys.readouterr().out
        assert run([option, "-5:6"]) == attached_code
        assert capsys.readouterr().out == attached

    def test_random_does_not_take_an_option_as_its_value(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--random", "--input", "x"])
        assert exc.value.code == 2  # argparse usage error

    def test_requires_a_source(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2  # argparse usage error

    def test_parser_is_built_once_per_process(self, valley_file, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run built a second argument parser")

        monkeypatch.setattr(cli_module.argparse, "ArgumentParser", refuse)
        assert run(["--input", valley_file]) == EXIT_OK
        assert run(["--input", valley_file]) == EXIT_OK
        assert capsys.readouterr().out == VALLEY_REPORT * 2


def test_module_runs_as_a_script():
    src = str(Path(cli_module.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "terrainguard.cli", "--random", "1:3", "--allow-partial"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("status: ")


def test_package_runs_as_a_module(capsys):
    src = str(Path(cli_module.__file__).resolve().parents[1])
    argv = ["--random", "5:6", "--allow-partial"]
    proc = subprocess.run(
        [sys.executable, "-m", "terrainguard", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert run(argv) == EXIT_OK
    assert proc.stdout == capsys.readouterr().out
