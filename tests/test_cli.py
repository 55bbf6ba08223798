from __future__ import annotations

import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import terrainguard.cli as cli_module
import terrainguard.solver as solver_module
from terrainguard import (
    CoverMatrix,
    GuardSolution,
    InfeasibilityReport,
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
        monkeypatch.setattr(cli_module, "solve_matrix", lambda m, allow_partial: wrong)
        path = request.getfixturevalue(fixture)
        assert run(["--input", path, "--oracle"]) == EXIT_ORACLE_MISMATCH
        assert f"oracle: MISMATCH ({message})" in capsys.readouterr().err

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

    def test_oracle_rejects_large_terrains(self, tmp_path, capsys):
        from terrainguard import GenSpec, random_terrain

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

    def test_visibility_is_computed_once(self, capsys, monkeypatch):
        calls = []
        relation = solver_module.visibility_relation

        def counting(t):
            calls.append(t)
            return relation(t)

        monkeypatch.setattr(cli_module, "visibility_relation", counting)
        monkeypatch.setattr(solver_module, "visibility_relation", counting)
        assert run(["--random", "5:6", "--oracle", "--matrix", "--allow-partial"]) == EXIT_OK
        assert capsys.readouterr().out == RANDOM_5_6_REPORT
        assert len(calls) == 1

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
