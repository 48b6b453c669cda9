"""End-to-end CLI behavior: output text, exit codes, determinism."""

import json
import re
import shlex
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from wfano import WeightSystem, fermat_support, save_support
from wfano import cli as cli_module
from wfano.cli import cli, parse_weight_system

from conftest import FIXTURES, GOLDEN

X60_PATH = str(FIXTURES / "x60_p3454_15_30.json")


@pytest.fixture()
def runner():
    return CliRunner()


class TestParseWeightSystem:
    def test_basic(self):
        assert parse_weight_system("1,1,2,3:6") == WeightSystem((1, 1, 2, 3), 6)

    def test_canonicalizes(self):
        assert parse_weight_system("3,1,2:6") == WeightSystem((1, 2, 3), 6)

    def test_missing_degree(self):
        with pytest.raises(ValueError, match="lacks"):
            parse_weight_system("1,2,3")

    def test_non_integer(self):
        with pytest.raises(ValueError, match="non-integer"):
            parse_weight_system("a,b:6")

    def test_nonpositive_degree(self):
        with pytest.raises(ValueError, match="positive"):
            parse_weight_system("1,1:0")


class TestEnumerate:
    def test_tsv_exact(self, runner):
        result = runner.invoke(cli, ["enumerate", "--dim", "2", "--index", "1", "--format", "tsv"])
        assert result.exit_code == 0
        assert result.output == (
            "weights\tdegree\n"
            "1 1 1 1\t3\n"
            "1 1 1 2\t4\n"
            "1 1 2 3\t6\n"
            "3 3 5 5\t15\n"
        )

    def test_deterministic(self, runner):
        args = ["enumerate", "--dim", "3", "--index", "1", "--format", "json"]
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_json_parses(self, runner):
        result = runner.invoke(cli, ["enumerate", "--dim", "2", "--index", "1", "--format", "json"])
        payload = json.loads(result.output)
        assert payload[0] == {"weights": [1, 1, 1, 1], "degree": 3}
        assert len(payload) == 4

    def test_out_file_matches_stdout(self, runner, tmp_path):
        target = tmp_path / "out.tsv"
        piped = runner.invoke(cli, ["enumerate", "--dim", "2", "--index", "1", "--format", "tsv"])
        written = runner.invoke(
            cli,
            ["enumerate", "--dim", "2", "--index", "1", "--format", "tsv", "--out", str(target)],
        )
        assert written.exit_code == 0
        assert written.output == ""
        assert target.read_text(encoding="utf-8") == piped.output

    def test_out_into_missing_directory(self, runner, tmp_path):
        target = tmp_path / "missing" / "out.tsv"
        result = runner.invoke(
            cli, ["enumerate", "--dim", "2", "--index", "1", "--out", str(target)]
        )
        assert result.exit_code == 4
        assert "error:" in result.output

    def test_index_two_needs_dmax(self, runner):
        result = runner.invoke(cli, ["enumerate", "--dim", "2", "--index", "2"])
        assert result.exit_code == 2
        assert "d_max is required" in result.output

    def test_index_two_bounded(self, runner):
        result = runner.invoke(
            cli, ["enumerate", "--dim", "2", "--index", "2", "--dmax", "12", "--format", "tsv"]
        )
        assert result.exit_code == 0
        assert len(result.output.splitlines()) == 10  # header plus nine systems


def test_table1_matches_golden():
    result = CliRunner().invoke(cli, ["table1"])
    assert result.exit_code == 0
    assert result.output == (GOLDEN / "table1.md").read_text(encoding="utf-8")


class TestAnalyze:
    def test_stable_sextic(self, runner):
        result = runner.invoke(cli, ["analyze", "1,1,2,3,6:12"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verdict"] == "k_stable"
        assert payload["member_class"] == "any_quasi_smooth"
        assert payload["alpha"] == {"num": 5, "den": 6, "case": "star"}
        assert "alpha >= 5/6" in result.output
        assert "K-stable" in result.output

    def test_canonicalizes_input(self, runner):
        result = runner.invoke(cli, ["analyze", "3,30,4,5,4,15:60"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["system"] == {"weights": [3, 4, 4, 5, 15, 30], "degree": 60}

    def test_unknown_is_exit_zero_without_strict(self, runner):
        result = runner.invoke(cli, ["analyze", "3,4,4,5,15,30:60"])
        assert result.exit_code == 0
        assert json.loads(result.output)["verdict"] == "unknown"

    def test_strict_exit_three(self, runner):
        result = runner.invoke(cli, ["analyze", "3,4,4,5,15,30:60", "--strict"])
        assert result.exit_code == 3

    def test_strict_passes_on_decided(self, runner):
        result = runner.invoke(cli, ["analyze", "1,1,2,3:6", "--strict"])
        assert result.exit_code == 0

    def test_fermat_member(self, runner):
        result = runner.invoke(cli, ["analyze", "2,3,3,3,3,3:6", "--member", "fermat"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verdict"] == "k_unstable"
        assert payload["aut_finite"] is False

    def test_general_member(self, runner):
        result = runner.invoke(cli, ["analyze", "3,3,5,5:15", "--member", "general"])
        payload = json.loads(result.output)
        assert payload["member_class"] == "general"
        assert payload["trace"][0]["criterion"] == "index_vs_dimension"

    def test_with_support_records_both_planners(self, runner):
        result = runner.invoke(
            cli, ["analyze", "3,4,4,5,15,30:60", "--support", X60_PATH]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        cover = [e for e in payload["trace"] if e["criterion"] == "smooth_cover"]
        assert len(cover) == 2
        assert "every quasi-smooth member" in cover[0]["conclusion"]
        assert "the given member" in cover[1]["conclusion"]

    def test_support_not_quasi_smooth(self, runner, tmp_path):
        path = tmp_path / "z0.json"
        rows = [[20, 0, 0, 0, 0, 0]]
        path.write_text(json.dumps({"weights": [3, 4, 4, 5, 15, 30], "degree": 60, "monomials": rows}))
        result = runner.invoke(cli, ["analyze", "3,4,4,5,15,30:60", "--support", str(path)])
        assert result.exit_code == 2
        assert "error: the given member is not quasi-smooth at the variables [1]" in result.output

    def test_support_parse_error(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops", encoding="utf-8")
        result = runner.invoke(cli, ["analyze", "1,1,2,3:6", "--support", str(bad)])
        assert result.exit_code == 2
        assert "support parse error" in result.output

    def test_support_not_utf8(self, runner, tmp_path):
        bad = tmp_path / "utf16.json"
        bad.write_bytes(b"\xff\xfe{}")
        result = runner.invoke(cli, ["analyze", "1,1,2,3:6", "--support", str(bad)])
        assert result.exit_code == 2
        assert "support parse error" in result.output

    def test_support_row_error(self, runner, tmp_path):
        bad = tmp_path / "bad_row.json"
        bad.write_text('{"weights": [1, 2], "degree": 4, "monomials": [[0, 2, 0]]}', encoding="utf-8")
        result = runner.invoke(cli, ["analyze", "1,1,2,3:6", "--support", str(bad)])
        assert result.exit_code == 2
        assert "monomial has 3 exponents, ambient has 2 weights" in result.output

    def test_support_bool_exponent(self, runner, tmp_path):
        bad = tmp_path / "bool_row.json"
        bad.write_text('{"weights": [1, 2], "degree": 4, "monomials": [[2, true]]}', encoding="utf-8")
        result = runner.invoke(cli, ["analyze", "1,1,2,3:6", "--support", str(bad)])
        assert result.exit_code == 2
        assert "exponents must be non-negative integers" in result.output

    def test_rejects_unknown_member_flag(self, runner):
        result = runner.invoke(cli, ["analyze", "1,1,2,3:6", "--member", "generic"])
        assert result.exit_code == 2

    def test_validation_error(self, runner):
        result = runner.invoke(cli, ["analyze", "1,2,4:6"])
        assert result.exit_code == 2
        assert "error:" in result.output


class TestAlphaCommand:
    def test_star_system(self, runner):
        result = runner.invoke(cli, ["alpha", "1,1,2,3,6:12"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "system: 1,1,2,3,6:12",
            "cover: universal route found (3 cover steps)",
            "alpha >= 5/6 (case star)",
            "assumption: smooth cover exists for a general member",
        ]

    def test_unavailable_without_cover(self, runner):
        result = runner.invoke(cli, ["alpha", "3,4,4,5,15,30:60"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "system: 3,4,4,5,15,30:60",
            "cover: no universal route found (witness (0, 0, 1, 3, 0, 9) at position 2)",
            "alpha: unavailable (no smooth cover established)",
        ]

    def test_precondition_failure(self, runner):
        result = runner.invoke(cli, ["alpha", "2,2,3:6"])
        assert result.exit_code == 2
        assert "well-formed" in result.output


class TestFermatCommand:
    def test_stable(self, runner):
        result = runner.invoke(cli, ["fermat", "1,1,2,3,6:12"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "system: 1,1,2,3,6:12",
            "margin: 3",
            "aut_finite: finite",
            "verdict: k_stable",
        ]

    def test_unstable(self, runner):
        result = runner.invoke(cli, ["fermat", "2,3,3,3,3,3:6"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "system: 2,3,3,3,3,3:6",
            "margin: -1",
            "aut_finite: criterion silent",
            "verdict: k_unstable",
        ]

    def test_cone_rejected(self, runner):
        result = runner.invoke(cli, ["fermat", "1,2,3,6:6"])
        assert result.exit_code == 2


class TestStarCheck:
    def test_violation(self, runner):
        result = runner.invoke(cli, ["star-check", "--support", X60_PATH])
        assert result.exit_code == 5
        assert result.output.splitlines()[0] == (
            "star violation: monomial (17, 1, 1, 0, 0, 0) at position 1 (weight 4)"
        )

    def test_holds(self, runner, tmp_path):
        path = tmp_path / "fermat.json"
        save_support(fermat_support(WeightSystem((1, 1, 2, 3), 6)), path)
        result = runner.invoke(cli, ["star-check", "--support", str(path)])
        assert result.exit_code == 0
        assert result.output == "star condition holds\n"

    def test_single_position(self, runner):
        result = runner.invoke(cli, ["star-check", "--support", X60_PATH, "--index", "3"])
        assert result.exit_code == 0
        assert result.output == "star condition holds\n"

    def test_position_out_of_range(self, runner):
        result = runner.invoke(cli, ["star-check", "--support", X60_PATH, "--index", "9"])
        assert result.exit_code == 2
        assert "out of range" in result.output

    def test_weight_one_position_rejected(self, runner, tmp_path):
        path = tmp_path / "fermat.json"
        save_support(fermat_support(WeightSystem((1, 1, 2, 3), 6)), path)
        result = runner.invoke(cli, ["star-check", "--support", str(path), "--index", "0"])
        assert result.exit_code == 2

    def test_missing_file_is_io_error(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["star-check", "--support", str(tmp_path / "absent.json")]
        )
        assert result.exit_code == 4


class TestCoverPlan:
    def test_universal_success(self, runner):
        result = runner.invoke(cli, ["cover-plan", "1,1,2,3:6"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "step 1: cover at position 2",
            "step 2: cover at position 3",
            "plan: success, final weights (1, 1, 1, 1)",
        ]

    def test_universal_failure(self, runner):
        result = runner.invoke(cli, ["cover-plan", "3,4,4,5,15,30:60"])
        assert result.exit_code == 5
        assert result.output.splitlines() == [
            "step 1: cover at position 4",
            "step 2: cover at position 5",
            "plan: failure, monomial (0, 0, 1, 3, 0, 9) at position 2 "
            "over weights (1, 1, 3, 4, 4, 5)",
        ]

    def test_support_failure(self, runner):
        result = runner.invoke(
            cli, ["cover-plan", "3,4,4,5,15,30:60", "--support", X60_PATH]
        )
        assert result.exit_code == 5
        assert result.output.splitlines() == [
            "plan: failure, monomial (17, 1, 1, 0, 0, 0) at position 1 "
            "over weights (3, 4, 5, 4, 15, 30)",
        ]

    def test_support_substitution(self, runner, tmp_path):
        path = tmp_path / "sub.json"
        path.write_text('{"weights": [1, 2], "degree": 4, "monomials": [[4, 0], [2, 1], [0, 2]]}')
        result = runner.invoke(cli, ["cover-plan", "1,2:4", "--support", str(path)])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "step 1: substitute at position 1 with (2, 0)",
            "step 2: cover at position 1",
            "plan: success, final weights (1, 1)",
        ]

    def test_support_substitution_too_large(self, runner, tmp_path):
        # the planner substitutes z_1 -> z_1 + z_0^2 into z_1^a: a + 1 rows
        a = 100_000_001
        path = tmp_path / "large.json"
        rows = [[0, a, 0, 0], [2 * a - 2, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
        path.write_text(json.dumps({"weights": [1, 2, a, a], "degree": 2 * a, "monomials": rows}))
        result = runner.invoke(cli, ["cover-plan", f"1,2,{a},{a}:{2 * a}", "--support", str(path)])
        assert result.exit_code == 2
        assert "would add up to 100000002 rows, more than 10000; not decided" in result.output

    def test_support_not_quasi_smooth(self, runner, tmp_path):
        # {z_0^20} covers to weights all 1, but the theorems need a quasi-smooth member
        path = tmp_path / "z0.json"
        rows = [[20, 0, 0, 0, 0, 0]]
        path.write_text(json.dumps({"weights": [3, 4, 4, 5, 15, 30], "degree": 60, "monomials": rows}))
        result = runner.invoke(cli, ["cover-plan", "3,4,4,5,15,30:60", "--support", str(path)])
        assert result.exit_code == 2
        assert result.output.startswith("error: the given member is not quasi-smooth at the variables [1]")

    def test_support_mismatch(self, runner):
        result = runner.invoke(cli, ["cover-plan", "1,1,2,3:6", "--support", X60_PATH])
        assert result.exit_code == 2
        assert "does not match" in result.output

    def test_flag_conflict(self, runner):
        result = runner.invoke(
            cli, ["cover-plan", "1,1,2,3:6", "--support", X60_PATH, "--universal"]
        )
        assert result.exit_code == 2
        assert "mutually exclusive" in result.output


class TestVerifyLemmas:
    def test_default_dims(self, runner):
        result = runner.invoke(cli, ["verify-lemmas"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "dims 2,3: 34 systems checked, 0 violations",
            "minimal non-representable triple gap up to 30: 48 at (3, 4, 5)",
        ]

    def test_single_dim(self, runner):
        result = runner.invoke(cli, ["verify-lemmas", "--dims", "2"])
        assert result.exit_code == 0
        assert "dims 2: 4 systems checked, 0 violations" in result.output

    def test_empty_dims(self, runner):
        result = runner.invoke(cli, ["verify-lemmas", "--dims", ""])
        assert result.exit_code == 0
        assert "dims none: 0 systems checked, 0 violations" in result.output

    def test_wrong_gap_is_condition_not_met(self, runner, monkeypatch):
        monkeypatch.setattr(cli_module, "minimal_triple_gap", lambda bound: (47, (3, 4, 5)))
        result = runner.invoke(cli, ["verify-lemmas", "--dims", ""])
        assert result.exit_code == 5
        assert "gap up to 30: 47 at (3, 4, 5)" in result.output

    def test_violation_is_condition_not_met(self, runner, monkeypatch):
        monkeypatch.setattr(cli_module, "check_lemma_ineq", lambda system: SimpleNamespace(passed=False))
        result = runner.invoke(cli, ["verify-lemmas", "--dims", "2"])
        assert result.exit_code == 5
        assert result.output.splitlines() == [
            "violation: 1,1,1,1:3",
            "violation: 1,1,1,2:4",
            "violation: 1,1,2,3:6",
            "violation: 3,3,5,5:15",
            "dims 2: 4 systems checked, 4 violations",
            "minimal non-representable triple gap up to 30: 48 at (3, 4, 5)",
        ]

    def test_bad_dims_is_validation_error(self, runner):
        result = runner.invoke(cli, ["verify-lemmas", "--dims", "x"])
        assert result.exit_code == 2


def readme_examples():
    """(command line, expected stdout) of every `$ wfano ...` block in README.md,
    except the abridged ones, which elide output as `[ ... ]`."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```$", readme, flags=re.M | re.S):
        command, _, output = block.partition("\n")
        if command.startswith("$ wfano ") and "[ ... ]" not in output:
            examples.append(pytest.param(command[2:], output, id=command[2:]))
    return examples


def test_readme_has_examples():
    assert len(readme_examples()) >= 5


@pytest.mark.parametrize("command, output", readme_examples())
def test_readme_example(runner, command, output):
    result = runner.invoke(cli, shlex.split(command)[1:])
    assert result.exit_code == 0
    assert result.output == output
