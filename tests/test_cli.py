"""End-to-end tests for the command line, driven in process through main()."""

import json

import pytest

from coercion_forge import cli
from coercion_forge.harness import Verdict
from coercion_forge.surface import parse_program

LOOP = "letrec loop (x:Int) : Int = loop x\nin loop 0"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("COERCION_FORGE_FUEL", raising=False)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_value(self, capsys):
        assert run(capsys, "eval", "-e", "5") == (0, "5\n", "")

    def test_coerced_value(self, capsys):
        code, out, err = run(capsys, "eval", "-e", "5<Int!>")
        assert (code, out) == (0, "5<<Int!>>\n")

    def test_blame_exits_one(self, capsys):
        code, out, err = run(capsys, "eval", "-e", "5<Int!><Bool?^p>")
        assert (code, out) == (1, "blame p\n")

    def test_parse_error_exits_two(self, capsys):
        code, out, err = run(capsys, "eval", "-e", "5 +")
        assert code == 2
        assert out == ""
        assert err.startswith("error: <expr>: line 1:4: expected a term")

    def test_type_error_exits_two(self, capsys):
        code, out, err = run(capsys, "eval", "-e", "(\\x:Int. x x) 5")
        assert code == 2
        assert "type error" in err

    def test_no_input_exits_two(self, capsys):
        code, _, err = run(capsys, "eval")
        assert code == 2
        assert "no input given" in err

    def test_fuel_flag_exits_four(self, capsys, tmp_path):
        f = tmp_path / "loop.lams"
        f.write_text(LOOP)
        code, out, err = run(capsys, "eval", str(f), "--fuel", "100")
        assert code == 4
        assert out == ""
        assert "out of fuel after 100 steps" in err

    def test_fuel_env_var(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "loop.lams"
        f.write_text(LOOP)
        monkeypatch.setenv("COERCION_FORGE_FUEL", "10")
        code, _, err = run(capsys, "eval", str(f))
        assert code == 4
        assert "out of fuel after 10 steps" in err

    def test_fuel_flag_overrides_env(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "loop.lams"
        f.write_text(LOOP)
        monkeypatch.setenv("COERCION_FORGE_FUEL", "banana")
        code, _, err = run(capsys, "eval", str(f), "--fuel", "20")
        assert code == 4
        assert "out of fuel after 20 steps" in err

    def test_bad_fuel_env_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("COERCION_FORGE_FUEL", "banana")
        code, _, err = run(capsys, "eval", "-e", "5")
        assert code == 2
        assert "COERCION_FORGE_FUEL must be an integer" in err

    def test_nonpositive_fuel_exits_two(self, capsys):
        code, _, err = run(capsys, "eval", "-e", "5", "--fuel", "-3")
        assert code == 2
        assert "--fuel must be positive" in err

    def test_trace_ends_with_the_value(self, capsys):
        code, out, _ = run(capsys, "eval", "samples/example1.lams", "--trace")
        lines = out.splitlines()
        assert code == 0
        assert lines[-2] == "step 10 c R-Crc: 5<<Int!>>"
        assert lines[-1] == "5<<Int!>>"

    def test_metrics_line(self, capsys):
        code, out, _ = run(capsys, "eval", "-e", "5", "--metrics")
        assert code == 0
        assert out.splitlines() == [
            "5",
            '{"n": 0, "steps": 0, "maxCoercionSize": 0,'
            ' "maxTermSize": 1, "maxMetricF": 0}',
        ]

    def test_lamsx_dialect_expression(self, capsys):
        code, out, _ = run(capsys, "eval", "-e",
                           "let k = Int! ;; Int?^p in 5<k>",
                           "--dialect", "lamsx")
        assert (code, out) == (0, "5\n")


class TestCheck:
    def test_inline_expression(self, capsys):
        assert run(capsys, "check", "-e", "\\x:Int. x + 1") == (
            0, "Int -> Int\n", "")

    def test_file_dialect_comes_from_the_extension(self, capsys, tmp_path):
        f = tmp_path / "prog.lamsx"
        f.write_text("(\\ (x:Int, k:Int). x<k>)(5, Int!)")
        assert run(capsys, "check", str(f)) == (0, "Dyn\n", "")

    def test_unknown_extension_exits_two(self, capsys, tmp_path):
        f = tmp_path / "prog.txt"
        f.write_text("5")
        code, _, err = run(capsys, "check", str(f))
        assert code == 2
        assert "cannot infer dialect" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "nope.lams"))
        assert code == 2
        assert "cannot read" in err


class TestTranslate:
    def test_output_reparses_and_is_deterministic(self, capsys):
        code, out1, _ = run(capsys, "translate", "samples/idfun.lams")
        assert code == 0
        assert out1 == "\\ (x:Int, k0:Int). (x + 1)<k0>\n"
        parse_program(out1.strip(), "lamsx")
        _, out2, _ = run(capsys, "translate", "samples/idfun.lams")
        assert out1 == out2

    def test_rejects_target_dialect_files(self, capsys, tmp_path):
        f = tmp_path / "prog.lamsx"
        f.write_text("5")
        code, _, err = run(capsys, "translate", str(f))
        assert code == 2
        assert "translate takes a lams program" in err

    def test_rejects_target_dialect_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["translate", "-e", "5", "--dialect", "lamsx"])
        assert e.value.code == 2


class TestSimcheck:
    def test_passing_program(self, capsys):
        code, out, _ = run(capsys, "simcheck", "samples/example1.lams")
        assert code == 0
        assert json.loads(out)["kind"] == "agree"

    def test_failing_verdict_exits_three(self, capsys, monkeypatch):
        forced = Verdict("invariant-violation", "forced")
        monkeypatch.setattr(cli.harness, "simulationCheck",
                            lambda p, max_steps=250: forced)
        code, out, _ = run(capsys, "simcheck", "samples/example1.lams")
        assert code == 3
        assert json.loads(out)["kind"] == "invariant-violation"


class TestFuzz:
    def test_seed_range(self, capsys):
        code, out, err = run(capsys, "fuzz", "--seeds", "0..3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        for i, line in enumerate(lines):
            v = json.loads(line)
            assert v["kind"] == "agree"
            assert v["seed"] == i
        assert "4 runs: 4 agree, 0 disagree" in err

    def test_single_seed(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seeds", "7")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_bad_seed_range_exits_two(self, capsys):
        code, _, err = run(capsys, "fuzz", "--seeds", "a..b")
        assert code == 2
        assert "--seeds wants" in err

    def test_empty_seed_range_exits_two(self, capsys):
        code, _, err = run(capsys, "fuzz", "--seeds", "5..2")
        assert code == 2
        assert "empty seed range" in err


class TestBench:
    def test_report_only(self, capsys):
        code, out, _ = run(capsys, "bench", "evenodd", "4")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 4
        assert report["steps"] == 28

    def test_trace_layout(self, capsys):
        code, out, _ = run(capsys, "bench", "evenodd", "2", "--trace")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "odd 2"
        assert lines[1].startswith("step 1 ")
        assert json.loads(lines[-1])["steps"] == 16
        assert len(lines) == 18

    def test_target_dialect(self, capsys):
        code, out, _ = run(capsys, "bench", "evenodd", "2",
                           "--dialect", "lamsx")
        assert code == 0
        assert json.loads(out)["maxTermSize"] == 32

    def test_negative_n_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["bench", "evenodd", "-1"])
        assert e.value.code == 2


class TestInternalErrors:
    SUM = " + ".join(["1"] * 3000)
    NESTED = "(" * 1500 + "1" + ")" * 1500
    WIDE = " + ".join(["1"] * 400)

    @pytest.mark.parametrize("argv", [
        ("eval", "-e", SUM),
        ("eval", "-e", NESTED),
        ("translate", "-e", WIDE),
    ], ids=["eval-3000-term-sum", "eval-1500-parentheses", "translate-400-term-sum"])
    def test_deep_input_never_exits_as_blame(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code != cli.EXIT_BLAME
        assert "Traceback" not in err
        assert len(err.splitlines()) <= 1

    def test_an_unexpected_exception_exits_five_in_one_line(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("broken\ninterpreter")

        monkeypatch.setattr(cli.lam_s, "evaluate_program", broken)
        assert run(capsys, "eval", "-e", "5") == (
            5, "", "error: internal: RuntimeError: broken interpreter\n")
