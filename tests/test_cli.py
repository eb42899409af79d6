"""End-to-end tests for the command line, driven in process through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coercion_forge import cli, lam_s, lam_sx
from coercion_forge.harness import SpaceReport, Verdict
from coercion_forge.surface import parse_program

LOOP = "letrec loop (x:Int) : Int = loop x\nin loop 0"
SAMPLES = sorted((Path(__file__).resolve().parents[1] / "samples").glob("*.lams"))


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

    def test_a_run_may_take_all_its_fuel(self, capsys):
        assert run(capsys, "eval", "--fuel", "1", "-e", "1 + 2") == (0, "3\n", "")

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

    def test_metrics_report_the_peak_sizes(self, capsys):
        code, out, _ = run(capsys, "eval", "--metrics", "samples/evenodd.lams")
        assert code == 0
        assert out.splitlines()[-1] == (
            '{"n": 0, "steps": 28, "maxCoercionSize": 2, "maxTermSize": 22, "maxMetricF": 30}')

    @pytest.mark.parametrize("trace", [(), ("--trace",)])
    @pytest.mark.parametrize("sample", SAMPLES, ids=lambda f: f.name)
    def test_metrics_are_the_peaks_of_the_plugged_states(self, capsys, sample, trace):
        # sized from each step's focus and frames, with and without the
        # trace reading every state first
        p = parse_program(sample.read_text(), "lams")
        sizes = [lam_s.measure(p.main)]
        out = lam_s.evaluate_program(p, on_step=lambda k, r: sizes.append(lam_s.measure(r.term)))
        peaks = [max(s[i] for s in sizes) for i in (1, 0, 2)]
        code, printed, _ = run(capsys, "eval", "--metrics", *trace, str(sample))
        assert code == 0
        assert printed.splitlines()[-1] == SpaceReport(0, out.steps, *peaks).to_json()

    def test_lamsx_dialect_expression(self, capsys):
        code, out, _ = run(capsys, "eval", "-e",
                           "let k = Int! ;; Int?^p in 5<k>",
                           "--dialect", "lamsx")
        assert (code, out) == (0, "5\n")


class TestCheck:
    def test_inline_expression(self, capsys):
        assert run(capsys, "check", "-e", "\\x:Int. x + 1") == (
            0, "Int -> Int\n", "")

    @pytest.mark.parametrize("uid", ["0", "7"])
    def test_a_signature_variable_never_names_an_answer_type(self, capsys, uid):
        # renaming a signature's rigid variable must not change the verdict
        prog = f"letrec f (x:'X{uid}, k:Int) = 1<k> in \\ (y:Int, k:Int). f(y<k>, k)"
        code, out, err = run(capsys, "check", "-e", prog, "--dialect", "lamsx")
        assert (code, out) == (2, "")
        assert f"expected 'X{uid}, found" in err

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

    @pytest.mark.parametrize("command, suffix", [
        ("check", ".lams"), ("eval", ".lamsx"), ("translate", ".lams"), ("simcheck", ".lams")])
    def test_a_file_that_is_not_utf8_exits_two(self, capsys, tmp_path, command, suffix):
        f = tmp_path / f"prog{suffix}"
        f.write_bytes(b"\xff\xfe1 + 2")
        code, out, err = run(capsys, command, str(f))
        assert (code, out) == (2, "")
        assert err == (f"error: cannot read {f}: 'utf-8' codec can't decode byte 0xff "
                       "in position 0: invalid start byte\n")


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


_BRANCH_FIXES = "if true then (\\x:Int. blame p) 1 else 3"
_APPLIED_TWICE = "(((\\y:Int. \\x:Int. blame p) 1) 2) + 1"
_BRANCHES_OPEN = "(if true then \\x:Int. blame p else \\x:Int. blame q) 1"


class TestWildcards:
    """A type nothing constrains is reported and translated as Dyn."""

    def test_check_reports_dyn(self, capsys):
        assert run(capsys, "check", "-e", "blame p") == (0, "Dyn\n", "")
        assert run(capsys, "check", "-e", "\\x:Int. blame p") == (0, "Int -> Dyn\n", "")
        assert run(capsys, "check", "-e", _BRANCH_FIXES) == (0, "Int\n", "")
        assert run(capsys, "check", "-e", _BRANCHES_OPEN) == (0, "Dyn\n", "")

    @pytest.mark.parametrize("text, want", [
        ("\\x:Int. blame p", "\\ (x:Int, k0:Dyn). blame p"),
        ("((\\x:Int. blame p) 1) + 2",
         "(((\\ (x:Int, k0:Int). blame p)(1, id{Int})) + 2)<id{Int}>"),
        # the other branch fixes the type of the one left open
        (_BRANCH_FIXES, "if true then (\\ (x:Int, k0:Int). blame p)(1, id{Int}) else 3<id{Int}>"),
        # a function that is not a literal answers at the application's type
        (_APPLIED_TWICE,
         "((((\\ (y:Int, k0:Int => Int). (\\ (x:Int, k1:Int). blame p)<k0>)(1, id{Int => Int}))"
         "(2, id{Int})) + 1)<id{Int}>"),
        (_BRANCHES_OPEN,
         "(if true then (\\ (x:Int, k0:Dyn). blame p)<id{Int => Dyn}>"
         " else (\\ (x:Int, k1:Dyn). blame q)<id{Int => Dyn}>)(1, id{Dyn})"),
    ])
    def test_translate_passes_its_recheck(self, capsys, text, want):
        assert run(capsys, "translate", "-e", text) == (0, want + "\n", "")

    @pytest.mark.parametrize("text", [
        "(\\f:Int -> Int. f 1) (\\x:Int. blame p)", _APPLIED_TWICE, _BRANCHES_OPEN])
    def test_simcheck_agrees(self, capsys, text):
        code, out, _ = run(capsys, "simcheck", "-e", text)
        assert code == 0
        assert json.loads(out)["kind"] == "agree"


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


    def test_a_faulty_target_stepper_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(lam_sx, "delta", lambda op, a, b: lam_s.delta(op, a, b) + 1)
        code, out, _ = run(capsys, "simcheck", "-e", "1 + 2")
        assert code == 3
        assert json.loads(out)["detail"] == (
            "source step 1 (e R-Op) not simulated within 8 target steps")

    def test_a_source_state_that_does_not_typecheck_exits_three(self, capsys, refocus_fault):
        code, out, _ = run(capsys, "simcheck", "-e", "0 = ((\\x0:Dyn. 9) (2<Int!>))")
        assert code == 3
        assert json.loads(out)["detail"] == (
            "source preservation failed after R-Beta: expected Bool, found Int")


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

    def test_summary_counts_the_runs_that_never_finished(self, capsys, monkeypatch):
        # seed 13 loops; at fuel 50 the source runs out before its cycle
        # check, while the target's ten times the fuel reaches it
        monkeypatch.setenv("COERCION_FORGE_FUEL", "50")
        code, out, err = run(capsys, "fuzz", "--seeds", "12..13")
        assert code == 0
        assert [json.loads(line)["kind"] for line in out.splitlines()] == ["agree", "agree"]
        assert err.splitlines()[-1] == (
            "2 runs: 2 agree, 0 disagree; out of fuel: 1 source, 0 target; "
            "diverged: 0 source, 1 target")
        monkeypatch.delenv("COERCION_FORGE_FUEL")
        code, _, err = run(capsys, "fuzz", "--seeds", "13")
        assert err.splitlines()[-1] == (
            "1 runs: 1 agree, 0 disagree; out of fuel: 0 source, 0 target; "
            "diverged: 1 source, 1 target")

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

    def test_negative_depth_exits_two_before_any_run(self, capsys):
        with pytest.raises(SystemExit) as e:
            cli.main(["fuzz", "--seeds", "0..3", "--depth", "-1"])
        assert e.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--depth: must be nonnegative" in err


class TestBench:
    def test_report_only(self, capsys):
        code, out, _ = run(capsys, "bench", "evenodd", "4")
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 4
        assert report["steps"] == 28

    def test_an_unfinished_run_exits_four(self, capsys, monkeypatch):
        monkeypatch.setenv("COERCION_FORGE_FUEL", "10")
        code, out, err = run(capsys, "bench", "evenodd", "100")
        assert (code, err) == (4, "out of fuel after 10 steps\n")
        assert json.loads(out)["steps"] == 10

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


def test_the_module_runs_as_a_command():
    # ``python -m`` runs the module's last line, which exits with main()'s code
    src = str(Path(__file__).resolve().parents[1] / "src")
    r = subprocess.run(
        [sys.executable, "-m", "coercion_forge.cli", "eval", "-e", "5<Int!><Bool?^p>"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert (r.returncode, r.stdout, r.stderr) == (1, "blame p\n", "")


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
