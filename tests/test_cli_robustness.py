"""No input makes the command line crash or hang.

Texts come from the grammar and from the sample programs, in the manner of
grammar-based fuzzing with code fragments (Holler, Herzig & Zeller,
"Fuzzing with code fragments", USENIX Security 2012): deep nests of every
term, type and coercion former, long operator, ``;;`` and ``;`` chains,
truncated or garbled coercions, and samples whose parenthesized fragments
are swapped, cut or spliced with stray tokens.  Each text goes to ``check``
and ``eval`` in both dialects, and each lams text to ``translate`` too.
Whatever the verdict, the exit code is never 5 (an internal error), a
translation never fails its own re-check (exit 3, a fault of the
translator), and each run ends within two seconds.

Nesting stays at or below 200: the type checker and ``print_term`` still
recurse, so deeper terms can still exhaust Python's stack after parsing.
"""

import contextlib
import io
import signal
import time
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from coercion_forge import cli

MAX_DEPTH = 200
SECONDS = 2.0
SAMPLES = [p.read_text() for p in sorted(Path(__file__).parent.parent.glob("samples/*.lams*"))]

# (opening, closing) text of each former, wrapped around an inner text
FORMERS = {
    "lams": [
        ("(", ")"), ("\\x:Int. ", ""), ("\\x:Dyn. ", ""), ("if true then ", " else 0"),
        ("if (", ") then 1 else 2"), ("(\\x:Int. x) (", ")"), ("f (", ")"), ("(", ")<Int!>"),
        ("(", ")<<Int!>>"), ("(", ")<Int?^p>"), ("x < (", ")"), ("1 + (", ")"), ("(", ") * 2"),
        ("(", ") = 1"),
    ],
    "lamsx": [
        ("(", ")"), ("\\ (x:Int, k:Int). ", ""), ("let x = 1 in ", ""), ("let x = (", ") in x"),
        ("if true then ", " else 0"), ("f(", ", k)"), ("f(1, ", ")"), ("x<", ">"), ("(", ")<k>"),
        ("(", ")<<Int!>>"), ("x < (", ")"), ("1 + (", ")"), ("(", ") ;; k"), ("k ;; (", ")"),
    ],
}
CORES = ["1", "x", "true", "blame p", "-3", "5<Int!>", "Int!", "id{Int}", "x<k>", ""]
# type and coercion nests: (prefix, (opening, closing), core, suffix)
NESTS = {
    "lams": [
        ("\\x:", ("(", ")"), "Int", ". x"), ("\\x:", ("Int -> ", ""), "Int", ". x"),
        ("5<", ("(", ")"), "Int!", ">"), ("5<", ("Int! -> ", ""), "Int?^p", ">"),
        ("5<<", ("(", ")"), "id{Int}", ">>"),
    ],
    "lamsx": [
        ("\\ (x:", ("(", ")"), "Int", ", k:Int). x"), ("\\ (x:", ("Int => ", ""), "'X0", ", k:Int). x"),
        ("5<", ("(", ")"), "Int!", ">"), ("", ("(", ")"), "Int!", ""),
        ("", ("Int! => ", ""), "Int?^p", ""), ("", ("(", ") ; Int!"), "id{Int}", ""),
    ],
}
OPERATORS = {"lams": ["+", "-", "*", "<", "="], "lamsx": ["+", "-", "*", "<", "=", ";;"]}
TOKENS = ["(", ")", "<", ">", "<<", ">>", ";", ";;", "->", "=>", ",", ".", "!", "?^p", "Int", "Dyn",
          "id{Int}", "\\", "let", "in", "if", "then", "else", "x", "1", "+", "=", "'X0", "²"]
# inputs that once crashed or hung the command line
REPRODUCERS = [
    ("lams", "²"),
    ("lamsx", "²"),
    ("lams", "9" * 5000),
    ("lams", "5<" + " ; ".join(["Int?^p"] * 1200) + ">"),
    ("lams", "(" * 99 + "1" + ")" * 99),
    ("lamsx", "(" * 98 + "1" + ")" * 98),
    ("lamsx", "x < (" * 20 + "x" + ")" * 20),
    ("lamsx", " < ".join(["x"] * 12)),
    ("lams", "5<Int?^p ; Int?^p ; Int?^p>"),
    ("lams", "5<<Int?^p ; Int?^p>>"),
    ("lams", "5<Int -> Int>"),
    ("lams", "letrec f (x:Int) : Int = x and f (y:Int) : Int = y in f 1"),
]
# terms with a hole at every level, which the typecheckers of the past filled
# by checking a subterm again, so that a check that walked a subterm afresh
# each time doubled its work at each level
PINNED_CHAINS = [
    ("lams", "(" * 40 + "(blame p)" + " 1)" * 40),
    ("lams", "(" * 40 + "1" + "<bot{Int, p, Bool}>)" * 40),
    ("lams", "(\\x:Int. (blame p) " * 40 + "1" + ")" * 40),
    ("lamsx", "(" * 40 + "(blame p)" + "(1, bot{Int, p, Bool}))" * 40),
]
REPRODUCERS += PINNED_CHAINS

dialects = st.sampled_from(["lams", "lamsx"])


@st.composite
def nest(draw, dialect):
    """Formers drawn at random, wrapped around a core up to MAX_DEPTH deep."""
    formers = draw(st.lists(st.sampled_from(FORMERS[dialect]), min_size=1, max_size=MAX_DEPTH))
    text = draw(st.sampled_from(CORES))
    for opening, closing in formers:
        text = opening + text + closing
    return text


@st.composite
def type_or_coercion_nest(draw, dialect):
    prefix, (opening, closing), core, suffix = draw(st.sampled_from(NESTS[dialect]))
    n = draw(st.integers(1, MAX_DEPTH))
    return prefix + opening * n + core + closing * n + suffix


@st.composite
def chain(draw, dialect):
    """A long run of binary operators, or a long ';' sequence in a suffix."""
    n = draw(st.integers(1, MAX_DEPTH))
    if draw(st.booleans()):
        ops = draw(st.lists(st.sampled_from(OPERATORS[dialect]), min_size=n, max_size=n))
        return "1" + "".join(f" {op} {draw(st.sampled_from(['1', 'x', 'Int!', '(f x)']))}" for op in ops)
    units = draw(st.lists(st.sampled_from(["Int?^p", "Int!", "id{Int}", "(Int!)", "Bool?^q"]),
                          min_size=n, max_size=n))
    return "5<" + " ; ".join(units) + ">"


def fragments(text):
    """The balanced parenthesized fragments of ``text``."""
    out, opened = [], []
    for i, ch in enumerate(text):
        if ch == "(":
            opened.append(i)
        elif ch == ")" and opened:
            out.append(text[opened.pop() : i + 1])
    return out


@st.composite
def mutated(draw, text):
    """``text`` with a few edits: a fragment swapped for another, a cut, a stray token."""
    pool = fragments(text) + [f for s in SAMPLES for f in fragments(s)]
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["swap", "truncate", "delete", "insert"]))
        own = fragments(text)
        if edit == "swap" and own and pool:
            text = text.replace(draw(st.sampled_from(own)), draw(st.sampled_from(pool)), 1)
            continue
        i = draw(st.integers(0, len(text)))
        if edit == "truncate":
            text = text[:i]
        elif edit == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 8)) :]
        else:
            text = text[:i] + " " + draw(st.sampled_from(TOKENS)) + " " + text[i:]
    return text


@st.composite
def program_text(draw):
    dialect = draw(dialects)
    source = draw(st.sampled_from(["nest", "typed", "chain", "sample", "reproducer"]))
    if source == "reproducer":
        return draw(st.sampled_from(REPRODUCERS))
    if source == "sample":
        text = draw(st.sampled_from(SAMPLES))
    elif source == "nest":
        text = draw(nest(dialect))
    elif source == "typed":
        text = draw(type_or_coercion_nest(dialect))
    else:
        text = draw(chain(dialect))
    if draw(st.booleans()):
        text = draw(mutated(text))
    return dialect, text


class Hung(BaseException):
    """Raised by the alarm; not an ``Exception``, so the command line cannot report it."""


def on_alarm(signum, frame):
    raise Hung()


def run_cli(argv):
    """Exit code, seconds taken and stderr of one in-process run, or None for the
    code if the run was stopped at a time past the bound."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 2 * SECONDS)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Hung:
        code = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, time.perf_counter() - start, err.getvalue()


@given(program_text())
@example(("lamsx", "x < (" * 20 + "x" + ")" * 20))
@example(("lams", "²"))
@example(("lams", "((blame p) 1) 2"))
@example(PINNED_CHAINS[0])
@example(PINNED_CHAINS[1])
@example(PINNED_CHAINS[2])
@example(PINNED_CHAINS[3])
@settings(max_examples=80, deadline=None)
def test_no_input_crashes_or_hangs_the_command_line(drawn):
    dialect, text = drawn
    commands = [["check"], ["eval", "--fuel", "2000"]]
    if dialect == "lams":
        commands.append(["translate"])
    for argv in commands:
        code, seconds, err = run_cli(argv + ["-e", text, "--dialect", dialect])
        assert code != cli.EXIT_INTERNAL, (argv, dialect, text, err)
        assert argv != ["translate"] or code != cli.EXIT_VIOLATION, (dialect, text, err)
        assert code is not None and seconds < SECONDS, (argv, dialect, text, seconds)
