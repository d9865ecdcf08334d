"""The CLI's input contract as a property: every argv ends in a result or in one error line.

Each subcommand's argv is built from the options its own parser declares in
``cli.build_parser()``, so an option added there is drawn without editing this
file.  Values are documented good ones, or inputs of the kinds that have broken
the contract before: signed zeros, non-finite and out-of-range floats, an
integer past 64 bits, the empty string, a non-ASCII digit, malformed and huge
ranges, expressions with huge exponents, a prefix of a real option name, a
path that starts with '-', and each nesting shape (parentheses, chained
exponents, unary signs, JSON brackets) far past its bound.  Each argv runs
through ``cli.run`` in process, and ``_contract_breach`` checks that:

- no exception escapes, and no Python warning is raised;
- the exit code is 0 or 1, or 3 for ``verify-paper --strict``;
- on exit 1, stdout is empty and stderr is one line that starts with 'error: ';
- on exit 0, stdout holds no 'nan' or 'inf';
- an option name that the subcommand does not declare in full exits 1.

Hypothesis draws 500 argvs, each with at most two bad values so that most get
past the first check, and a sweep gives every option each value of its kind
alone.  Sizes stay small: ``evolve`` always gets ``--steps`` (its default runs
1000 steps), and every good size value is small; the size bounds have their
own tables in ``tests/test_cli.py``.  ``verify-paper`` prints one recorded run
of the battery instead of running it anew for each argv.
"""

import contextlib
import io
import re
import warnings
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import declared_options, subcommands
from pseudoquant import cli, verify

SUBCOMMANDS = list(subcommands(cli.build_parser()))

DEPTH = 1000
NUMBERS = ["0", "-0", "-1", "nan", "inf", "-inf", "1e400", "1e-320", "1e-300", "1e300", "1e10",
           "99999999999999999999", "٣"]
EXPRESSIONS = ["p1^99999", "9^4000074", "hbar^140000", "2^3^30", "(p1+q1+1)^100*(p1+q1+2)^100",
               "(" * DEPTH + "p1" + ")" * DEPTH, "p1" + "^1" * DEPTH, "-" * DEPTH + "p1"]
RANGES = ["1..2..3", "1:x:2", "3..99999999999999999999", "0:99999999999999999999:1",
          "99999999999999999999,0", "-5:5:99999999999999999999", "gaussian:sigma=1e-200"]
PROBLEMS = ['{"theta": ' + "[" * 5 * DEPTH + "]" * 5 * DEPTH + "}",
            '{"theta": [["' + "(" * DEPTH + "p1" + ")" * DEPTH + '", "dq1"]]}', "missing.json"]
POOL = [*NUMBERS, *EXPRESSIONS, *RANGES, *PROBLEMS, "", "--gr", "-out.csv"]
KINDS = {"a": EXPRESSIONS, "b": EXPRESSIONS, "observable": EXPRESSIONS,
         "deformation": EXPRESSIONS, "problem": PROBLEMS, "grid": RANGES, "beta": RANGES,
         "E": RANGES, "init": RANGES}
GOOD = {  # documented good values, each small; the sweep gives a required option the first
    "problem": ['{"theta": "standard"}', '{"theta": [["p1^2/2", "dq1"]]}'],
    "a": ["p1", "p1^2*q1", "(1/2)*p1^2 + q1^2"],
    "b": ["q1", "-q1^3"],
    "observable": ["p1", "p1^2", "q1*p1"],
    "grid": ["2,2", "3,1", "-5:5:16", "-3:3:8"],
    "deformation": ["b1^2", "a1*b1"],
    "csv": ["out.csv", "-out.csv"],
    "n": ["2", "0", "1", "3", "2000"],
    "hbar": ["1", "0.5", "1e-3"],
    "m_max": ["0", "2"],
    "lam": ["1", "1/2", "-1/2"],
    "beta": ["0:1:0.5", "0.5", "-0.25"],
    "dt": ["0.01", "1e-3"],
    "steps": ["0", "1", "3"],
    "init": ["gaussian:q0=0,p0=1,sigma=1", "gaussian"],
    "snapshots": ["snaps.bin", "-snaps.bin"],
    "snap_every": ["1", "2"],
    "E": ["1", "1..4", "3..5"],
    "points": ["points.csv", "-points.csv"],
    "seed": ["1", "12345"],
}


def _value(action, bad: bool):
    """A good value; or, if ``bad``, one of the option's kind (numbers by default) or the pool's."""
    if not bad:
        return st.sampled_from(list(action.choices or GOOD[action.dest]))
    return st.one_of(st.sampled_from(KINDS.get(action.dest, NUMBERS)), st.sampled_from(POOL))


@st.composite
def invocations(draw):
    """(argv, names the subcommand declares) for one subcommand's own options.

    Each option is drawn or not, and at most two of the drawn ones get a value
    that is not a good one, so that most argvs reach past the first check.
    """
    words, parser = draw(st.sampled_from(SUBCOMMANDS))
    actions = declared_options(parser)
    chosen = [a for a in actions if a.required or a.dest == "steps" or draw(st.booleans())]
    bad = draw(st.sets(st.sampled_from(chosen), max_size=2)) if chosen else set()
    names = [n for a in actions for n in a.option_strings]
    prefixes = [n[:-1] for n in names if len(n) > 3]
    argv = list(words)
    for action in draw(st.permutations(chosen)):
        name = action.option_strings[0]
        if action.nargs == 0:
            argv.append(name)
        elif draw(st.booleans()):
            argv.append(f"{name}={draw(_value(action, action in bad))}")
        else:
            argv += [name, draw(_value(action, action in bad))]
    if prefixes and draw(st.integers(0, 4)) == 0:
        argv += [draw(st.sampled_from(prefixes)), "1"]
    return argv, names


@pytest.fixture(scope="module")
def battery():
    return verify.run_all()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-inputs")


def _contract_breach(argv, names, battery, workdir) -> str | None:
    """What ``cli.run(argv)`` does against the contract, or None if it keeps it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.chdir(workdir))
        stack.enter_context(mock.patch.object(verify, "run_all", lambda seed=None: battery))
        stack.enter_context(warnings.catch_warnings())
        warnings.simplefilter("error")
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        try:
            code = cli.run(argv)
        except (Exception, SystemExit) as exc:
            return f"raised {exc!r}"
    out, err = out.getvalue(), err.getvalue()
    allowed = {cli.EXIT_OK, cli.EXIT_INPUT}
    if argv[0] == "verify-paper" and "--strict" in argv:
        allowed.add(cli.EXIT_FLAGS)
    if code not in allowed:
        return f"exit code {code}"
    if code == cli.EXIT_INPUT and (out or len(err.splitlines()) != 1
                                   or not err.startswith("error: ")):
        return f"exit 1 with stdout {out[:200]!r} and stderr {err[:200]!r}"
    if code == cli.EXIT_OK and re.search(r"\b(nan|inf)\b", out, re.IGNORECASE):
        return f"exit 0 with a nan or inf in stdout {out[:200]!r}"
    if code != cli.EXIT_INPUT and any(t.startswith("--") and t.split("=")[0] not in names
                                      for t in argv):
        return f"exit {code} with an option name it does not declare"
    return None


@settings(max_examples=500, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(invocation=invocations())
def test_every_input_ends_in_a_result_or_one_error_line(battery, workdir, invocation):
    argv, names = invocation
    assert _contract_breach(argv, names, battery, workdir) is None


def test_each_bad_value_alone_ends_in_a_result_or_one_error_line(battery, workdir):
    """Every option, given each value of its kind, beside a good value of each required option."""
    breaches = []
    for words, parser in SUBCOMMANDS:
        actions = declared_options(parser)
        names = [n for a in actions for n in a.option_strings]
        base = [*words, "--steps", "1"] if words == ("evolve",) else list(words)
        for a in actions:
            if a.required:
                base += [a.option_strings[0], GOOD[a.dest][0]]
        for a in actions:
            for value in [] if a.nargs == 0 else KINDS.get(a.dest, NUMBERS):
                argv = [*base, a.option_strings[0], value]
                breach = _contract_breach(argv, names, battery, workdir)
                if breach:
                    breaches.append(f"{[t[:40] for t in argv]}: {breach}")
    assert breaches == []
