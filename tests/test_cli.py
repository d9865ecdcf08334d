import ast
import hashlib
import importlib
import json
import math
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pseudoquant
from pseudoquant import bks, bohrsommerfeld
from pseudoquant.bohrsommerfeld import folded_points
from pseudoquant.cli import EXIT_INPUT, EXIT_OK, run
from pseudoquant.exprparse import load_problem, parse_poly
from pseudoquant.prequant import theorem_commutator
from pseudoquant.symcore import Poly
from pseudoquant.verify import random_poly


@pytest.fixture
def cylinder(tmp_path):
    """Path of the README's cylinder problem file (a pullback block)."""
    prob = {
        "chart": {"pairs": [["l", "phi_l"]]},
        "pullback": {
            "target": {"pairs": [["z", "phi_z"]]},
            "theta": "standard",
            "map": {"z": "2*l", "phi_z": "phi_l"},
        },
    }
    path = tmp_path / "cylinder.json"
    path.write_text(json.dumps(prob))
    return str(path)


def out_of(capsys):
    return capsys.readouterr().out.strip()


def run_fresh(args, check=False):
    """``python *args`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(pseudoquant.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=check)


class TestCommutator:
    def test_canonical_pair(self, capsys):
        assert run(["commutator", "--a", "p1", "--b", "q1"]) == EXIT_OK
        assert out_of(capsys) == "-i*hbar"

    def test_formal(self, capsys):
        assert run(["commutator", "--a", "p1", "--b", "q1", "--formal"]) == EXIT_OK
        assert out_of(capsys) == "1"

    def test_json_output(self, capsys):
        assert run(["commutator", "--a", "p1", "--b", "q1", "--json"]) == EXIT_OK
        data = json.loads(out_of(capsys))
        assert data["text"] == "-i*hbar"
        assert data["order"] == 0

    def test_pullback_problem(self, capsys, cylinder):
        code = run(["commutator", "--problem", cylinder, "--a", "z", "--b", "phi_z", "--formal"])
        assert code == EXIT_OK
        assert out_of(capsys) == "0"  # lambda = 1/2: the commutator vanishes


class TestErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["bogus"]) == EXIT_INPUT
        assert "error:" in capsys.readouterr().err

    def test_bad_expression_reports_column(self, capsys):
        assert run(["commutator", "--a", "p1 $", "--b", "q1"]) == EXIT_INPUT
        assert "column" in capsys.readouterr().err

    def test_missing_problem_file(self, capsys, tmp_path):
        missing = tmp_path / "nosuch.json"
        code = run(["commutator", "--problem", str(missing), "--a", "p1", "--b", "q1"])
        assert code == EXIT_INPUT
        assert capsys.readouterr().err.strip() == f"error: no such file: {missing}"

    def test_missing_required_argument(self, capsys):
        assert run(["commutator", "--a", "p1"]) == EXIT_INPUT
        capsys.readouterr()

    def test_exponent_overflow_is_a_one_line_error(self, capsys):
        # each coordinate exponent stays below 2**15, so p1^40000 is refused, never wrapped
        assert run(["commutator", "--a", "p1^40000", "--b", "q1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.strip().splitlines()
        assert line == "error: every coordinate exponent must stay below 32768"

    @pytest.mark.parametrize("a, column, bound", [
        ("9^4000074", 2, "power gives coefficients of more than 2048 bits"),
        ("(p1+1)^3000", 7, "power gives coefficients of more than 2048 bits"),
        ("2^3^30", 2, "power gives coefficients of more than 2048 bits"),  # 3^30 is evaluated
    ])
    def test_power_size_is_a_one_line_error(self, capsys, monkeypatch, a, column, bound):
        exponents = []
        pow_ = Poly.__pow__
        monkeypatch.setattr(Poly, "__pow__", lambda p, k: exponents.append(k) or pow_(p, k))
        assert run(["commutator", "--a", a, "--b", "q1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: column {column}: {bound}; use a smaller exponent\n"
        assert all(k <= 30 for k in exponents)  # the refused power was never evaluated

    @pytest.mark.parametrize("a, message", [
        # each power passes on its own; their product would take a second or more
        ("(p1+q1+1)^60*(p1+q1+2)^60",
         "column 13: expression needs more than 2000000 term products; use smaller operands"),
        ("(p1+q1+1)^100*(p1+q1+2)^100",
         "column 14: expression needs more than 2000000 term products; use smaller operands"),
        ("(3*p1+5*q1+7)^180*(11*p1+13*q1+17)^180",  # the first power alone
         "column 14: expression needs more than 2000000 term products; use a smaller exponent"),
        ("*".join(["(9^600*p1+7^700*q1)"] * 400),  # 7,999 characters
         "column 20: product gives coefficients of more than 2048 bits; use smaller operands"),
    ], ids=["x60", "x100", "x180", "400-factors"])
    def test_expression_size_is_a_one_line_error(self, capsys, monkeypatch, a, message):
        # the whole expression is estimated before anything is evaluated
        evaluated = []
        for name in ("__mul__", "__pow__"):
            op = getattr(Poly, name)
            monkeypatch.setattr(Poly, name, lambda p, q, op=op: evaluated.append(q) or op(p, q))
        assert run(["commutator", "--a", a, "--b", "q1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert evaluated == []

    @pytest.mark.parametrize("a, column, char", [
        ("\u00b2", 1, "\u00b2"),  # superscript two: a Unicode digit, not an ASCII one
        ("p1^\u00b2", 4, "\u00b2"),
        ("\u0663", 1, "\u0663"),  # Arabic-Indic three
    ])
    def test_non_ascii_digit_reports_column(self, capsys, a, column, char):
        assert run(["commutator", "--a", a, "--b", "q1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: column {column}: unexpected character {char!r}\n"

    @pytest.mark.parametrize("argv", [
        ["bs-count", "--E", "1..3", "--points", "{missing}/p"],
        ["bs-count", "--E", "1..3", "--csv", "{csv}", "--points", "{missing}/p"],
        ["evolve", "--n", "0", "--steps", "3", "--grid=-5:5:64", "--snapshots", "{missing}/s"],
        ["evolve", "--n", "0", "--steps", "3", "--grid=-5:5:64", "--csv", "{csv}",
         "--snapshots", "{missing}/s"],
        ["bs-count", "--E", "1..3", "--csv", "{missing}/c", "--points", "{out}"],
        ["evolve", "--n", "0", "--steps", "3", "--grid=-5:5:64", "--csv", "{missing}/c",
         "--snapshots", "{out}"],
    ])
    def test_unopenable_output_writes_nothing(self, capsys, tmp_path, argv):
        # every output path is checked before any opens, so a bad path creates no
        # other file and leaves an existing one as it was
        csv, out = tmp_path / "out.csv", tmp_path / "out.dat"
        args = [a.format(missing=tmp_path / "missing", csv=csv, out=out) for a in argv]
        for existing in (False, True):
            if existing:
                csv.write_text("kept\n")
                out.write_text("kept\n")
            assert run(args) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error: ")
            for path in (csv, out):
                assert path.read_text() == "kept\n" if existing else not path.exists()

    def test_no_subcommand_prints_help(self, capsys):
        assert run([]) == EXIT_INPUT
        assert "usage" in capsys.readouterr().out.lower()

    @pytest.mark.parametrize("text, key", [
        ('{"observables": ["x"]}', "'observables'"),
        ('{"theta": 7}', "'theta'"),
        ('{"pullback": {"map": {}}}', "'pullback.target'"),
        ('{"pullback": 3}', "'pullback'"),
        ("[1]", "problem file must hold a JSON object"),
        ('{"chart": {"pairs": [["p1", "q1", "r1"]]}}', "'chart.pairs'"),
        # a misspelt or removed key is an error, not a silent default
        ('{"thetaa": [["2*p1", "dq1"]]}', "unknown problem-file key 'thetaa'"),
        ('{"polarisation": true}', "unknown problem-file key 'polarisation'"),
        # problem-file expressions go through the same bounded power rule
        ('{"observables": {"H": "(q1+1)^3000"}}', "more than 2048 bits"),
        ('{"pullback": {"target": {"pairs": [["z", "phi_z"]]}, "thetaa": [["2*z", "dphi_z"]],'
         ' "map": {"z": "p1", "phi_z": "q1"}}}', "unknown problem-file key 'pullback.thetaa'"),
    ])
    def test_malformed_problem_file(self, capsys, tmp_path, text, key):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run(["commutator", "--problem", str(path), "--a", "p1", "--b", "q1"]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.strip().splitlines()
        assert line.startswith("error: ") and key in line


class TestQuantiseAndPreserve:
    def test_quantise_momentum(self, capsys):
        assert run(["quantise", "--observable", "p1"]) == EXIT_OK
        assert "-i*hbar" in out_of(capsys)

    def test_quantise_json_readme_example(self, capsys):
        assert run(["quantise", "--observable", "p1^2"]) == EXIT_OK
        plain = out_of(capsys)
        assert run(["quantise", "--observable", "p1^2", "--json"]) == EXIT_OK
        data = json.loads(out_of(capsys))
        assert set(data) == {"text", "order", "terms"}
        assert data["text"] == plain
        assert data["order"] == 1

    def test_quantise_pullback_problem(self, capsys, cylinder):
        # z is read on the pullback's target chart and quantised as 2*l on the source
        assert run(["quantise", "--problem", cylinder, "--observable", "z"]) == EXIT_OK
        assert out_of(capsys) == "-2*l - 2*i*hbar*d/dphi_l"

    @pytest.mark.parametrize("argv, message", [
        # the grid is built on the fixed a1/b1 chart, so a problem file cannot apply
        pytest.param(["preserve", "--problem", "{cylinder}", "--grid", "2,2"],
                     "--grid uses the built-in a1/b1 chart and cannot take --problem",
                     id="grid-with-problem"),
        pytest.param(["preserve", "--grid", "-1,2"], "--grid expects", id="grid-negative-m"),
        pytest.param(["preserve", "--grid", "2,-1"], "--grid expects", id="grid-negative-n"),
        # (m + 1) * (n + 1) monomials, each a preservation test: bounded like --beta
        pytest.param(["preserve", "--grid", "1000,1000"],
                     "--grid gives more than 1000000 cells; use smaller bounds",
                     id="grid-too-many-cells"),
        pytest.param(["preserve", "--grid", "0,1000000"],
                     "--grid gives more than 1000000 cells; use smaller bounds",
                     id="grid-too-many-cells-one-row"),
        pytest.param(["preserve", "--grid", "32768,0"], "--grid exponents must be below 32768",
                     id="grid-exponent-overflow"),
        # a next token that starts with '--' is an option, never a negative value
        pytest.param(["preserve", "--grid", "--case", "standard"],
                     "argument --grid: expected one argument", id="grid-then-option"),
        pytest.param(["preserve", "--grid", "2,2", "--observable", "p1"],
                     "--grid tabulates monomials and cannot take --observable",
                     id="grid-with-observable"),
        # the standard connection would ignore a deformation, so it is an error, not dropped
        pytest.param(["preserve", "--grid", "1,1", "--deformation", "b1^2"],
                     "--case standard: the standard case takes no deformation",
                     id="grid-default-case-with-deformation"),
        pytest.param(["preserve", "--grid", "1,1", "--case", "standard", "--deformation", "b1^2"],
                     "--case standard: the standard case takes no deformation",
                     id="grid-standard-case-with-deformation"),
        pytest.param(["preserve", "--observable", "p1", "--csv", "out.csv"],
                     "--csv applies only to --grid", id="observable-with-csv"),
        pytest.param(["preserve", "--observable", "p1", "--case", "polarised-scaled"],
                     "--case applies only to --grid", id="observable-with-case"),
        pytest.param(["preserve", "--observable", "p1", "--deformation", "b1^2"],
                     "--deformation applies only to --grid", id="observable-with-deformation"),
        pytest.param(["preserve", "--observable", "p1", "--json"],
                     "unrecognized arguments: --json", id="preserve-json"),
        pytest.param(["quantise", "--observable", "p1", "--csv", "out.csv"],
                     "unrecognized arguments: --csv", id="quantise-csv"),
        pytest.param(["commutator", "--a", "p1", "--b", "q1", "--csv", "out.csv"],
                     "unrecognized arguments: --csv", id="commutator-csv"),
        pytest.param(["preserve"], "preserve needs --observable or --grid", id="preserve-neither"),
    ])
    def test_rejects_options(self, capsys, cylinder, argv, message):
        assert run([a.format(cylinder=cylinder) for a in argv]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_preserve_single(self, capsys):
        assert run(["preserve", "--observable", "p1^2"]) == EXIT_OK
        data = json.loads(out_of(capsys))
        assert set(data) == {"observable", "preserves", "residuals"}
        assert data["preserves"] is False
        assert data["residuals"]

    def test_preserve_grid_standard(self, capsys):
        assert run(["preserve", "--grid", "2,2"]) == EXIT_OK
        rows = [l for l in out_of(capsys).splitlines() if not l.startswith("#")]
        table = {}
        for row in rows[1:]:
            m, n, ok, cnt = row.split(",")
            table[(int(m), int(n))] = ok == "true"
        assert all(table[(m, n)] == (m <= 1) for (m, n) in table)

    def test_preserve_grid_8x8_stdout(self, capsys):
        # the full text: header, then m <= 1 preserves and m >= 2 leaves two residuals
        assert run(["preserve", "--grid", "8,8"]) == EXIT_OK
        rows = [f"{m},{n},true,0" if m <= 1 else f"{m},{n},false,2"
                for m in range(9) for n in range(9)]
        head = ["# case=standard deformation=0", "m,n,preserves,residual_count"]
        assert capsys.readouterr().out == "\n".join(head + rows) + "\n"

    @pytest.mark.parametrize("case_args, digest", [
        ([], "e3d80fd020ea5736ad4c4a8605ec4ca5e0f992b13c93f3cb4e2c5a51063ac823"),
        (["--case", "polarised-scaled", "--deformation", "b1^2"],
         "2c943e4001e98cf9011cc3976ffa11173de66ee8b5910f7da6d5fb3fe9c8365e"),
        (["--case", "general-scaled", "--deformation", "3/2*b1^2 - a1*b1"],
         "ba79b2ea42b38160979f8d69493df050c867d3b48772a3b0e10a93b3d13460fe"),
    ])
    def test_preserve_grid_8x8_stdout_digest(self, capsys, case_args, digest):
        # byte pin of the whole CSV in each connection case, beside the benchmark's digest
        assert run(["preserve", "--grid", "8,8", *case_args]) == EXIT_OK
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_preserve_grid_csv_file_matches_stdout(self, capsys, tmp_path):
        argv = ["preserve", "--grid", "3,2", "--case", "general-scaled", "--deformation", "a1*b1"]
        assert run(argv) == EXIT_OK
        path = tmp_path / "grid.csv"
        assert run(argv + ["--csv", str(path)]) == EXIT_OK
        assert path.read_text() == capsys.readouterr().out

    def test_preserve_grid_polarised_scaled(self, capsys):
        code = run(
            [
                "preserve",
                "--grid",
                "1,1",
                "--case",
                "polarised-scaled",
                "--deformation",
                "b1^2",
            ]
        )
        assert code == EXIT_OK
        rows = [l for l in out_of(capsys).splitlines() if not l.startswith("#")][1:]
        verdicts = {tuple(r.split(",")[:2]): r.split(",")[2] for r in rows}
        assert verdicts[("0", "0")] == "true"
        assert verdicts[("1", "0")] == "false"


FOLDED_3DOF = {  # the folded potential on three pairs: the benchmark's CLI problem
    "chart": {"pairs": [["p1", "q1"], ["p2", "q2"], ["p3", "q3"]]},
    "theta": [["1/2*p1^2", "dq1"], ["p2", "dq2"], ["p3", "dq3"]],
}
CYLINDER = {  # README's cylinder pullback problem: observables on the target chart
    "chart": {"pairs": [["l", "phi_l"]]},
    "pullback": {
        "target": {"pairs": [["z", "phi_z"]]},
        "theta": "standard",
        "map": {"z": "2*l", "phi_z": "phi_l"},
    },
}
SCALED = {"theta": [["(1 + q1^2)*p1", "dq1"]]}  # polarised-scaled, adapted gauge


class TestExactOutputPins:
    """Byte pins of the exact CLI outputs on seeded and sparse observables.

    Each case runs ``commutator --json``, ``commutator --formal``, ``quantise
    --json`` and plain ``quantise`` on every observable pair of its problem
    and pins the sha256 of all their stdout, so a change to the exact kernels
    that alters any printed operator fails here.
    """

    @staticmethod
    def observables(chart, seed, sparse):
        """Three seeded pairs from ``verify.random_poly`` on ``chart``, then the sparse pairs."""
        rng = random.Random(seed)
        seeded = [(random_poly(chart, rng), random_poly(chart, rng, 4, 5)) for _ in range(3)]
        return [(str(a), str(b)) for a, b in seeded] + sparse

    CASES = {
        "standard-1dof": (None, 1, [("3/2", "q1^2"), ("q1^3 - 2*q1", "p1*q1"), ("i", "p1")],
                          "76d102540b1a6f2ee71ef7398a3b79023f73c44b7ee616636fe93a5528e33850"),
        "standard-2dof": ({"chart": {"pairs": [["p1", "q1"], ["p2", "q2"]]}}, 2,
                          [("q1*q2", "p2^2"), ("5", "q2"), ("p1*q1", "p2*q2 + q2")],
                          "ffaa88bb21739d971f70cda70be9ca3a023fa85f79ff843b7302ff460e2e92a0"),
        "folded-3dof": (FOLDED_3DOF, 3, [("q3^2", "p3*q3"), ("p1", "q1"), ("7/3", "p2*q1")],
                        "88abc76fcbdf1b3f60a9f7740994068286f95a77219978edeb3ee3542e699cbe"),
        "cylinder": (CYLINDER, 4, [("z^2", "phi_z"), ("phi_z^2", "3"), ("z*phi_z", "z")],
                     "d2cf071bd25ac382ab1e8fc7ab0ca6d6803e7a604dcddad412a4634e6575515c"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_commutator_and_quantise_stdout_digest(self, capsys, tmp_path, name):
        problem, seed, sparse, digest = self.CASES[name]
        flags = []
        if problem is not None:
            path = tmp_path / "problem.json"
            path.write_text(json.dumps(problem))
            flags = ["--problem", str(path)]
        loaded = load_problem(problem or {})
        chart = loaded.chart if loaded.pullback is None else loaded.pullback.map.target
        out = []
        for a, b in self.observables(chart, seed, sparse):
            for argv in (
                ["commutator", f"--a={a}", f"--b={b}", "--json"],
                ["commutator", f"--a={a}", f"--b={b}", "--formal"],
                ["quantise", f"--observable={a}", "--json"],
                ["quantise", f"--observable={b}"],
            ):
                assert run([*argv, *flags]) == EXIT_OK
                out.append(capsys.readouterr().out)
        assert hashlib.sha256("".join(out).encode()).hexdigest() == digest

    def test_preserve_observable_stdout_digest(self, capsys, tmp_path):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(SCALED))
        out = []
        for a in ("p1", "p1^2*q1", "q1^3", "p1*q1 - 2*p1^3 + 1/2"):
            assert run(["preserve", "--problem", str(path), "--observable", a]) == EXIT_OK
            out.append(capsys.readouterr().out)
        assert hashlib.sha256("".join(out).encode()).hexdigest() == (
            "345f76c57d8edd1a1499c6b3e354c38314b917398b64b34d3deaa66f55582a0e"
        )


class TestReadmeProblemFile:
    """The example under README's "## Problem files" loads and runs as documented."""

    @staticmethod
    def example() -> str:
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Problem files\n", 1)[1]
        return section.split("```json\n", 1)[1].split("```", 1)[0]

    def test_loads(self):
        prob = load_problem(self.example())
        assert prob.chart.coords == ("p1", "q1")
        assert set(prob.observables) == {"H"}
        assert prob.pullback.map.target.coords == ("z", "phi_z")

    def test_commutator(self, capsys, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text(self.example())
        assert run(["commutator", "--problem", str(path), "--a", "z^2", "--b", "phi_z"]) == EXIT_OK
        setup = load_problem(self.example()).pullback
        z, phi_z = (parse_poly(x, setup.map.target) for x in ("z", "phi_z"))
        want = str(theorem_commutator(z**2, phi_z, setup))  # the closed-form oracle
        assert out_of(capsys) == want == "16*i*hbar*p1 - 8*hbar^2*d/dq1"


class TestBks:
    def test_classify_table(self, capsys):
        assert run(["bks", "classify", "--n", "1", "--m-max", "1"]) == EXIT_OK
        out = out_of(capsys)
        assert "# converges=false" in out
        assert "Diverges" in out

    def test_pair_profile(self, capsys):
        assert run(["bks", "pair", "--n", "2", "--beta", "0:1:0.5"]) == EXIT_OK
        out = out_of(capsys)
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 3
        b0 = rows[0].split(",")
        # at beta = 0 the coefficient is -1/2 (hbar = 1) and purely real
        assert float(b0[1]) == pytest.approx(-0.5, abs=1e-9)
        assert abs(float(b0[2])) < 1e-9
        # the scaled column removes the (1+2 beta^2)^{-3/2} profile
        for row in rows:
            assert float(row.split(",")[3]) == pytest.approx(-0.5, abs=1e-6)

    def test_pair_undeformed_profile(self, capsys):
        # n = 0 is the undeformed pairing: the free coefficient -hbar^2/2 at every beta
        assert run(["bks", "pair", "--n", "0", "--beta", "0:1:0.5"]) == EXIT_OK
        lines = out_of(capsys).splitlines()
        assert "# converges=true" in lines[1]
        rows = lines[3:]
        assert len(rows) == 3
        for row in rows:
            assert float(row.split(",")[3]) == pytest.approx(-0.5, abs=1e-12)

    @staticmethod
    def _pair_rows(capsys, beta):
        assert run(["bks", "pair", "--n", "2", "--beta", beta]) == EXIT_OK
        return out_of(capsys).splitlines()[3:]

    @pytest.mark.parametrize("spec, betas", [
        pytest.param("0:1e-13:1e-14", [f"{k}e-14" for k in range(11)], id="small-scale"),
        pytest.param("0:2:0.25", ["0", "0.25", "0.5", "0.75", "1", "1.25", "1.5", "1.75", "2"],
                     id="quarters"),
        pytest.param("0:0.3:0.1", ["0", "0.1", "0.2", "0.3"], id="tenths"),
        pytest.param("0:0:1e-300", ["0"], id="one-sample"),
        pytest.param("1e308:-1e308:1", [], id="stop-before-start"),
    ])
    def test_pair_range_prints_each_decimal_sample(self, capsys, spec, betas):
        """A range prints, for each of its decimal samples, the row that sample prints alone."""
        rows = self._pair_rows(capsys, spec)
        assert rows == [self._pair_rows(capsys, b)[0] for b in betas]
        assert len({row.split(",")[0] for row in rows}) == len(betas)

    def test_negative_lam_as_a_separate_token(self, capsys):
        assert run(["bks", "classify", "--n", "2", "--lam=-1/2"]) == EXIT_OK
        joined = capsys.readouterr()
        assert run(["bks", "classify", "--n", "2", "--lam", "-1/2"]) == EXIT_OK
        assert capsys.readouterr() == joined
        assert "lam=-1/2" in joined.out

    def test_pair_rejects_momentum(self, capsys):
        assert run(["bks", "pair", "--n", "1", "--kind", "momentum"]) == EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize("argv, message", [
        # each mode accepts only its own options
        pytest.param(["classify", "--n", "1", "--m-max", "0", "--kind", "position"],
                     "unrecognized arguments: --kind position", id="classify-kind"),
        pytest.param(["classify", "--n", "1", "--beta", "0:1:0.5"],
                     "unrecognized arguments: --beta 0:1:0.5", id="classify-beta"),
        pytest.param(["pair", "--n", "2", "--m-max", "3"],
                     "unrecognized arguments: --m-max 3", id="pair-m-max"),
        pytest.param(["pair", "--n", "2", "--lam", "1/2"],
                     "unrecognized arguments: --lam 1/2", id="pair-lam"),
        pytest.param(["classify", "--n", "1", "--lam", "x"],
                     "--lam expects a rational such as 1 or 1/2", id="lam-malformed"),
        pytest.param(["classify", "--n", "1", "--lam", "1/0"],
                     "--lam expects a rational such as 1 or 1/2", id="lam-zero-denominator"),
        # float(lam) overflows; a tiny lam overflows |a|^(-s/k) in the mu moment instead
        pytest.param(["classify", "--n", "1", "--lam", "1e400"],
                     "--lam 1e400: lam/(2*hbar) or a mu moment overflows a float at hbar = 1",
                     id="lam-overflow"),
        pytest.param(["classify", "--n", "1", "--lam", "1e-300"],
                     "--lam 1e-300: lam/(2*hbar) or a mu moment overflows a float at hbar = 1",
                     id="lam-tiny-moment-overflow"),
        pytest.param(["pair", "--n", "2", "--beta", "0:x:1"],
                     "--beta expects a finite number or 'start:stop:step' with step > 0",
                     id="beta-malformed"),
        pytest.param(["pair", "--n", "2", "--beta", "0:inf:1"],
                     "--beta expects a finite number or 'start:stop:step' with step > 0",
                     id="beta-infinite"),
        pytest.param(["pair", "--n", "2", "--beta", "0:1:0"],
                     "--beta expects a finite number or 'start:stop:step' with step > 0",
                     id="beta-zero-step"),
        pytest.param(["pair", "--n", "2", "--beta", "0:1:-0.5"],
                     "--beta expects a finite number or 'start:stop:step' with step > 0",
                     id="beta-negative-step"),
        pytest.param(["pair", "--n", "2", "--beta", "0:1:1e-300"],
                     "--beta gives more than 1000000 samples; use a larger step",
                     id="beta-too-many-samples"),
        # 10**6 + 1 samples: the last one lies within the tolerance of a step beyond stop
        pytest.param(["pair", "--n", "2", "--beta", "0:999999.9999999999:1"],
                     "--beta gives more than 1000000 samples; use a larger step",
                     id="beta-too-many-samples-within-tolerance"),
        pytest.param(["pair", "--n", "2", "--hbar", "0"], "hbar must be positive and finite",
                     id="pair-hbar-zero"),
        pytest.param(["pair", "--n", "2", "--hbar", "-1"], "hbar must be positive and finite",
                     id="pair-hbar-negative"),
        pytest.param(["pair", "--n", "2", "--hbar", "-1e-3"], "hbar must be positive and finite",
                     id="pair-hbar-negative-exponent"),
        pytest.param(["classify", "--n", "2", "--hbar", "-1e-3", "--m-max", "0"],
                     "hbar must be positive and finite", id="classify-hbar-negative-exponent"),
        pytest.param(["classify", "--n", "2", "--lam", "--hbar", "2"],
                     "argument --lam: expected one argument", id="lam-then-option"),
        pytest.param(["pair", "--n", "2", "--hbar", "nan"], "hbar must be positive and finite",
                     id="pair-hbar-nan"),
        pytest.param(["pair", "--n", "2", "--hbar", "inf"], "hbar must be positive and finite",
                     id="pair-hbar-inf"),
        pytest.param(["classify", "--n", "2", "--hbar", "nan", "--m-max", "0"],
                     "hbar must be positive and finite", id="classify-hbar-nan"),
        pytest.param(["classify", "--n", "2", "--hbar", "inf", "--m-max", "0"],
                     "hbar must be positive and finite", id="classify-hbar-inf"),
        pytest.param(["pair", "--n", "1", "--beta", "-1"],
                     "beta = -1.0 hits the singular locus 1 + 2*beta^1 <= 0",
                     id="pair-singular-beta"),
        # an empty table would read as convergent
        pytest.param(["classify", "--n", "2", "--m-max", "-1"], "m_max must be >= 0",
                     id="classify-negative-m-max"),
        # n = 3 gives 5 + 3 * m_max rows: 100,001 at m_max = 33332
        pytest.param(["classify", "--n", "3", "--m-max", "33332"],
                     "--m-max gives more than 100000 rows; use a smaller bound",
                     id="classify-rows-past-the-bound"),
        pytest.param(["classify", "--n", "3", "--m-max", "100000000"],
                     "--m-max gives more than 100000 rows; use a smaller bound",
                     id="classify-rows-far-past-the-bound"),
        pytest.param(["pair", "--n", "2000", "--beta", "0:2:0.5"],
                     "1 + 2*beta^n or its 3/2 power overflows a float at beta = 1.5, n = 2000",
                     id="pair-weight-overflow"),
        pytest.param(["pair", "--n", "2", "--beta", "1e150"],
                     "1 + 2*beta^n or its 3/2 power overflows a float at beta = 1e+150, n = 2",
                     id="pair-conserved-weight-overflow"),
    ])
    def test_rejects_input(self, capsys, argv, message):
        assert run(["bks", *argv]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_classify_rows_at_the_bound_are_accepted(self, capsys, monkeypatch):
        """n = 3, m_max = 33331 gives 99,998 rows: within the bound (the table stubbed)."""
        monkeypatch.setattr(bks, "classify_pairing", lambda d, m_max: ([], False))
        assert run(["bks", "classify", "--n", "3", "--m-max", "33331"]) == EXIT_OK
        capsys.readouterr()

    def test_pair_at_a_high_order_exits_zero(self, capsys):
        # the scan of surviving terms is linear in n; 0.5^2000 underflows to 0, a finite weight
        assert run(["bks", "pair", "--n", "2000", "--beta", "0:1:0.5"]) == EXIT_OK
        rows = out_of(capsys).splitlines()
        assert rows[1].startswith("# converges=true ") and len(rows) == 6


class TestEvolve:
    def test_short_run_with_snapshots(self, capsys, tmp_path):
        snap = tmp_path / "snaps.bin"
        csv = tmp_path / "series.csv"
        code = run(
            [
                "evolve",
                "--n",
                "0",
                "--grid",
                "-15:15:256",
                "--dt",
                "0.002",
                "--steps",
                "20",
                "--init",
                "gaussian:q0=0,p0=0.5,sigma=1",
                "--csv",
                str(csv),
                "--snapshots",
                str(snap),
                "--snap-every",
                "10",
            ]
        )
        assert code == EXIT_OK
        lines = csv.read_text().strip().splitlines()
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 21
        # free evolution conserves the L2 norm to roundoff
        norms = [float(r.split(",")[1]) for r in data_rows]
        assert max(norms) - min(norms) < 1e-12
        arr = np.fromfile(snap, dtype="<f8").reshape(-1, 2 * 256)
        assert arr.shape[0] == 3  # initial + steps 10 and 20
        psi0 = arr[0, 0::2] + 1j * arr[0, 1::2]
        assert np.sum(np.abs(psi0) ** 2) * (30 / 255) == pytest.approx(1.0, abs=1e-6)

    def test_snapshot_rows_are_the_propagated_states_bitwise(self, capsys, tmp_path):
        """--steps 7 --snap-every 3 keeps the states at steps 0, 3 and 6, bit for bit."""
        from pseudoquant import dynamics

        snap = tmp_path / "s.bin"
        argv = ["evolve", "--n", "2", "--steps", "7", "--snap-every", "3", "--snapshots", str(snap)]
        assert run(argv) == EXIT_OK
        grid = dynamics.Grid1D(-10.0, 10.0, 2048)  # the defaults of --grid, --init and --dt
        prop = dynamics.Propagator(grid, dynamics.EvolutionConfig(2, 1.0, 1e-3, steps=7))
        states = [dynamics.gaussian_state(grid, 0.0, 2.0, 0.5, 1.0)]
        for _ in range(6):
            states.append(prop.step(states[-1]))
        want = np.asarray([s.psi for s in states[::3]], dtype="<c16")  # 3 rows of 2048 nodes
        assert want.shape == (3, 2048) and snap.read_bytes() == want.tobytes()

    def test_bad_grid(self, capsys):
        assert run(["evolve", "--n", "0", "--grid", "1:2"]) == EXIT_INPUT
        capsys.readouterr()

    def test_bad_init(self, capsys):
        assert run(["evolve", "--n", "0", "--init", "delta:q0=0"]) == EXIT_INPUT
        capsys.readouterr()

    GRID_FORM = ("--grid expects 'qmin:qmax:nodes' with finite numbers qmin, qmax and "
                 "an integer nodes")
    INIT_FORM = "--init expects 'gaussian:q0=..,p0=..,sigma=..' with finite numbers and sigma > 0"
    FINITE_STEP = "hbar and dt must be positive and finite"

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--grid", "1:2:x"], GRID_FORM, id="grid-malformed"),
        pytest.param(["--grid", "1:2"], GRID_FORM, id="grid-short"),
        pytest.param(["--grid", "0:inf:64"], GRID_FORM, id="grid-infinite"),
        pytest.param(["--init", "gaussian:q0=x"], INIT_FORM, id="init-malformed"),
        pytest.param(["--init", "gaussian:w=1"], INIT_FORM, id="init-unknown-key"),
        pytest.param(["--init", "gaussian:q0=inf"], INIT_FORM, id="init-infinite"),
        pytest.param(["--init", "gaussian:sigma=0"], INIT_FORM, id="init-sigma-zero"),
        pytest.param(["--snapshots", "out.bin", "--snap-every", "0"],
                     "--snap-every expects an integer >= 1", id="snap-every-zero"),
        pytest.param(["--snapshots", "out.bin", "--snap-every", "-3"],
                     "--snap-every expects an integer >= 1", id="snap-every-negative"),
        pytest.param(["--hbar", "nan"], FINITE_STEP, id="hbar-nan"),
        pytest.param(["--hbar", "inf"], FINITE_STEP, id="hbar-inf"),
        pytest.param(["--dt", "nan"], FINITE_STEP, id="dt-nan"),
        pytest.param(["--dt", "inf"], FINITE_STEP, id="dt-inf"),
        pytest.param(["--hbar", "-1e-3"], FINITE_STEP, id="hbar-negative-exponent"),
        pytest.param(["--dt", "-1e-3"], FINITE_STEP, id="dt-negative-exponent"),
        pytest.param(["--grid=-12:12:100000000"],
                     "--grid gives more than 1000000 nodes; use fewer nodes", id="nodes-bound"),
        pytest.param(["--steps", "1000000"],
                     "--steps gives more than 1000000 rows; use fewer steps", id="rows-bound"),
        pytest.param(["--steps", "100000000000"],
                     "--steps gives more than 1000000 rows; use fewer steps", id="rows-far-bound"),
        # 3052 kept states of 2048 nodes are 100,007,936 bytes
        pytest.param(["--steps", "3051", "--snapshots", "out.bin", "--snap-every", "1"],
                     "--snapshots gives more than 100000000 bytes; use a larger --snap-every",
                     id="snapshot-bytes-bound"),
    ])
    def test_rejects_input(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run(["evolve", "--n", "0", "--steps", "2", *argv]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp_path / "out.bin").exists()

    @staticmethod
    def _evolve_fresh(argv):
        """``evolve`` in a fresh interpreter, so stderr holds exactly what a user sees."""
        return run_fresh(["-m", "pseudoquant.cli", "evolve", *argv])

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--hbar", "1e300"], "hbar=1e+300, dt=0.001 and grid spacing 0.0097704",
                     id="hbar-overflow"),
        pytest.param(["--grid=-1e300:1e300:64"], "hbar=1, dt=0.001 and grid spacing 3.1746e+298",
                     id="spacing-overflow"),
        pytest.param(["--grid=-1e-300:1e-300:64"], "hbar=1, dt=0.001 and grid spacing 3.1746e-302",
                     id="spacing-underflow"),
    ])
    def test_non_finite_coefficients(self, argv, message):
        proc = self._evolve_fresh(["--n", "0", "--steps", "3", *argv])
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == ""
        assert proc.stderr == f"error: Crank-Nicolson coefficients are not finite for {message}\n"

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--grid=-1e100:1e100:64"],
                     "the Gaussian (q0=0, p0=2, sigma=0.5) has no finite, nonzero mass on the "
                     "grid [-1e+100, 1e+100] with 64 nodes", id="nodes-miss-packet"),
        pytest.param(["--grid=-5:5:64", "--init", "gaussian:q0=1e6"],
                     "the Gaussian (q0=1e+06, p0=0, sigma=1) has no finite, nonzero mass on the "
                     "grid [-5, 5] with 64 nodes", id="packet-off-grid"),
        pytest.param(["--init", "gaussian:sigma=1e-200"],
                     "the Gaussian normalisation (2*pi*sigma^2)^(-1/4) is not a finite float "
                     "for sigma=1e-200", id="sigma-underflow"),
        pytest.param(["--init", "gaussian:sigma=1e200"],
                     "the Gaussian normalisation (2*pi*sigma^2)^(-1/4) is not a finite float "
                     "for sigma=1e+200", id="sigma-overflow"),
    ])
    def test_unrepresentable_initial_state(self, argv, message):
        proc = self._evolve_fresh(["--n", "0", "--steps", "3", *argv])
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"  # so no traceback either

    def test_unallocatable_grid(self):
        # 10^15 nodes would need 7.11 PiB: the node bound refuses them before numpy allocates
        proc = self._evolve_fresh(["--n", "0", "--grid=-5:5:1000000000000000"])
        assert proc.returncode == EXIT_INPUT
        assert proc.stdout == ""
        assert proc.stderr == "error: --grid gives more than 1000000 nodes; use fewer nodes\n"

    def test_sizes_at_the_bounds_are_accepted(self, capsys, tmp_path, monkeypatch):
        """3051 kept states of 2048 nodes, 99,975,168 bytes, pass every bound (the run stubbed)."""
        from pseudoquant import dynamics

        monkeypatch.setattr(dynamics.Propagator, "step", lambda self, state: state)
        snaps = tmp_path / "s.bin"
        argv = ["evolve", "--n", "0", "--steps", "3050", "--snapshots", str(snaps),
                "--snap-every", "1", "--csv", str(tmp_path / "c.csv")]
        assert run(argv) == EXIT_OK
        assert snaps.stat().st_size == 3051 * 16 * 2048

    def test_boundary_warning_names_first_step(self, tmp_path):
        # The packet reaches the right edge, reflects and is back inside by the last step,
        # so only a check at every record sees it.
        csv = tmp_path / "series.csv"
        proc = self._evolve_fresh(["--n", "0", "--grid=-10:10:1024", "--dt", "0.002",
                                   "--steps", "600", "--init", "gaussian:q0=5,p0=10,sigma=0.5",
                                   "--csv", str(csv)])
        assert proc.returncode == EXIT_OK
        assert proc.stderr == (
            "warning: boundary probability fraction first exceeded 1.0e-06 at step 120 "
            "(t=0.24), largest 4.460e-02; enlarge the domain or shorten the run\n"
        )
        rows = [l for l in csv.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "t,l2_norm,weighted_norm,mean_q,var_q" and len(rows) == 602


class TestBsCount:
    def test_range(self, capsys):
        assert run(["bs-count", "--E", "1..5"]) == EXIT_OK
        rows = [l for l in out_of(capsys).splitlines() if not l.startswith("#")][1:]
        got = {int(r.split(",")[0]): (int(r.split(",")[1]), int(r.split(",")[2])) for r in rows}
        assert got == {1: (1, 0), 2: (3, 3), 3: (5, 8), 4: (7, 15), 5: (9, 24)}

    def test_points_file(self, capsys, tmp_path):
        pts = tmp_path / "points.csv"
        assert run(["bs-count", "--E", "2", "--points", str(pts)]) == EXIT_OK
        capsys.readouterr()
        rows = pts.read_text().strip().splitlines()[1:]
        vals = sorted(float(r.split(",")[1]) for r in rows)
        assert vals == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)])

    @pytest.mark.parametrize("spec", ["5..2", "1..2..3", "x"])
    def test_bad_range(self, capsys, spec):
        assert run(["bs-count", "--E", spec]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --E expects a level or 'lo..hi' with integers 1 <= lo <= hi\n"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--E", "1..1000001"], "--E gives more than 1000000 levels; use a smaller range"),
            (["--E", "1..100000000"], "--E gives more than 1000000 levels; use a smaller range"),
            (["--E", "3163", "--points", "{pts}"],
             "--points gives more than 10000000 points; use a smaller range"),
            (["--E", "1..311", "--points", "{pts}"],
             "--points gives more than 10000000 points; use a smaller range"),
            # more levels than sys.maxsize: a range that long has no len()
            (["--E", "1..99999999999999999999"],
             "--E gives more than 1000000 levels; use a smaller range"),
        ],
    )
    def test_sizes_are_bounded_before_enumerating(self, capsys, tmp_path, argv, message):
        pts = tmp_path / "points.csv"
        assert run(["bs-count", *[a.format(pts=pts) for a in argv]]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"
        assert not pts.exists()

    def test_points_at_the_bound_are_accepted(self, capsys, tmp_path, monkeypatch):
        """E = 1..310 gives 9,978,125 points: within the bound, so no error (enumeration stubbed)."""
        monkeypatch.setattr(bohrsommerfeld, "folded_points", lambda E: ())
        assert run(["bs-count", "--E", "1..310", "--points", str(tmp_path / "p.csv")]) == EXIT_OK

    def test_closed_form_rows(self, capsys):
        assert run(["bs-count", "--E", "1..300"]) == EXIT_OK
        rows = [l for l in out_of(capsys).splitlines() if not l.startswith("#")][1:]
        assert rows == [f"{E},{2 * E - 1},{E * E - 1}" for E in range(1, 301)]

    def test_points_file_lists_enumeration(self, capsys, tmp_path):
        pts = tmp_path / "points.csv"
        assert run(["bs-count", "--E", "1..6", "--points", str(pts)]) == EXIT_OK
        capsys.readouterr()
        want = ["E,l"] + [
            f"{E},{format(p.value, '.17g')}" for E in range(1, 7) for p in folded_points(E)
        ]
        assert pts.read_text() == "\n".join(want) + "\n"


class TestImports:
    """The exact subcommands must not pay for loading numpy, scipy or dataclasses."""

    HEAVY = "[m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')]"
    # dataclasses imports inspect, which imports ast, dis and tokenize
    INTROSPECTION = ("dataclasses", "inspect")

    def _loaded(self, code, listed=None):
        """The numpy/scipy modules, or the ``listed`` ones, that ``code`` loads when run fresh."""
        loaded = self.HEAVY if listed is None else f"[m for m in {listed!r} if m in sys.modules]"
        proc = run_fresh(["-c", f"import sys\n{code}\nprint({loaded})"], check=True)
        return proc.stdout.strip().splitlines()[-1]

    def test_import_loads_no_numpy_or_scipy(self):
        code = "import pseudoquant.cli, pseudoquant.verify, pseudoquant.bks"
        assert self._loaded(code) == "[]"

    @pytest.mark.parametrize("argv", [
        ["commutator", "--a", "p1", "--b", "q1"],
        ["quantise", "--observable", "p1^2"],
        ["preserve", "--grid", "2,2"],
        ["bks", "classify", "--n", "2", "--m-max", "1"],
        ["bks", "pair", "--n", "2", "--beta", "0:1:0.5"],
        ["bs-count", "--E", "1..3"],
    ], ids=lambda argv: "-".join(argv[:2]) if argv[0] == "bks" else argv[0])
    def test_exact_subcommand_loads_no_numpy_or_scipy(self, argv):
        code = f"from pseudoquant import cli\ncli.run({argv!r})"
        assert self._loaded(code) == "[]"

    def test_verify_import_loads_no_dataclasses_or_numeric_modules(self):
        listed = self.INTROSPECTION + ("pseudoquant.bks", "pseudoquant.bohrsommerfeld")
        assert self._loaded("import pseudoquant.verify", listed) == "[]"

    @pytest.mark.parametrize("argv", [
        ["commutator", "--a", "p1", "--b", "q1"],
        ["quantise", "--observable", "p1^2"],
        ["preserve", "--grid", "2,2"],
    ], ids=lambda argv: argv[0])
    def test_exact_subcommand_loads_no_dataclasses(self, argv):
        code = f"from pseudoquant import cli\ncli.run({argv!r})"
        assert self._loaded(code, self.INTROSPECTION) == "[]"

    def test_every_exported_name_resolves(self):
        """A stale ``__all__`` entry breaks ``from pseudoquant.<module> import *``."""
        stale = []
        for info in pkgutil.iter_modules(pseudoquant.__path__):
            module = importlib.import_module(f"pseudoquant.{info.name}")
            stale += [f"{info.name}.{name}" for name in getattr(module, "__all__", ())
                      if not hasattr(module, name)]
        assert stale == []

    def test_no_unused_imports(self):
        """Every imported name is read somewhere in its module.

        Names listed in ``__all__`` count as read, and ``__init__.py`` holds
        only re-exports, so it is not scanned.
        """
        unused = []
        for path in sorted(Path(pseudoquant.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
                ):
                    used.update(ast.literal_eval(node.value))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"
                ):
                    for alias in node.names:
                        name = alias.asname or alias.name.split(".")[0]
                        if name not in used:
                            unused.append(f"{path.name}:{node.lineno}: {name}")
        assert unused == []


class TestVerifyExitCodes:
    @staticmethod
    def _results(statuses):
        from pseudoquant.verify import CheckResult

        return [CheckResult(f"c{i}", "anchor", s, "details") for i, s in enumerate(statuses)]

    def test_flags_exit_zero_without_strict(self, capsys, monkeypatch):
        import pseudoquant.verify as verify

        monkeypatch.setattr(
            verify, "run_all", lambda seed=None: self._results([verify.PASS, verify.FLAG])
        )
        assert run(["verify-paper"]) == EXIT_OK
        assert run(["verify-paper", "--strict"]) == 3
        capsys.readouterr()

    def test_fail_exits_two(self, capsys, monkeypatch):
        import pseudoquant.verify as verify

        monkeypatch.setattr(
            verify, "run_all", lambda seed=None: self._results([verify.PASS, verify.FAIL])
        )
        assert run(["verify-paper"]) == 2
        capsys.readouterr()


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        cmd = ["bks", "pair", "--n", "2", "--beta", "0:2:0.25"]
        assert run(cmd) == EXIT_OK
        first = capsys.readouterr().out
        assert run(cmd) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
