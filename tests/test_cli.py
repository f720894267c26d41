import json

import numpy as np
import pytest

from pwcalc.cli import main
from pwcalc.linalg import read_matrix, write_matrix


@pytest.fixture
def mats(tmp_path):
    paths = {}
    entries = {
        "a712": np.array([[1.0, 1.0], [1.0, 1.0]]),
        "b712": np.diag([1.0, 2.0]),
        "p": np.diag([1.0, 0.0]),
        "q": 0.5 * np.ones((2, 2)),
        "eye": np.eye(2),
    }
    for name, M in entries.items():
        p = tmp_path / f"{name}.json"
        write_matrix(p, M)
        paths[name] = str(p)
    return paths


class TestPerspectiveCommand:
    def test_bounded_pair(self, mats, capsys):
        code = main(["perspective", "--f", "power:2", "--A", mats["a712"],
                     "--B", mats["b712"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "classification: bounded" in out
        assert "2.9999999999" in out

    def test_unbounded_pair_with_output(self, mats, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        code = main(["perspective", "--f", "power:2", "--A", mats["p"],
                     "--B", mats["q"], "--out", str(out_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "proper_infinity_part" in out
        payload = json.loads(out_file.read_text())
        assert payload["n"] == 2
        assert len(payload["essential_basis"]["re"][0]) == 1

    def test_tau_end_flag(self, mats, capsys):
        code = main(["perspective", "--f", "power:2", "--A", mats["p"],
                     "--B", mats["q"], "--tau-end", "1e-6"])
        assert code == 0


class TestDivergenceCommand:
    def test_zero_self_divergence(self, mats, capsys):
        code = main(["divergence", "--f", "tlogt", "--A", mats["a712"],
                     "--B", mats["a712"]])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert abs(float(out)) < 1e-9

    def test_infinite(self, mats, capsys):
        code = main(["divergence", "--f", "power:2", "--A", mats["p"],
                     "--B", mats["q"]])
        assert code == 0
        assert capsys.readouterr().out.strip() == "inf"


class TestMeanCommand:
    def test_geometric(self, mats, tmp_path, capsys):
        out_file = tmp_path / "mean.json"
        code = main(["mean", "--h", "geometric", "--A", mats["b712"],
                     "--B", mats["b712"], "--out", str(out_file)])
        assert code == 0
        M = read_matrix(out_file)
        assert np.abs(M - np.diag([1.0, 2.0])).max() < 1e-9


class TestLebesgueCommand:
    def test_projections(self, mats, tmp_path, capsys):
        ac = tmp_path / "ac.json"
        sing = tmp_path / "sing.json"
        code = main(["lebesgue", "--A", mats["p"], "--B", mats["q"],
                     "--out-ac", str(ac), "--out-singular", str(sing)])
        out = capsys.readouterr().out
        assert code == 0
        assert "absolutely continuous: False" in out
        S = read_matrix(sing)
        assert np.abs(S - np.diag([1.0, 0.0])).max() < 1e-9


class TestT2BoundCommand:
    def test_bounded(self, mats, capsys):
        code = main(["t2bound", "--A", mats["a712"], "--B", mats["b712"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "bounded: True" in out
        assert "2.9999999999" in out

    def test_unbounded(self, mats, capsys):
        code = main(["t2bound", "--A", mats["p"], "--B", mats["q"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "bounded: False" in out
        assert "inf" in out


class TestSuiteCommand:
    def test_clean_suite_exit_zero(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        code = main(["suite", "convexity", "--f", "power:2", "--seed", "42",
                     "--dim", "4", "--trials", "30", "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["passes"] == 30
        assert payload["failures"] == []

    def test_falsifier_exit_one(self, capsys):
        code = main(["suite", "convexity", "--f", "t3", "--seed", "42",
                     "--dim", "4", "--trials", "20"])
        assert code == 1

    def test_report_is_deterministic_modulo_wall_time(self, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        argv = ["suite", "convexity", "--f", "power:2", "--seed", "7",
                "--dim", "3", "--trials", "15"]
        main(argv + ["--report", str(r1)])
        main(argv + ["--report", str(r2)])
        p1 = json.loads(r1.read_text())
        p2 = json.loads(r2.read_text())
        p1.pop("wall_time_ms"), p2.pop("wall_time_ms")
        assert p1 == p2

    def test_other_suites_run(self, capsys):
        assert main(["suite", "axioms101", "--trials", "10"]) == 0
        assert main(["suite", "axioms103", "--f", "tlogt", "--trials",
                     "10"]) == 0
        assert main(["suite", "connection107", "--h", "geometric", "--trials",
                     "10"]) == 0
        assert main(["suite", "continuity", "--f", "tlogt", "--trials",
                     "5"]) == 0

    def test_restricted_suite_via_cli(self, capsys):
        assert main(["suite", "convexity", "--f", "ylogxy", "--trials",
                     "10"]) == 0


class TestUsageErrors:
    def test_unknown_function_spec(self, mats, capsys):
        code = main(["divergence", "--f", "nope", "--A", mats["p"],
                     "--B", mats["q"]])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["divergence", "--f", "tlogt", "--A", "/nonexistent.json",
                     "--B", "/nonexistent.json"])
        assert code == 2

    def test_malformed_matrix(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n\": 2, \"re\": [[1, 0]]}")
        code = main(["divergence", "--f", "tlogt", "--A", str(bad),
                     "--B", str(bad)])
        assert code == 2

    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["divergence", "--bogus", "x"])
        assert exc.value.code == 2


class TestSuiteUsageErrors:
    """Bad suite input exits 2 with a message naming the flag."""

    def _exit_code(self, argv):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code

    def test_nonpositive_trials(self, capsys):
        assert self._exit_code(["suite", "convexity", "--trials", "-3"]) == 2
        assert "--trials" in capsys.readouterr().err

    def test_zero_dim(self, capsys):
        assert self._exit_code(["suite", "convexity", "--dim", "0"]) == 2
        assert "--dim" in capsys.readouterr().err

    def test_unknown_profile(self, capsys):
        assert self._exit_code(["suite", "axioms103", "--profile", "nope"]) == 2
        assert "--profile" in capsys.readouterr().err

    def test_dim_below_profile_minimum(self, capsys):
        assert self._exit_code(["suite", "convexity", "--dim", "1",
                                "--profile", "projection"]) == 2
        err = capsys.readouterr().err
        assert "--dim" in err and "projection" in err

    def test_flag_the_suite_does_not_read(self, capsys):
        assert self._exit_code(["suite", "axioms101", "--f", "tlogt"]) == 2
        assert "--f" in capsys.readouterr().err

    def test_negative_seed(self, capsys):
        assert self._exit_code(["suite", "axioms103", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_h_is_not_help_where_the_suite_takes_no_h(self, capsys):
        assert self._exit_code(["suite", "convexity", "--h", "geometric"]) == 2
        assert "--h" in capsys.readouterr().err

    def test_unknown_candidate(self, capsys):
        assert self._exit_code(["suite", "axioms101", "--candidate",
                                "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("suite", ["axioms103", "continuity"])
    @pytest.mark.parametrize("f", ["t3", "max1"])
    def test_f_not_operator_convex(self, suite, f, capsys):
        # these suites take perspective_apply(f), which needs the tag;
        # convexity asserts convexity and falsifies t3 instead
        assert self._exit_code(["suite", suite, "--f", f, "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert "--f" in err and "operator convex" in err


class TestRepr77Spec:
    def test_from_file(self, mats, tmp_path, capsys):
        rfile = tmp_path / "r77.json"
        rfile.write_text(json.dumps(
            {"a": 0.0, "b": 0.0, "c": 1.0, "d": 0.0, "atoms": []}))
        code = main(["perspective", "--f", f"repr77:{rfile}",
                     "--A", mats["a712"], "--B", mats["b712"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "bounded" in out

    @pytest.mark.parametrize("atom", ["[Infinity, 1.0]", "[1.0, Infinity]",
                                      "[NaN, 1.0]"])
    def test_non_finite_atom(self, atom, mats, tmp_path, capsys):
        # json reads Infinity and NaN; the measure rejects them, naming the
        # field
        rfile = tmp_path / "r77.json"
        rfile.write_text('{"a": 0, "b": 0, "c": 0, "d": 0, "atoms": [%s]}'
                         % atom)
        code = main(["divergence", "--f", f"repr77:{rfile}",
                     "--A", mats["a712"], "--B", mats["b712"]])
        assert code == 2
        assert "atom" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("a", "Infinity"), ("b", "NaN"), ("c", "NaN"), ("d", "-Infinity")])
    def test_non_finite_coefficient(self, field, value, mats, tmp_path,
                                    capsys):
        # a usage error naming the coefficient, not a value or a traceback
        coefficients = {"a": "0", "b": "0", "c": "0", "d": "0", field: value}
        rfile = tmp_path / "r77.json"
        rfile.write_text("{%s}" % ", ".join(
            f'"{k}": {v}' for k, v in coefficients.items()))
        code = main(["divergence", "--f", f"repr77:{rfile}",
                     "--A", mats["a712"], "--B", mats["b712"]])
        assert code == 2
        assert f"coefficient {field} must be finite" in capsys.readouterr().err

    def test_bad_file(self, mats, tmp_path, capsys):
        rfile = tmp_path / "bad77.json"
        rfile.write_text(json.dumps({"a": 0.0}))
        code = main(["perspective", "--f", f"repr77:{rfile}",
                     "--A", mats["a712"], "--B", mats["b712"]])
        assert code == 2
