"""Golden suite reports: every suite run with a failure or a note that the
tests and demos make, compared with reports stored under tests/data/.

Keys, trials, checks, passes and notes must match exactly; floats to 1e-9
relative (matrices relative to their largest entry), and witness vectors up
to a unit phase, so that a LAPACK differing in the last bits still passes.
On the host that wrote the goldens the reports match byte for byte; to
check that, rewrite them and diff:

    PYTHONPATH=src python tests/test_suite_goldens.py --write
    git diff --exit-code tests/data
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from pwcalc.calculus import HomogeneousFunction
from pwcalc.extended import INF
from pwcalc.functions import catalog
from pwcalc.perspectives import connection_generator, parallel_sum, perspective_apply
from pwcalc.suites import (
    RandomSpec,
    candidate_anticommutator,
    candidate_biased_perspective,
    candidate_negated_connection,
    suite_axioms_thm101,
    suite_axioms_thm103,
    suite_connection_cor107,
    suite_continuity,
    suite_convexity,
    t_cubed,
)

DATA = pathlib.Path(__file__).parent / "data"
SPEC = RandomSpec(4, 4, "well_conditioned", seed=42)
REL = 1e-9


def _t2_matrix(A, B):
    return perspective_apply(catalog("power", 2), A, B).value.form_matrix()


def _scaled_parallel_sum(A, B):
    return A.shape[0] * parallel_sum(A, B)


CASES = {
    "convexity_t3_well_conditioned_42":
        lambda: suite_convexity(t_cubed(), SPEC, 25),
    "convexity_t3_rank_deficient_3":
        lambda: suite_convexity(t_cubed(),
                                RandomSpec(2, 6, "rank_deficient", 3), 25),
    "convexity_restricted_ylogxy":
        lambda: suite_convexity(
            HomogeneousFunction("ylogxy", catalog("ylogxy"), 0.0, INF,
                                variant="ge"), SPEC, 25),
    "thm101_anticommutator":
        lambda: suite_axioms_thm101(candidate_anticommutator, SPEC, 25),
    "thm101_scaled_parallel_sum":
        lambda: suite_axioms_thm101(_scaled_parallel_sum, SPEC, 25),
    "thm103_biased_tlogt":
        lambda: suite_axioms_thm103(
            candidate_biased_perspective(catalog("tlogt"),
                                         np.array([0.6, 0.1, 0.2, 0.4])),
            SPEC, 25),
    "thm103_negated_geometric":
        lambda: suite_axioms_thm103(
            candidate_negated_connection(connection_generator("geometric")),
            SPEC, 25),
    "cor107_t2_matrix":
        lambda: suite_connection_cor107(_t2_matrix, SPEC, 25),
    "continuity_power2":
        lambda: suite_continuity(catalog("power", 2), SPEC, 10),
}


def golden_text(report) -> str:
    """The canonical report plus its notes, serialized like canonical_json."""
    payload = report.payload(with_wall_time=False)
    payload["notes"] = report.notes
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _is_matrix_payload(x) -> bool:
    return isinstance(x, dict) and set(x) == {"re", "im"}


def _as_complex(p) -> np.ndarray:
    return np.asarray(p["re"], dtype=float) + 1j * np.asarray(p["im"], dtype=float)


def _assert_close(got, want, path, phase_free=False):
    if _is_matrix_payload(want):
        assert _is_matrix_payload(got), path
        g, w = _as_complex(got), _as_complex(want)
        assert g.shape == w.shape, path
        if phase_free:  # witnesses are eigenvectors, fixed only up to phase
            inner = np.vdot(g, w)
            if abs(inner) > 0:
                g = g * (inner / abs(inner))
        tol = REL * max(np.abs(w).max(initial=0.0), np.abs(g).max(initial=0.0))
        assert np.abs(g - w).max(initial=0.0) <= tol, path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}",
                          phase_free=key == "witness")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]", phase_free)
    elif isinstance(want, float) and not isinstance(want, bool):
        assert isinstance(got, (int, float)), path
        assert got == want or abs(got - want) <= REL * max(abs(got), abs(want)), (
            path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    want = json.loads((DATA / f"suite_{case}.json").read_text())
    got = json.loads(golden_text(CASES[case]()))
    for key in ("suite", "seed", "trials", "passes", "notes"):
        assert got[key] == want[key], key
    assert ([(r["trial"], r["check"]) for r in got["failures"]]
            == [(r["trial"], r["check"]) for r in want["failures"]])
    _assert_close(got, want, case)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_suite_goldens.py --write")
    DATA.mkdir(exist_ok=True)
    for case, run in sorted(CASES.items()):
        (DATA / f"suite_{case}.json").write_text(golden_text(run()))
