"""Golden calculus outputs on fixed pairs, compared with outputs stored under
tests/data/: `perspective_apply` with tlogt and power:2, `evaluate_state` of
both perspectives, the geometric `connection` and `lebesgue_decomposition`,
on `gen_pair` pairs of every profile at n = 2...6.

Infinity dimensions, classifications and endpoint hits must match exactly.
Forms (V F V*), essential projectors (V V*), the other matrices, the R
spectra and the state values must match to 1e-10 relative to their largest
entry, or to a floor where that entry can cancel to roundoff: |A| + |B|
(largest entries) for matrices and values, which are homogeneous of degree
one in the pair, and 1 for projectors and spectra.  None of these depends
on which basis of the essential part LAPACK returns.  To rewrite them:

    PYTHONPATH=src python tests/test_calculus_goldens.py --write
"""

import json
import math
import pathlib
import sys

import numpy as np
import pytest

from pwcalc.extended import _state_value, evaluate_state
from pwcalc.functions import catalog
from pwcalc.linalg import require_state
from pwcalc.perspectives import (
    connection,
    connection_generator,
    lebesgue_decomposition,
    perspective_apply,
)
from pwcalc.suites import RandomSpec, aux_rng, gen_pair, mat_payload, random_state

DATA = pathlib.Path(__file__).parent / "data"
PROFILES = ("well_conditioned", "rank_deficient", "projection")
DIMS = (2, 3, 4, 5, 6)
TRIALS = (0, 1, 2)
SEED = 2105
REL = 1e-10
FUNCTIONS = {"tlogt": catalog("tlogt"), "power:2": catalog("power", 2)}
GEOMETRIC = connection_generator("geometric")


def _xreal(v: float):
    return "inf" if v == math.inf else v


def _perspective(f, A, B, rho) -> dict:
    res = perspective_apply(f, A, B)
    T = res.value
    V = T.essential.basis
    return {
        "classification": res.classification,
        "infinity_dim": T.infinity_dim,
        "endpoint_hits": list(res.endpoint_hits),
        "r_eigenvalues": res.r_eigenvalues.tolist(),
        "form": mat_payload(T.form_matrix()),
        "projector": mat_payload(V @ V.conj().T),
        "state": _xreal(evaluate_state(T, rho)),
    }


def case_outputs(profile: str, n: int, trial: int) -> dict:
    spec = RandomSpec(n, n, profile, SEED)
    A, B = gen_pair(spec, trial)
    rho = random_state(aux_rng(spec, trial), n)
    dec = lebesgue_decomposition(A, B)
    out = {name: _perspective(f, A, B, rho) for name, f in FUNCTIONS.items()}
    out["geometric"] = mat_payload(connection(GEOMETRIC, A, B))
    out["lebesgue"] = {"ac_part": mat_payload(dec.ac_part),
                       "singular_part": mat_payload(dec.singular_part)}
    return out


def _key(n: int, trial: int) -> str:
    return f"n{n}_trial{trial}"


def profile_outputs(profile: str) -> dict:
    return {_key(n, trial): case_outputs(profile, n, trial)
            for n in DIMS for trial in TRIALS}


def _matrix(p) -> np.ndarray:
    return np.asarray(p["re"], dtype=float) + 1j * np.asarray(p["im"], dtype=float)


def _assert_close(got, want, path, floor):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, path
    scale = max(floor, np.abs(want).max(initial=0.0), np.abs(got).max(initial=0.0))
    assert np.abs(got - want).max(initial=0.0) <= REL * scale, path


def _assert_perspective(got, want, path, floor):
    for key in ("classification", "infinity_dim", "endpoint_hits"):
        assert got[key] == want[key], f"{path}.{key}"
    _assert_close(got["r_eigenvalues"], want["r_eigenvalues"],
                  f"{path}.r_eigenvalues", 1.0)
    _assert_close(_matrix(got["form"]), _matrix(want["form"]), f"{path}.form",
                  floor)
    _assert_close(_matrix(got["projector"]), _matrix(want["projector"]),
                  f"{path}.projector", 1.0)
    g, w = got["state"], want["state"]
    if "inf" in (g, w):
        assert g == w, f"{path}.state"
    else:
        _assert_close(g, w, f"{path}.state", floor)


@pytest.mark.parametrize("profile", PROFILES)
def test_calculus_matches_golden(profile):
    golden = json.loads((DATA / f"calculus_{profile}.json").read_text())
    assert set(golden) == {_key(n, t) for n in DIMS for t in TRIALS}
    for n in DIMS:
        for trial in TRIALS:
            path = f"{profile}.{_key(n, trial)}"
            want = golden[_key(n, trial)]
            got = json.loads(json.dumps(case_outputs(profile, n, trial)))
            A, B = gen_pair(RandomSpec(n, n, profile, SEED), trial)
            floor = np.abs(A).max() + np.abs(B).max()
            for name in FUNCTIONS:
                _assert_perspective(got[name], want[name], f"{path}.{name}",
                                    floor)
            _assert_close(_matrix(got["geometric"]), _matrix(want["geometric"]),
                          f"{path}.geometric", floor)
            for part in ("ac_part", "singular_part"):
                _assert_close(_matrix(got["lebesgue"][part]),
                              _matrix(want["lebesgue"][part]),
                              f"{path}.lebesgue.{part}", floor)


@pytest.mark.parametrize("profile", PROFILES)
def test_state_kernel_matches_evaluate_state(profile):
    # evaluate_state is require_state, then _state_value, to the last bit
    for n in DIMS:
        for trial in TRIALS:
            spec = RandomSpec(n, n, profile, SEED)
            A, B = gen_pair(spec, trial)
            rho = random_state(aux_rng(spec, trial), n)
            for f in FUNCTIONS.values():
                T = perspective_apply(f, A, B).value
                want = evaluate_state(T, rho)
                assert _state_value(T, require_state(rho)).hex() == want.hex()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_calculus_goldens.py --write")
    DATA.mkdir(exist_ok=True)
    for profile in PROFILES:
        text = json.dumps(profile_outputs(profile), sort_keys=True,
                          separators=(",", ":"))
        (DATA / f"calculus_{profile}.json").write_text(text + "\n")
