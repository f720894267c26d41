"""The tolerance options of pwcalc's public API are the ones some caller sets.

Every other rank, endpoint and meet decision reads its module constant, so
the same question gets the same answer in every module.  A new per-call
override has to be added to KEPT here, with the caller that needs it.
"""

import fnmatch
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pwcalc

PATTERNS = ("*_tol", "*slack*", "with_diagnostics")

KEPT = {
    # the CLI's --tau-end sets it
    ("pwcalc.perspectives.perspective_apply", "endpoint_tol"),
    # pw_commuting_oracle passes the rank cut of A + B
    ("pwcalc.calculus.HomogeneousFunction.bivariate", "zero_tol"),
    # no default: each caller names its own cosine
    ("pwcalc.linalg.Subspace.contains", "cos_tol"),
    ("pwcalc.linalg.Subspace.same_as", "cos_tol"),
    # the slacks of the checks and falsifiers
    ("pwcalc.extended.approx_equal", "slack"),
    ("pwcalc.extended.form_leq", "slack"),
    ("pwcalc.calculus.check_homogeneity", "slack"),
    ("pwcalc.functions.verify_boundary_metadata", "rel_tol"),
    ("pwcalc.perspectives.epsilon_monotone", "slack"),
    ("pwcalc.perspectives.check_ah_inequality", "rel_slack"),
    ("pwcalc.perspectives.check_positive_map_monotonicity", "rel_slack"),
}


def _public_callables():
    """(qualified name, callable) for every public function of a pwcalc
    module and every public method of a public class, where defined."""
    for info in pkgutil.iter_modules(pwcalc.__path__):
        module = importlib.import_module(f"pwcalc.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(
                    obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_tolerance_options_are_the_kept_ones():
    found = {
        (qualname, param)
        for qualname, fn in _public_callables()
        for param in inspect.signature(fn).parameters
        if any(fnmatch.fnmatchcase(param, p) for p in PATTERNS)
    }
    assert found == KEPT


def test_tolerance_rules_read_only_the_spectrum():
    # the cut scales with len(eigenvalues), with no other n to set
    for rule in (pwcalc.linalg.psd_tol, pwcalc.linalg.default_rank_tol):
        assert list(inspect.signature(rule).parameters) == ["eigenvalues"]


README = Path(__file__).resolve().parent.parent / "README.md"

# the deciding constants of README's tolerance table, and the two that only
# select a path, which the prose under the table gives
CONTRACT_CONSTANTS = {
    ("calculus", "ENDPOINT_TOL"), ("extended", "CONTAINMENT_COS_TOL"),
    ("linalg", "MEET_COS_TOL"), ("extended", "STATE_INF_REL_TOL"),
    ("extended", "KERNEL_REL_TOL"), ("variational", "SINGULAR_MASS_REL_TOL"),
    ("linalg", "PSD_CERTIFICATE_K"), ("linalg", "DEFINITE_MIN_N"),
}


def _contracts_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Numerical contracts", 1)[1].split("\n## ", 1)[0]


def _resolve(dotted: str):
    """The pwcalc object a README cell names, as `module.name`,
    `Class.method` or a bare function name."""
    head, *rest = dotted.split(".")
    modules = [importlib.import_module(f"pwcalc.{info.name}")
               for info in pkgutil.iter_modules(pwcalc.__path__)]
    if any(m.__name__ == f"pwcalc.{head}" for m in modules):
        obj = importlib.import_module(f"pwcalc.{head}")
    else:
        obj = next(vars(m)[head] for m in modules if head in vars(m))
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


def test_readme_tolerance_table_matches_the_constants():
    section = _contracts_section()
    rows = [line.split(" | ") for line in section.splitlines()
            if line.startswith("| ") and not line.startswith("| tolerance")]
    assert len(rows) == 7  # "Seven tolerances make decisions"
    stated = {}
    for cells in rows:
        name = re.search(r"`([\w.]+)`", cells[0])[1]
        where = re.match(r"`([\w.]+)`", cells[3])[1]
        assert callable(_resolve(where)), where
        if name.count(".") == 1 and name.split(".")[1].isupper():
            stated[tuple(name.split("."))] = re.match(r"`([^`]+)`", cells[1])[1]
        else:  # the rank cut is a rule, not a constant
            assert callable(_resolve(name)), name
    for name in ("PSD_CERTIFICATE_K", "DEFINITE_MIN_N"):
        stated["linalg", name] = re.search(
            rf"`linalg\.{name}` \(`([^`]+)`\)", section)[1]
    assert set(stated) == CONTRACT_CONSTANTS
    for (module, name), value in stated.items():
        constant = getattr(importlib.import_module(f"pwcalc.{module}"), name)
        assert float(value) == constant, (module, name, value, constant)
