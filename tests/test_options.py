"""The tolerance options of pwcalc's public API are the ones some caller sets.

Every other rank, endpoint and meet decision reads its module constant, so
the same question gets the same answer in every module.  A new per-call
override has to be added to KEPT here, with the caller that needs it.
"""

import fnmatch
import importlib
import inspect
import pkgutil

import pwcalc

PATTERNS = ("*_tol", "*slack*", "with_diagnostics")

KEPT = {
    # the CLI's --tau-end sets it
    ("pwcalc.perspectives.perspective_apply", "endpoint_tol"),
    # pw_commuting_oracle passes the rank cut of A + B
    ("pwcalc.calculus.HomogeneousFunction.bivariate", "zero_tol"),
    # two_projections cuts its ranges at 1e-6
    ("pwcalc.linalg.range_subspace", "rank_tol"),
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
