"""The tolerance options of pwcalc's public API are the ones some caller sets.

Every other rank, endpoint and meet decision reads its module constant, so
the same question gets the same answer in every module.  A new per-call
override has to be added to KEPT here, with the caller that needs it.
"""

import ast
import fnmatch
import importlib
import inspect
import io
import pkgutil
import re
import tokenize
from pathlib import Path

import pwcalc

PATTERNS = ("*_tol", "*atol*", "*slack*", "with_diagnostics")

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
    ("linalg", "HERMITIAN_REL_TOL"), ("linalg", "ORTHONORMAL_ATOL"),
    ("calculus", "CORNER_REL_TOL"),
    ("calculus", "COMMUTE_REL_TOL"), ("calculus", "GROUP_REL_TOL"),
    ("variational", "PROJECTION_ATOL"), ("variational", "PROJECTION_RANK_CUT"),
    ("variational", "DECOMPOSITION_REL_TOL"), ("perspectives", "T2_SLACK_REL"),
    ("perspectives", "T2_LOWER_STEP"),
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
    assert len(rows) == 17  # "Seventeen tolerances make decisions"
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


SRC = Path(pwcalc.__file__).resolve().parent


def _named_spans(tree):
    """The source spans where a tolerance literal may stand: the value of a
    module-level UPPER_CASE constant, and a default of a public function's
    or method's signature."""
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign) else
                   [node.target] if isinstance(node, ast.AnnAssign) else [])
        if targets and all(isinstance(t, ast.Name) and t.id.isupper()
                           for t in targets):
            yield node
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                not node.name.startswith("_")):
            yield from node.args.defaults
            yield from filter(None, node.args.kw_defaults)


def test_no_bare_tolerance_literals():
    # every 1e-N in the library is a named constant or a documented default,
    # so a tolerance has one name and one value, in the module that owns it
    bare = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        spans = [((n.lineno, n.col_offset), (n.end_lineno, n.end_col_offset))
                 for n in _named_spans(ast.parse(text))]
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string) \
                    and not any(lo <= tok.start and tok.end <= hi
                                for lo, hi in spans):
                bare.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not bare, bare


KERNEL_ENTRIES = {"_pair_spectra", "_checked_pair_spectrum",
                  "_checked_state_spectrum", "_definite_spectra"}


def _positional_reads(tree):
    """(line, entry) where code indexes, slices, star-unpacks or
    tuple-unpacks the record of a call to a pair-kernel entry, or of a name
    bound to one anywhere in the module."""
    def entry(node, bound):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            return name if name in KERNEL_ENTRIES else None
        return None

    nodes = list(ast.walk(tree))
    bound = {n.targets[0].id: entry(n.value, {}) for n in nodes
             if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Name)
             and entry(n.value, {})}
    for node in nodes:
        if isinstance(node, (ast.Subscript, ast.Starred)) or (
                isinstance(node, ast.Assign) and isinstance(
                    node.targets[0], (ast.Tuple, ast.List))):
            read = entry(node.value, bound)
            if read:
                yield node.lineno, read


def test_kernel_records_are_read_by_name():
    # the pair kernel's entries return named records (PairSpectrum,
    # StateSpectrum, DefiniteSpectrum): the library reads them by field, so
    # that no caller depends on the order of a record's fields
    probe = ("def f(A, B):\n    t = _pair_spectra(A, B)[2]\n"
             "    s = _checked_state_spectrum(A, B, A)\n    a, b = s\n"
             "    g(*_definite_spectra(A, B, A))\n")
    assert sorted(line for line, _ in _positional_reads(ast.parse(probe))) == [
        2, 4, 5]
    positional = [f"{path.name}:{line}: {name}"
                  for path in sorted(SRC.glob("*.py"))
                  for line, name in _positional_reads(
                      ast.parse(path.read_text(encoding="utf-8")))]
    assert not positional, positional
