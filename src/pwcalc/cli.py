"""Command-line interface.

Subcommands: perspective, mean, divergence, lebesgue, t2bound, suite.
Exit codes: 0 success / no failures, 1 suite failures, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import calculus as calc
from .extended import dump_json
from .functions import IntegralRepr77, Measure, catalog, from_repr77
from .linalg import MatrixFileError, read_matrix, write_matrix
from .perspectives import (
    connection,
    connection_generator,
    is_absolutely_continuous,
    lebesgue_decomposition,
    max_f_divergence,
    perspective_apply,
    t2_bound,
)
from .suites import (
    _PROFILE_MIN_DIM,
    RandomSpec,
    candidate_anticommutator,
    candidate_connection,
    candidate_parallel_sum,
    candidate_perspective,
    suite_axioms_thm101,
    suite_axioms_thm103,
    suite_connection_cor107,
    suite_continuity,
    suite_convexity,
    t_cubed,
)


class SpecError(ValueError):
    pass


def parse_function_spec(spec: str):
    """Function specs: power:2, tlogt, neglog, glambda:0.5, gn:3,
    square_minus, max1, t3, repr77:<path>."""
    name, _, arg = spec.partition(":")
    try:
        if name == "t3":
            return t_cubed()
        if name == "repr77":
            if not arg:
                raise SpecError("repr77 needs a path: repr77:<file>")
            return from_repr77(load_repr77(arg))
        if name in ("power", "glambda", "gn"):
            if not arg:
                raise SpecError(f"{name} needs a parameter, e.g. {name}:2")
            return catalog(name, float(arg))
        if arg:
            raise SpecError(f"{name} takes no parameter")
        return catalog(name)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def parse_mean_spec(spec: str):
    """Mean generator specs: geometric, parallel, arithmetic, hpower:p."""
    name, _, arg = spec.partition(":")
    try:
        if name == "hpower":
            if not arg:
                raise SpecError("hpower needs an exponent, e.g. hpower:0.5")
            return connection_generator(name, float(arg))
        if arg:
            raise SpecError(f"{name} takes no parameter")
        return connection_generator(name)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc


def load_repr77(path) -> IntegralRepr77:
    """Representation file: {"a":..,"b":..,"c":..,"d":..,"atoms":[[l,w],..]}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"{path}: cannot read representation: {exc}") from exc
    try:
        mu = Measure.from_atoms([(float(l), float(w))
                                 for l, w in payload.get("atoms", [])])
        return IntegralRepr77(float(payload["a"]), float(payload["b"]),
                              float(payload["c"]), float(payload["d"]), mu)
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"{path}: bad representation: {exc}") from exc


def fmt_xreal(v: float) -> str:
    return "inf" if math.isinf(v) else repr(float(v))


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pwcalc")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("perspective", help="extended operator perspective")
    sp.add_argument("--f", required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--out")
    sp.add_argument("--tau-end", type=float, default=calc.ENDPOINT_TOL)

    sp = sub.add_parser("mean", help="Kubo-Ando connection / mean")
    sp.add_argument("--h", required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--out")

    sp = sub.add_parser("divergence", help="maximal f-divergence")
    sp.add_argument("--f", required=True)
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)

    sp = sub.add_parser("lebesgue", help="Lebesgue decomposition of A wrt B")
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)
    sp.add_argument("--out-ac")
    sp.add_argument("--out-singular")

    sp = sub.add_parser("t2bound", help="boundedness and norm of the squared perspective")
    sp.add_argument("--A", required=True)
    sp.add_argument("--B", required=True)

    sp = sub.add_parser("suite", help="run a property/axiom suite")
    names = sp.add_subparsers(dest="name", required=True)
    for name, (flags, _, _) in _SUITES.items():
        # no abbreviations: --h would otherwise be read as --help by the
        # suites that take no --h
        sp = names.add_parser(name, allow_abbrev=False)
        sp.add_argument("--seed", type=_int_at_least(0), default=0)
        sp.add_argument("--dim", type=_int_at_least(1), default=4)
        sp.add_argument("--trials", type=_int_at_least(1), default=100)
        sp.add_argument("--profile", default="well_conditioned",
                        choices=list(_PROFILE_MIN_DIM))
        sp.add_argument("--report")
        for flag, default in flags.items():
            sp.add_argument(flag, default=default)
    return p


def _int_at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer"
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return integer


def _operator_convex(spec: str):
    """--f of a suite that takes perspectives of f without asserting that f
    is operator convex, as perspective_apply then requires the tag."""
    f = parse_function_spec(spec)
    if not f.has_tag("operator_convex"):
        raise SpecError(f"--f {spec} is not tagged operator convex, "
                        "which this suite requires")
    return f


def _axioms101_candidate(name: str):
    """parallel_sum, anticommutator, or mean:<mean spec>."""
    if name.startswith("mean:"):
        return candidate_connection(parse_mean_spec(name[5:]))
    stock = {"parallel_sum": candidate_parallel_sum,
             "anticommutator": candidate_anticommutator}
    if name not in stock:
        raise SpecError(f"unknown axioms101 candidate {name!r}")
    return stock[name]


# suite name -> (the flags it reads, with their defaults; the suite; its
# subject built from the parsed flags)
_SUITES = {
    "convexity": ({"--f": "power:2"}, suite_convexity,
                  lambda a: parse_function_spec(a.f)),
    "continuity": ({"--f": "tlogt", "--h": None}, suite_continuity,
                   lambda a: parse_mean_spec(a.h) if a.h
                   else _operator_convex(a.f)),
    "axioms101": ({"--candidate": "parallel_sum"}, suite_axioms_thm101,
                  lambda a: _axioms101_candidate(a.candidate)),
    "axioms103": ({"--f": "tlogt"}, suite_axioms_thm103,
                  lambda a: candidate_perspective(_operator_convex(a.f))),
    "connection107": ({"--h": "geometric"}, suite_connection_cor107,
                      lambda a: candidate_connection(parse_mean_spec(a.h))),
}


def _run_suite(args) -> int:
    if args.dim < _PROFILE_MIN_DIM[args.profile]:
        raise SpecError(f"--dim must be at least {_PROFILE_MIN_DIM[args.profile]}"
                        f" for --profile {args.profile}, got {args.dim}")
    _, suite, subject = _SUITES[args.name]
    report = suite(subject(args), RandomSpec(args.dim, args.dim, args.profile,
                                             args.seed), args.trials)
    print(f"{report.suite_name}: {report.passes}/{report.trials} passed "
          f"({report.wall_time_ms:.0f} ms)")
    for rec in report.failures[:5]:
        print(f"  failure at trial {rec['trial']}: {rec.get('check', '?')}")
    if args.report:
        report.write(args.report)
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "perspective":
            f = parse_function_spec(args.f)
            A, B = read_matrix(args.A), read_matrix(args.B)
            res = perspective_apply(f, A, B, endpoint_tol=args.tau_end)
            print(f"classification: {res.classification}")
            print(f"infinity part dimension: {res.value.infinity_dim}")
            print(f"operator norm: {fmt_xreal(res.value.operator_norm())}")
            if args.out:
                dump_json(res.value, args.out)
            return 0
        if args.command == "mean":
            h = parse_mean_spec(args.h)
            A, B = read_matrix(args.A), read_matrix(args.B)
            M = connection(h, A, B)
            print(f"norm: {repr(float(np.linalg.norm(M, 2)))}")
            if args.out:
                write_matrix(args.out, M)
            return 0
        if args.command == "divergence":
            f = parse_function_spec(args.f)
            A, B = read_matrix(args.A), read_matrix(args.B)
            print(fmt_xreal(max_f_divergence(f, A, B)))
            return 0
        if args.command == "lebesgue":
            A, B = read_matrix(args.A), read_matrix(args.B)
            dec = lebesgue_decomposition(A, B)
            print(f"absolutely continuous: {is_absolutely_continuous(A, B)}")
            print(f"singular part norm: "
                  f"{repr(float(np.linalg.norm(dec.singular_part, 2)))}")
            if args.out_ac:
                write_matrix(args.out_ac, dec.ac_part)
            if args.out_singular:
                write_matrix(args.out_singular, dec.singular_part)
            return 0
        if args.command == "t2bound":
            A, B = read_matrix(args.A), read_matrix(args.B)
            res = t2_bound(A, B)
            print(f"bounded: {res.bounded}")
            print(f"lambda_min: {fmt_xreal(res.lambda_min)}")
            return 0
        if args.command == "suite":
            return _run_suite(args)
    except (SpecError, MatrixFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
