"""Falsification suites for the convexity, continuity and axiom theorems.

A pass is sampled evidence; a failure is a concrete certificate, and a
subadditivity failure replays from its serialized inputs.
t^3 is convex but not operator convex, so its perspective must be flagged;
the anticommutator is not operator homogeneous; a rank-one bias breaks the
transformer inequality.
"""

import numpy as np

from pwcalc import catalog
from pwcalc.perspectives import connection_generator
from pwcalc.suites import (
    RandomSpec,
    candidate_anticommutator,
    candidate_biased_perspective,
    candidate_connection,
    candidate_parallel_sum,
    candidate_perspective,
    replay_convexity_failure,
    suite_axioms_thm101,
    suite_axioms_thm103,
    suite_connection_cor107,
    suite_convexity,
    t_cubed,
)

spec = RandomSpec(4, 4, "well_conditioned", seed=42)


def show(report):
    verdict = "PASS" if report.ok else f"{len(report.failures)} failures"
    print(f"{report.suite_name:45s} {report.passes}/{report.trials}  {verdict}")
    return report


print("== convexity ==")
show(suite_convexity(catalog("power", 2), spec, trials=150))
rep = show(suite_convexity(t_cubed(), spec, trials=150))
first = next(r for r in rep.failures if r["check"] == "subadditivity")
print("   first witness replays from serialized inputs:",
      replay_convexity_failure(t_cubed(), first))

print("\n== bounded-calculus axioms ==")
show(suite_axioms_thm101(candidate_parallel_sum, spec, trials=60))
show(suite_axioms_thm101(candidate_anticommutator, spec, trials=60))

print("\n== extended-perspective axioms ==")
show(suite_axioms_thm103(candidate_perspective(catalog("tlogt")), spec,
                         trials=100))
v = np.array([0.6, 0.1, 0.2, 0.4])
show(suite_axioms_thm103(candidate_biased_perspective(catalog("tlogt"), v),
                         spec, trials=60))

print("\n== connection axioms ==")
for name in ("geometric", "arithmetic", "parallel"):
    show(suite_connection_cor107(
        candidate_connection(connection_generator(name)), spec, trials=60))


def t2_matrix(A, B):
    from pwcalc.perspectives import perspective_apply
    return perspective_apply(catalog("power", 2), A, B).value.form_matrix()


show(suite_connection_cor107(t2_matrix, spec, trials=60))
