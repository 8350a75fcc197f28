#!/usr/bin/env python3
# # Rating solvers and problems from timing data
#
# Two people each solve two problems, and we record how long each solve
# took. Rows are problems, columns are solvers: solver a1 needed 2 time
# units for either problem, solver a2 needed 3 for the first but only 1
# for the second.

import numpy as np

from bicentral import (
    ReverseTransform,
    WeightRelation,
    baseline_averages,
    compute_nebs,
    rank,
)

times = WeightRelation(
    a_labels=("a1", "a2"),
    b_labels=("b1", "b2"),
    weights=np.array([[2.0, 3.0], [2.0, 1.0]]),
)

# ## Why plain averages are not enough
#
# Averaging each solver's times makes them look identical, even though a2
# beat a1 on the problem that turned out to be easy and lost on the hard
# one. The problems themselves do get separated.

base = baseline_averages(times)
print("average time per solver :", base.a_bar)
print("average time per problem:", base.b_bar)

# ## Coupled ratings break the tie
#
# Instead we let problems and solvers rate each other: a problem is hard
# when strong solvers take long on it, and a solver is strong when it is
# quick on hard problems. "Quick" means the reverse weights are the
# reciprocals of the recorded times.

result = compute_nebs(times, ReverseTransform.reciprocal())
print("\nsolver ratings :", np.round(result.a, 4))
print("problem ratings:", np.round(result.b, 4))
print("converged in", result.convergence.iterations, "products with W'W")

# a2 now outranks a1, and the problem ratings keep their average-based
# order. The scalars couple the two sides: b is proportional to W a with
# factor lambda_, and a to W' b with factor mu.

print("\nlambda =", result.lambda_, " mu =", result.mu, " rho =", result.rho)

for side, scores, labels in (
    ("solvers", result.a, times.a_labels),
    ("problems", result.b, times.b_labels),
):
    print(f"\n{side}:")
    table = rank(scores, labels)
    for label, score, place, tied in zip(
        table.label_order, table.scores, table.ranks, table.tied
    ):
        marker = " (tied)" if tied else ""
        print(f"  #{place} {label}: {score:.6f}{marker}")
