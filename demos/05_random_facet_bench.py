"""
Measuring Random Facet on structured orientations
=================================================

Random Facet recursively throws away a random facet, solves the rest,
and either stops or recurses once more.  Its cost is counted in distinct
vertex evaluations.  On the built-in graph families the growth with the
cube dimension is strikingly tame.
"""

from usomat import FAMILIES, build_matousek, global_sink, random_facet, run_trials, stats_to_csv

# A single run, fully deterministic given the seed: start at the corner
# opposite the sink and count how many vertices get looked at.
o = build_matousek(FAMILIES["path"](8))
res = random_facet(o, seed=7)
print(f"path closure, n=8, seed 7: sink {res.sink} after "
      f"{res.evaluations} evaluations")
print("true sink:", global_sink(o))

# Means over many trials.  The loops family (no influences at all) is
# the easy extreme; the path closure is the structured realizable case;
# merged drops one edge and loses realizability at n >= 3.
stats = []
for family in ("loops", "path", "merged"):
    stats.extend(run_trials(family, [4, 8, 12], trials=2000, seed=1))
print("\n" + stats_to_csv(stats))

# Mean evaluations against n^2: on the path closure the ratio settles
# around a constant, the signature of roughly quadratic growth.
for s in stats:
    if s.family == "path":
        print(f"n={s.n:2d}: mean/n^2 = {s.mean / s.n**2:.3f}")
