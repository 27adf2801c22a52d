"""
Which influence graphs give geometrically realizable orientations
=================================================================

Exactly the transitive closures of branchings (forests of arborescences)
do.  Everything else contains one of two small witness patterns, and the
resulting orientation flunks the Holt-Klee path test on some 3-face.
"""

from usomat import (
    Face,
    InfluenceGraph,
    build_matousek,
    find_forbidden,
    holt_klee_3face,
    is_branching_closure,
)
from usomat.enumeration import dag_blocks

# Pattern one: a path 1 -> 2 -> 3 whose shortcut edge 1 -> 3 is missing,
# i.e. a transitivity violation.
g1 = InfluenceGraph(3, [(1, 2), (2, 3)])
print("path without shortcut:", find_forbidden(g1))

# Pattern two: dimensions 1 and 2 both influence 3 but neither
# influences the other.
g2 = InfluenceGraph(3, [(1, 3), (2, 3)])
print("incomparable parents:", find_forbidden(g2))

# Witness-free graphs decompose: every vertex has at most one deepest
# in-neighbour, giving a branching whose closure is the graph.
chain = InfluenceGraph(3, [(1, 2), (1, 3), (2, 3)])
print("\nchain closure witness:", find_forbidden(chain))
print("underlying branching:", is_branching_closure(chain))

# The geometric screen agrees: both witness USOs fail Holt-Klee on the
# full 3-cube (fewer than 3 disjoint source-to-sink paths), while every
# witness-free graph at n=3 passes.
cube = Face(0, 0b111)
print("\nHolt-Klee on witness USOs:",
      holt_klee_3face(build_matousek(g1), cube),
      holt_klee_3face(build_matousek(g2), cube))

# dag_blocks writes every labeled DAG once, one line of out-neighbour
# masks per graph, in numpy blocks.
dags3 = [InfluenceGraph.from_rows(3, line) for block in dag_blocks(3) for line in block.tolist()]
passing = sum(
    holt_klee_3face(build_matousek(g), cube)
    for g in dags3
    if find_forbidden(g) is None
)
print("witness-free n=3 graphs passing Holt-Klee:", passing, "of 16")

# Census over all labeled DAGs per dimension: realizable counts follow
# the rooted-forest numbers 1, 3, 16, 125.
for n in range(1, 5):
    total = realizable = 0
    for block in dag_blocks(n):
        for line in block.tolist():
            total += 1
            realizable += find_forbidden(InfluenceGraph.from_rows(n, line)) is None
    print(f"n={n}: {realizable} of {total} influence DAGs realizable")
