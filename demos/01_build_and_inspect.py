"""
Building cube orientations from influence graphs
================================================

An influence graph on dimensions {1..n} says which coordinate flips
propagate to which other dimensions.  Any acyclic influence graph turns
into a unique sink orientation of the n-cube, and the graph can be read
back off the orientation.
"""

from usomat import (
    InfluenceGraph,
    Orientation,
    build_matousek,
    extract_influence_graph,
    global_sink,
    is_uso,
)

# No edges at all: every dimension only influences itself, and the
# orientation is the uniform one (outmap of v is v, sink at the origin).
empty = InfluenceGraph(3, [])
uniform = build_matousek(empty)
print("empty graph  ->", uniform.outmaps)
print("same as uniform:", uniform == Orientation(3, range(8)))

# A chain 1 -> 2 -> 3 (with 1 -> 3 so the graph is transitively closed).
chain = InfluenceGraph(3, [(1, 2), (1, 3), (2, 3)])
o = build_matousek(chain)
print("\nchain closure ->", o.outmaps)
print("global sink:", global_sink(o))

# Every face of the cube has exactly one sink; that is the USO property,
# checked here by the pairwise condition: any two vertices differ in some
# coordinate where their outmaps differ too.
print("is USO:", is_uso(o))

# The construction is reversible: the influence graph comes back from
# the orientation's per-dimension flip patterns.
recovered = extract_influence_graph(o)
print("\nrecovered edges:", recovered.edges)
print("round trip exact:", recovered == chain)

# DOT output distinguishes direct edges from those implied by longer
# paths (drawn dashed), handy for a quick look with graphviz.
print("\n" + chain.to_dot())
