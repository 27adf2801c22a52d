"""
From a branching to an exact linear complementarity instance
============================================================

Three roads lead to the same orientation: build it from the influence
graph, read it off a cyclic sign extension, or solve an exact-rational
LCP built from moment-curve vectors.  This walks one branching through
all three.
"""

from usomat import (
    Branching,
    build_matousek,
    extension_to_uso,
    extract_influence_graph,
    synthesize_extension,
)
from usomat.matroid import containment_graph
from usomat.plcp import (
    is_p_matrix,
    plcp_to_uso,
    solve_candidate,
    translate_to_plcp,
)

# A branching on three dimensions: 1 is the root, children 2 and 3.
b = Branching(3, {2: 1, 3: 1})
g = b.transitive_closure()
print("closure edges:", g.edges)
target = build_matousek(g)
print("orientation:", target.outmaps)

# Road two: a cyclic extension (an ordering of paired sign elements plus
# a marker q, with a flip set) realizing the same nesting structure.
ext = synthesize_extension(b)
print("\nextension order:", ext.order)
print("flip set:", sorted(ext.flipped))
print("nesting graph matches:", containment_graph(ext) == g)
# Each road puts the sink where its own construction does; two roads agree
# up to a mirror along the sink exactly when they read off the same graph.
print("extension orientation matches:", extract_influence_graph(extension_to_uso(ext)) == g)

# Road three: place the elements on the moment curve.  Element e at
# position x_e contributes s_e * (1, x_e, x_e^2), with s_e = -1 on the
# flip set.  In the basis of elements 1..3, a Vandermonde matrix with
# signed columns, the other vectors give M and q in closed form.
print("\npositions x_e:", ext.position)
print("M[j][t] = -s_j s_t L_j(x_t), q_j = -s_j s_q L_j(x_q), L_j the Lagrange basis on x_1, x_2, x_3")
inst = translate_to_plcp(ext)
print("\nM =")
print(inst.M.to_text())
print("q =", " ".join(str(x) for x in inst.q))
print("P-matrix (all principal minors positive):", is_p_matrix(inst.M))

# Each cube vertex corresponds to a complementary candidate basis; the
# unique fully feasible one is the global sink, and the signs of the
# others reproduce the orientation.
for vertex in range(8):
    cand = solve_candidate(inst, vertex)
    w = " ".join(str(x) for x in cand.w)
    z = " ".join(str(x) for x in cand.z)
    print(f"vertex {vertex:03b}: w = ({w})  z = ({z})  feasible = {cand.feasible}")
print("\nLCP orientation matches:", extract_influence_graph(plcp_to_uso(inst)) == g)
