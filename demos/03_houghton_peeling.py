"""Rays over two branches of naturals: peeling points, unique parents.

The space is two copies of {1, 2, 3, ...}.  Ray classes expand by
peeling their first point off; a (point, ray) pair has at most one
parent, so down-moves are scarcer than in the Cantor-set system.
"""

from cubex import (
    CubeComplex,
    HGroupElement,
    HoughtonSystem,
    HPointClass,
    HRayClass,
)

hs = HoughtonSystem(2)
cx = CubeComplex(hs)

base = hs.base_vertex()
print("base vertex (one full ray per branch):", [str(b) for b in base])

ray = base.elements[0]
point, rest = ray.children()
print("peeling", ray, "->", point, "and", rest)
print("unique parent of the pair:", [str(b) for b in hs.coexpansions(frozenset((point, rest)))])

# a ray may send points anywhere before settling into its translation
fancy = HRayClass.make(1, [(2, 4)], 1)
print("\nray with a cross-branch image:", fancy)
p, r = fancy.children()
print("peeled:", p, "and", r)

# two point classes never form a basin
print("two points ->", hs.coexpansions(frozenset((HPointClass((1, 1)), HPointClass((2, 1))))))

# group elements shift the branches while staying bijective overall
g = HGroupElement.make(2, (1, -1), {(2, 1): (1, 1)})
print("\nshift element:", g)
print("acts on", ray, "->", hs.act(g, ray))
print("inverse:", g.inverse())

# joins take the later tail per branch and fill the gap with points
v1 = cx.join(base, hs.act_vertex(g, base))
print("\njoin of base with its shift:", [str(b) for b in v1[0]])
print("ascending path lengths:", len(v1[1]), "and", len(v1[2]))
