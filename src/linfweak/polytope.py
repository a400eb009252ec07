"""Exact vertex enumeration for bounded H-polytopes over the rationals.

Incremental halfspace insertion (the vertex side of the double-description
method): start from the box [-BOX, BOX]^d, whose vertices are known, then
cut with one halfspace at a time.  Every vertex carries its exact tight set,
the constraints it satisfies with equality, as a bitmask over constraint
indices (box facets first, then the halfspaces in the order given).  The
sets are updated locally at each cut k, never rebuilt:

- a vertex that survives keeps its set, and gains k if its slack is 0;
- a new vertex on the edge (i, j) gets tight(i) & tight(j) | {k}.  This is
  exact: a constraint that holds at both ends of a segment and is tight at
  an interior point is affine and nonnegative along the segment with an
  interior zero, so it vanishes on the whole segment.

Vertices i and j span an edge iff no third vertex's tight set contains
their common set: the vertices of the smallest face containing both are
exactly those whose tight sets contain it, and that face is an edge iff it
has no other vertex.  The test is combinatorial, so it holds on degenerate
polytopes too (Fukuda & Prodon, Double Description Method Revisited, 1996).
A cut point lies inside an edge of the old polytope, so it is never a
vertex already seen, and distinct edges give distinct points.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vector = tuple[Fraction, ...]

# Half-width of the starting box; it must strictly contain the polytope, so
# that no box facet is tight at a true vertex.
BOX = 2


def _integral(a: Sequence, b) -> tuple[tuple[int, ...], int]:
    """The halfspace a.x <= b scaled by a positive integer to integer data."""
    a = [Fraction(x) for x in a]
    b = Fraction(b)
    scale = lcm(b.denominator, *(x.denominator for x in a))
    return tuple(int(x * scale) for x in a), int(b * scale)


def _bits(mask: int):
    """The indices of the set bits of a nonnegative mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vertex_enumeration(constraints: Sequence[tuple[Sequence, Fraction]]) -> list[Vector]:
    """Vertices of { x : a.x <= b for all (a,b) } intersected with
    [-BOX, BOX]^d, sorted.

    A vertex is held as integers (x, q) standing for x / q with q > 0, so
    each slack is an integer dot product with the sign of the true slack."""
    if not constraints:
        raise ValueError("need at least one constraint")
    d = len(constraints[0][0])
    # box facet 2i is x_i <= BOX, facet 2i + 1 is -x_i <= BOX
    vertices: list[tuple[tuple[int, ...], int]] = []
    tight: list[int] = []
    for mask in range(2 ** d):
        upper = [(mask >> i) & 1 for i in range(d)]
        vertices.append((tuple(BOX if u else -BOX for u in upper), 1))
        tight.append(sum(1 << (2 * i + 1 - u) for i, u in enumerate(upper)))

    for k, (a, b) in enumerate(constraints, start=2 * d):
        a, b = _integral(a, b)
        slack = [b * q - sum(ai * xi for ai, xi in zip(a, x)) for x, q in vertices]
        # on[c]: the vertices tight at constraint c, as a bitmask
        on = [0] * k
        for m, t in enumerate(tight):
            for c in _bits(t):
                on[c] |= 1 << m
        new_vertices = [v for v, s in zip(vertices, slack) if s >= 0]
        new_tight = [t | (1 << k) if s == 0 else t
                     for t, s in zip(tight, slack) if s >= 0]
        cut = [j for j, s in enumerate(slack) if s < 0]
        for i in (i for i, s in enumerate(slack) if s > 0):
            for j in cut:
                common = tight[i] & tight[j]
                if common.bit_count() < d - 1:
                    continue
                # the vertices whose tight sets contain common: an edge iff
                # there is no third one
                face = (1 << len(vertices)) - 1
                for c in _bits(common):
                    face &= on[c]
                if face != (1 << i) | (1 << j):
                    continue
                # the point of zero slack: (s_i v_j - s_j v_i) / (s_i - s_j)
                (xi, qi), (xj, qj) = vertices[i], vertices[j]
                si, sj = slack[i], slack[j]
                x = [si * cj - sj * ci for ci, cj in zip(xi, xj)]
                q = si * qj - sj * qi
                g = gcd(q, *x)
                new_vertices.append((tuple(c // g for c in x), q // g))
                new_tight.append(common | (1 << k))
        vertices, tight = new_vertices, new_tight

    return sorted(tuple(Fraction(c, q) for c in x) for x, q in vertices)
