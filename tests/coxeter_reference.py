"""The geometric route to point stabilizers and breakup candidates, used by
the tests as an oracle for the group and chamber code.

The package takes its breakup levels straight from the chamber walls
(analysis._breakup_levels); these find them through floating-point points
of the chamber, their stabilizers and their orbits.  They live with the
tests because only they call them.
"""

import numpy as np

from fracsaddle.coxeter import _DEDUP_TOL, Chamber, CoxeterGroup, is_reflection


def stabilizer(G: CoxeterGroup, x) -> CoxeterGroup:
    """Isotropy subgroup {g : g x = x}, returned as a group of its own.

    Its generators are the reflections it contains (point stabilizers of
    reflection groups are generated by the reflections they contain), so
    the result is again a usable CoxeterGroup.
    """
    x = np.asarray(x, dtype=float)
    fixed = [g for g in G.elements if np.abs(g @ x - x).max() <= _DEDUP_TOL]
    elems = np.array(fixed, dtype=np.int64)
    gens = [g for g in fixed if is_reflection(g)]
    return CoxeterGroup(gens, name=None, _elements=elems)


def contains(C: Chamber, x, tol: float = _DEDUP_TOL) -> bool:
    return bool((C.dots(x) >= -tol).all())


def facet_candidates(G: CoxeterGroup):
    """Representative points whose orbits bound the saddle level from above.

    Unit points, one through the chamber interior (the two-bump route for
    rank one, stabilizer trivial) and one in the relative interior of each
    wall (the dominant route for rank two and up, stabilizer that wall's
    reflection).  They are continuous points, not grid nodes: rounding one
    to the grid can move it onto a smaller face and enlarge its stabilizer.
    The trivial group has no chamber and no candidate.
    """
    if G.is_trivial():
        return []
    C = G.chamber()
    q = C.interior_point()
    cands = [q / np.linalg.norm(q)]
    for i, n in enumerate(C.normals):
        x = q - (np.dot(q, n) / np.dot(n, n)) * n
        nx = np.linalg.norm(x)
        if nx < 1e-9:
            continue
        x = x / nx
        ok = all(
            np.dot(C.normals[j], x) > 1e-9 for j in range(len(C.normals)) if j != i
        ) and abs(np.dot(n, x)) < 1e-9
        if ok:
            cands.append(x)
    return cands
