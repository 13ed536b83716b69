"""The geometric route to orbits, point stabilizers and breakup candidates,
and the earlier routes to signs and chamber walls, used by the tests as
oracles for the group and chamber code.

The package takes its breakup levels straight from the chamber walls
(analysis._breakup_levels); these find them through floating-point points
of the chamber, their stabilizers and their orbits.  The package takes its
signs from a rounded determinant and its walls from an integer root-sum
test; these take them from the cycle parity and from pairwise least
squares.  They live with the tests because only they call them.
"""

import numpy as np

from fracsaddle.coxeter import _DEDUP_TOL, Chamber, CoxeterGroup, is_reflection, reflection_normal


def orbit(G: CoxeterGroup, x) -> np.ndarray:
    """Deduplicated orbit {g x : g in G} as an (n_points, k) array.

    Integer vectors are deduplicated exactly; real vectors with an
    absolute tolerance of 1e-12 (via rounding to 12 decimals).
    """
    x = np.asarray(x)
    images = G.elements @ x.astype(
        np.int64 if np.issubdtype(x.dtype, np.integer) else float
    )
    seen = {}
    for img in images:
        if np.issubdtype(images.dtype, np.integer):
            kb = tuple(int(v) for v in img)
        else:
            kb = tuple(np.round(img, 12) + 0.0)  # +0.0 normalizes -0.0
        if kb not in seen:
            seen[kb] = img
    return np.array(list(seen.values()))


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


def element_sign(m: np.ndarray) -> int:
    """Determinant of a signed-permutation matrix, computed exactly.

    Decomposes the matrix into a permutation and a sign vector; the
    determinant is the permutation parity times the product of signs.
    """
    cols = np.abs(m).argmax(axis=1)
    vals = m[np.arange(m.shape[0]), cols]
    # permutation parity via cycle decomposition
    seen = np.zeros(len(cols), dtype=bool)
    parity = 1
    for i in range(len(cols)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = cols[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return int(parity * vals.prod())


def _is_positive_combination(n, others) -> bool:
    """True iff n = a*u + b*v with a, b > 0 for some pair u, v from others."""
    nf = np.asarray(n, dtype=float)
    m = len(others)
    for i in range(m):
        for j in range(i + 1, m):
            basis = np.stack([others[i], others[j]], axis=1).astype(float)
            coef, residual, rank_, _ = np.linalg.lstsq(basis, nf, rcond=None)
            if rank_ < 2:
                continue
            if np.abs(basis @ coef - nf).max() < 1e-9 and (coef > 1e-9).all():
                return True
    return False


def lstsq_chamber_normals(G: CoxeterGroup) -> np.ndarray:
    """Chamber normals by the positive-combination test: the positive roots
    (reflection normals oriented against (k, ..., 1)) that are no strictly
    positive combination of two other positive roots, in reflection order."""
    generic = np.arange(G.rank, 0, -1, dtype=float)
    roots = []
    seen = set()
    for r in G.reflections():
        n = reflection_normal(r)
        if float(n @ generic) < 0:
            n = -n
        kb = tuple(int(v) for v in n)
        if kb not in seen:
            seen.add(kb)
            roots.append(n)
    simple = [
        n for i, n in enumerate(roots)
        if not _is_positive_combination(n, [roots[j] for j in range(len(roots)) if j != i])
    ]
    return np.array(simple, dtype=float)
