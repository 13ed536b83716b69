"""Finite reflection groups realized by signed permutation matrices.

Only groups generated by coordinate sign flips (x_i -> -x_i) and coordinate
swaps (x_i <-> x_j) are supported: exactly these map the sampling lattice of
the periodic box to itself, which is what makes the symmetrization operator
in the solver an exact index permutation.  General dihedral groups I2(m)
with m not in {2, 4} would require interpolation and are excluded.

A group element is a k x k integer matrix with entries in {-1, 0, +1} and a
single nonzero entry per row and column.  The sign character phi is the
determinant; it is the unique homomorphism onto {-1, +1} sending every
reflection to -1.
"""

from itertools import permutations, product

import numpy as np

_DEDUP_TOL = 1e-12


def _as_element(m) -> np.ndarray:
    """Validate and normalize a signed-permutation matrix to int64."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("group element must be a square matrix")
    ai = np.rint(a).astype(np.int64)
    if not np.array_equal(ai, a):
        raise ValueError("group element must have integer entries")
    if not np.isin(ai, (-1, 0, 1)).all():
        raise ValueError("entries must be in {-1, 0, +1}")
    if (np.abs(ai).sum(axis=0) != 1).any() or (np.abs(ai).sum(axis=1) != 1).any():
        raise ValueError("exactly one nonzero entry per row and column required")
    return ai


def _key(m: np.ndarray) -> bytes:
    return m.astype(np.int8).tobytes()


def _fingerprint(elements) -> bytes:
    return b"".join(sorted(_key(g) for g in elements))


def _embed(m: np.ndarray, n_dims: int) -> np.ndarray:
    """Extend k x k element(s) to act on the first k of n_dims axes."""
    k = m.shape[-1]
    out = np.broadcast_to(np.eye(n_dims, dtype=np.int64), m.shape[:-2] + (n_dims, n_dims)).copy()
    out[..., :k, :k] = m
    return out


def _signed_permutations(n: int) -> np.ndarray:
    """All 2^n n! signed permutation matrices of size n, identity first."""
    rows = np.eye(n, dtype=np.int64)[list(permutations(range(n)))]
    signs = np.array(list(product((1, -1), repeat=n)), dtype=np.int64)
    return (signs[None, :, :, None] * rows[:, None]).reshape(-1, n, n)


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


def is_reflection(m: np.ndarray) -> bool:
    """True iff m is a linear reflection: symmetric involution with a single -1 eigenvalue."""
    k = m.shape[0]
    if not np.array_equal(m, m.T):
        return False
    if not np.array_equal(m @ m, np.eye(k, dtype=np.int64)):
        return False
    # symmetric involution has eigenvalues +-1; trace k-2 means exactly one -1
    return int(m.trace()) == k - 2


def reflection_normal(m: np.ndarray) -> np.ndarray:
    """Primitive integer normal of the reflection's fixed hyperplane.

    For a reflection r = I - 2 n n^T / <n, n>, every nonzero column of
    (I - r) is parallel to n; the result is reduced by the gcd of its
    entries.  The sign is unoriented (callers orient it).
    """
    if not is_reflection(m):
        raise ValueError("not a reflection")
    diff = np.eye(m.shape[0], dtype=np.int64) - m
    norms = np.abs(diff).sum(axis=0)
    col = diff[:, int(norms.argmax())]
    g = int(np.gcd.reduce(np.abs(col[col != 0])))
    return col // g


class Chamber:
    """Closed fundamental cone {x : <x, n_i> >= 0 for every wall normal n_i}.

    Normals are the simple system of the group's root arrangement, so the
    number of walls equals the number of Coxeter generators and every orbit
    meets the cone, interior points exactly once.
    """

    def __init__(self, normals):
        self.normals = np.atleast_2d(np.asarray(normals, dtype=float))
        if self.normals.size == 0:
            raise ValueError("chamber needs at least one wall normal")
        self.dim = self.normals.shape[1]

    def dots(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.normals @ x

    def contains(self, x, tol: float = _DEDUP_TOL) -> bool:
        return bool((self.dots(x) >= -tol).all())

    def interior_point(self) -> np.ndarray:
        """A point with <x, n_i> = 1 for every wall (least-squares solution)."""
        rhs = np.ones(len(self.normals))
        x, *_ = np.linalg.lstsq(self.normals, rhs, rcond=None)
        d = self.dots(x)
        if (d <= _DEDUP_TOL).any():
            raise ValueError("chamber has empty interior")
        return x


class CoxeterGroup:
    """Finite signed-permutation reflection group with sign character and orbit queries.

    Attributes
    ----------
    rank : int
        Dimension k of the matrices; the group acts on the first k
        coordinates of the box.
    generators : list of (k, k) int arrays
        Reflection generators.
    elements : (order, k, k) int array
        Full element list, breadth-first order, identity first.
    signs : (order,) int array
        Sign character phi = det per element.
    """

    def __init__(self, generators, name=None, _elements=None):
        gens = [_as_element(g) for g in generators]
        for g in gens:
            if not is_reflection(g):
                raise ValueError("every generator must be a reflection")
        if _elements is None:
            if not gens:
                raise ValueError("need at least one generator (use trivial() for the trivial group)")
            self.rank = gens[0].shape[0]
            if any(g.shape[0] != self.rank for g in gens):
                raise ValueError("generators must share one dimension")
            self.elements = self._bfs_closure(gens)
        else:
            self.rank = _elements.shape[1]
            self.elements = _elements
        self.generators = gens
        self.signs = np.array([element_sign(g) for g in self.elements], dtype=np.int64)
        self.name = name
        self._index = {_key(g): i for i, g in enumerate(self.elements)}

    @staticmethod
    def _bfs_closure(gens):
        k = gens[0].shape[0]
        identity = np.eye(k, dtype=np.int64)
        found = {_key(identity): identity}
        frontier = [identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = a @ g
                    kb = _key(b)
                    if kb not in found:
                        found[kb] = b
                        nxt.append(b)
            frontier = nxt
        return np.array(list(found.values()), dtype=np.int64)

    @classmethod
    def trivial(cls, rank: int) -> "CoxeterGroup":
        """The trivial group {identity} acting on `rank` coordinates."""
        eye = np.eye(rank, dtype=np.int64)[None]
        return cls([], name="trivial", _elements=eye)

    @property
    def order(self) -> int:
        return len(self.elements)

    def is_trivial(self) -> bool:
        return self.order == 1

    def fingerprint(self, n_dims: int | None = None) -> bytes:
        """Stable byte signature of the element set (cache key material).

        With n_dims the elements are first embedded to act on the first
        `rank` of n_dims axes, so groups of different rank that act alike on
        an n_dims-dimensional grid share one signature.
        """
        return _fingerprint(self.elements if n_dims is None else _embed(self.elements, n_dims))

    def canonical_form(self, n_dims: int):
        """(fingerprint, sigma) of the least conjugate sigma G sigma^T.

        sigma runs over the signed permutations of n_dims axes, the grid's
        own symmetries, and the least conjugate is the one with the
        lexicographically smallest fingerprint(n_dims); sigma is the first
        one attaining it.  Two groups share the fingerprint exactly when
        they are conjugate by a signed permutation, G = S^T G0 S with
        S = sigma0^T sigma.
        """
        sigmas = _signed_permutations(n_dims)[:, None]
        conj = sigmas @ _embed(self.elements, n_dims)[None] @ sigmas.transpose(0, 1, 3, 2)
        forms = [_fingerprint(c) for c in conj]
        best = forms.index(min(forms))
        return forms[best], sigmas[best, 0]

    def index_of(self, g) -> int:
        kb = _key(_as_element(g))
        if kb not in self._index:
            raise ValueError("element not in group")
        return self._index[kb]

    def reflections(self):
        """All reflections contained in the group."""
        return [g for g in self.elements if is_reflection(g)]

    def orbit(self, x) -> np.ndarray:
        """Deduplicated orbit {g x : g in G} as an (n_points, k) array.

        Integer vectors are deduplicated exactly; real vectors with an
        absolute tolerance of 1e-12 (via rounding to 12 decimals).
        """
        x = np.asarray(x)
        images = self.elements @ x.astype(
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

    def stabilizer(self, x) -> "CoxeterGroup":
        """Isotropy subgroup {g : g x = x}, returned as a group of its own.

        Its generators are the reflections it contains (point stabilizers of
        reflection groups are generated by the reflections they contain), so
        the result is again a usable CoxeterGroup.
        """
        x = np.asarray(x, dtype=float)
        fixed = [g for g in self.elements if np.abs(g @ x - x).max() <= _DEDUP_TOL]
        elems = np.array(fixed, dtype=np.int64)
        gens = [g for g in fixed if is_reflection(g)]
        return CoxeterGroup(gens, name=None, _elements=elems)

    def chamber(self) -> Chamber:
        """Fundamental chamber bounded by the simple system of the group's walls.

        The positive roots are the reflection normals oriented against a
        generic vector; a root is simple when it is not a strictly positive
        combination of two other positive roots.  For the named groups this
        reproduces the standard simple-root chambers (e.g. x1 >= x2 >= 0
        for the full signed-permutation group of rank 2).
        """
        refl = self.reflections()
        if not refl:
            raise ValueError("trivial group has no chamber walls")
        generic = np.arange(self.rank, 0, -1, dtype=float)  # (k, k-1, ..., 1)
        roots = []
        seen = set()
        for r in refl:
            n = reflection_normal(r)
            d = float(n @ generic)
            if abs(d) < _DEDUP_TOL:
                raise ValueError("generic vector lies on a wall; unsupported normal type")
            if d < 0:
                n = -n
            kb = tuple(int(v) for v in n)
            if kb not in seen:
                seen.add(kb)
                roots.append(n)
        simple = []
        for i, n in enumerate(roots):
            if not _is_positive_combination(n, [roots[j] for j in range(len(roots)) if j != i]):
                simple.append(n)
        return Chamber(np.array(simple, dtype=float))


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


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _flip(k: int, i: int) -> np.ndarray:
    m = np.eye(k, dtype=np.int64)
    m[i, i] = -1
    return m


def _swap(k: int, i: int, j: int) -> np.ndarray:
    m = np.eye(k, dtype=np.int64)
    m[[i, j]] = m[[j, i]]
    return m


_NAMED = {
    "A1": lambda: [_flip(1, 0)],
    "A1xA1": lambda: [_flip(2, 0), _flip(2, 1)],
    "A2": lambda: [_swap(3, 0, 1), _swap(3, 1, 2)],
    "B2": lambda: [_flip(2, 0), _swap(2, 0, 1)],
    "B3": lambda: [_swap(3, 0, 1), _swap(3, 1, 2), _flip(3, 2)],
}


def named_group(name: str) -> CoxeterGroup:
    """Construct one of the named groups: A1, A1xA1, A2 (swaps on 3 coordinates), B2, B3."""
    if name == "trivial":
        return CoxeterGroup.trivial(1)
    if name not in _NAMED:
        raise ValueError(f"unknown group name {name!r}; known: trivial, {', '.join(sorted(_NAMED))}")
    return CoxeterGroup(_NAMED[name](), name=name)


def generate_group(generators, name=None) -> CoxeterGroup:
    """Breadth-first closure of reflection generators into a CoxeterGroup."""
    return CoxeterGroup(generators, name=name)

