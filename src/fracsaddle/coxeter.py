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

    def dots(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.normals @ x

    def interior_point(self) -> np.ndarray:
        """A point with <x, n_i> = 1 for every wall (least-squares solution)."""
        rhs = np.ones(len(self.normals))
        x, *_ = np.linalg.lstsq(self.normals, rhs, rcond=None)
        d = self.dots(x)
        if (d <= _DEDUP_TOL).any():
            raise ValueError("chamber has empty interior")
        return x


class CoxeterGroup:
    """Finite signed-permutation reflection group with its sign character.

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
        # LU pivots on the +-1 entries, so the determinant comes out exact
        self.signs = np.rint(np.linalg.det(self.elements)).astype(np.int64)
        self.name = name

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

    def canonical_form(self, n_dims: int):
        """(fingerprint, sigma) of the least conjugate sigma G sigma^T.

        A fingerprint is the sorted bytes of an element set embedded in
        n_dims axes (_fingerprint).  sigma runs over the signed permutations
        of n_dims axes, the grid's own symmetries, and the least conjugate
        is the one with the lexicographically smallest fingerprint; sigma is
        the first one attaining it.  Two groups share the fingerprint
        exactly when they are conjugate by a signed permutation,
        G = S^T G0 S with S = sigma0^T sigma.
        """
        sigmas = _signed_permutations(n_dims)[:, None]
        conj = sigmas @ _embed(self.elements, n_dims)[None] @ sigmas.transpose(0, 1, 3, 2)
        forms = [_fingerprint(c) for c in conj]
        best = forms.index(min(forms))
        return forms[best], sigmas[best, 0]

    def reflections(self):
        """All reflections contained in the group."""
        return [g for g in self.elements if is_reflection(g)]

    def chamber(self) -> Chamber:
        """Fundamental chamber bounded by the simple system of the group's walls.

        The positive roots are the primitive reflection normals (e_i or
        e_i +- e_j) oriented to have a positive dot with (k, k-1, ..., 1),
        whose distinct positive entries keep it off every wall.  These roots
        form a crystallographic root system, a subsystem of B_k, so a
        positive root is simple exactly when it is not the sum of two
        positive roots: an integer test, with no tolerance.  For the named
        groups this gives the standard simple-root chambers (e.g.
        x1 >= x2 >= 0 for the full signed-permutation group of rank 2).
        """
        refl = self.reflections()
        if not refl:
            raise ValueError("trivial group has no chamber walls")
        generic = np.arange(self.rank, 0, -1)
        roots = [n if n @ generic > 0 else -n for n in map(reflection_normal, refl)]
        positive = {tuple(n) for n in roots}
        simple = [n for n in roots if not any(tuple(n - m) in positive for m in roots)]
        return Chamber(np.array(simple, dtype=float))


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
