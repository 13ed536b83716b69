import numpy as np
import pytest

from fracsaddle.coxeter import (
    _DEDUP_TOL,
    Chamber,
    CoxeterGroup,
    element_sign,
    is_reflection,
    named_group,
    reflection_normal,
)

from coxeter_reference import contains, stabilizer

NAMES = ["A1", "A1xA1", "A2", "B2", "B3"]
KNOWN_ORDERS = {"trivial": 1, "A1": 2, "A1xA1": 4, "A2": 6, "B2": 8, "B3": 48}


def active_walls(chamber: Chamber, x, tol: float = _DEDUP_TOL) -> np.ndarray:
    """Indices of walls with <x, n_i> = 0 within tolerance."""
    return np.flatnonzero(np.abs(chamber.dots(x)) <= tol)


@pytest.mark.parametrize("name", list(KNOWN_ORDERS))
def test_known_orders(name):
    assert named_group(name).order == KNOWN_ORDERS[name]


def test_unknown_name_rejected():
    with pytest.raises(ValueError):
        named_group("E8")


@pytest.mark.parametrize("name", NAMES)
def test_group_axioms(name):
    G = named_group(name)
    keys = {m.tobytes() for m in G.elements}
    assert len(keys) == G.order
    k = G.rank
    assert any(np.array_equal(m, np.eye(k, dtype=np.int64)) for m in G.elements)
    for a in G.elements:
        # inverse of an orthogonal integer matrix is its transpose
        assert a.T.tobytes() in keys
        for b in G.elements:
            assert (a @ b).tobytes() in keys


@pytest.mark.parametrize("name", NAMES)
def test_sign_character_homomorphism(name):
    G = named_group(name)
    phi = {m.tobytes(): s for m, s in zip(G.elements, G.signs)}
    for g in G.generators:
        assert phi[g.tobytes()] == -1
    for a in G.elements:
        for b in G.elements:
            assert phi[(a @ b).tobytes()] == phi[a.tobytes()] * phi[b.tobytes()]
    assert set(G.signs) <= {-1, 1}


@pytest.mark.parametrize("name", NAMES)
def test_sign_is_determinant(name):
    G = named_group(name)
    for m, s in zip(G.elements, G.signs):
        assert round(np.linalg.det(m)) == s


@pytest.mark.parametrize("name", NAMES)
def test_lagrange_identity_random_points(name):
    G = named_group(name)
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(G.rank)
        orb = G.orbit(x)
        S = stabilizer(G, x)
        assert len(orb) * S.order == G.order
    # a point with distinct positive coordinates has trivial stabilizer
    x = np.linspace(1.0, 2.0, G.rank)
    assert len(G.orbit(x)) == G.order


@pytest.mark.parametrize("name", NAMES)
def test_lagrange_identity_lattice_points(name):
    # every node of an 8^3 box, truncated to the acting coordinates
    G = named_group(name)
    M, L = 8, 4.0
    nodes = -L / 2.0 + (L / M) * np.arange(M)
    pts = np.stack(np.meshgrid(*([nodes] * 3), indexing="ij"), axis=-1).reshape(-1, 3)
    for x in pts:
        orb = G.orbit(x[: G.rank])
        S = stabilizer(G, x[: G.rank])
        assert len(orb) * S.order == G.order


@pytest.mark.parametrize("name", NAMES)
def test_stabilizer_is_subgroup(name):
    G = named_group(name)
    x = np.zeros(G.rank)  # the origin is fixed by everything
    S = stabilizer(G, x)
    assert S.order == G.order
    keys = {m.tobytes() for m in S.elements}
    for a in S.elements:
        for b in S.elements:
            assert (a @ b).tobytes() in keys


@pytest.mark.parametrize("name", NAMES)
def test_chamber_interior_point(name):
    G = named_group(name)
    C = G.chamber()
    q = C.interior_point()
    assert (C.dots(q) > 0.0).all()
    assert len(active_walls(C, q)) == 0
    # trivial stabilizer inside the chamber, so the orbit is the whole group
    assert len(G.orbit(q)) == G.order
    assert stabilizer(G, q).order == 1


@pytest.mark.parametrize("name", NAMES)
def test_every_orbit_meets_chamber(name):
    G = named_group(name)
    C = G.chamber()
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.standard_normal(G.rank)
        orb = G.orbit(x)
        hits = [p for p in orb if contains(C, p)]
        assert len(hits) >= 1


def test_wall_count_matches_rank():
    for name, rank in [("A1", 1), ("A1xA1", 2), ("B2", 2), ("B3", 3)]:
        G = named_group(name)
        assert G.chamber().normals.shape[0] == len(G.generators)
        assert G.rank == rank
    assert named_group("A2").rank == 3  # permutation action on 3 coordinates


def test_reflection_predicates():
    flip = np.diag([-1, 1]).astype(np.int64)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    rot = np.array([[0, -1], [1, 0]], dtype=np.int64)
    assert is_reflection(flip)
    assert is_reflection(swap)
    assert not is_reflection(np.eye(2, dtype=np.int64))
    assert not is_reflection(rot)
    n = reflection_normal(flip)
    assert abs(abs(n[0]) - 1.0) < 1e-12 and abs(n[1]) < 1e-12
    assert element_sign(flip) == -1
    assert element_sign(rot) == 1


def test_generate_group_from_custom_generators():
    G = CoxeterGroup([np.array([[-1]])])
    assert G.order == 2
    swap01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=np.int64)
    swap12 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=np.int64)
    assert CoxeterGroup([swap01, swap12]).order == 6
    with pytest.raises(ValueError):
        CoxeterGroup([np.array([[0, -1], [1, 0]])])  # rotation, not a reflection
    with pytest.raises(ValueError):
        CoxeterGroup([])


def test_fingerprint_identifies_group_not_object():
    a, b = named_group("B2"), named_group("B2")
    assert a is not b
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != named_group("A1xA1").fingerprint()


def test_fingerprint_embeds_into_grid_axes():
    a1, x1 = named_group("A1"), CoxeterGroup([np.diag([-1, 1, 1])])
    assert a1.fingerprint() != x1.fingerprint()
    assert a1.fingerprint(3) == x1.fingerprint(3)
    assert CoxeterGroup.trivial(1).fingerprint(3) == CoxeterGroup.trivial(3).fingerprint()


def test_canonical_form_identifies_conjugacy_class():
    a1 = named_group("A1")
    x3 = CoxeterGroup([np.diag([1, 1, -1])])
    diag = CoxeterGroup([np.array([[0, 1], [1, 0]])])
    anti = CoxeterGroup([np.array([[0, -1], [-1, 0]])])
    (fa, sa), (fx, sx) = a1.canonical_form(3), x3.canonical_form(3)
    assert fa == fx
    S = sa.T @ sx  # x3 = S^T A1 S
    assert np.array_equal(S.T @ np.diag([-1, 1, 1]) @ S, np.diag([1, 1, -1]))
    assert diag.canonical_form(3)[0] == anti.canonical_form(3)[0] != fa
    assert named_group("A1xA1").canonical_form(3)[0] != named_group("B2").canonical_form(3)[0]


def test_trivial_group():
    T = CoxeterGroup.trivial(1)
    assert T.is_trivial() and T.order == 1
    assert not named_group("A1").is_trivial()
