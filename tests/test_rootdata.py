import itertools
import random

import pytest

from heckecell.rootdata import WeightSystem
from heckecell.weyl import Weyl


A2 = WeightSystem("A", 2, (1, 1, 1))
C2A = WeightSystem("C", 2, (2, 1, 1))
C2E = WeightSystem("C", 2, (1, 1, 1))


def point_weight(ws, lam) -> int:
    """L_lam: total weight of all hyperplanes through the point lam."""
    return sum(r.level_weight(ws.pairing(lam, r)) for r in ws.positive_roots)


def nu_l(ws) -> int:
    """The largest L_lam, reached exactly at the special points."""
    return sum(r.even_weight for r in ws.positive_roots)


def special_points(ws, bound: int) -> set:
    """All special L-weights lam with |<lam, alpha_i^v>| <= bound."""
    box = itertools.product(range(-bound, bound + 1), repeat=ws.rank)
    return {lam for lam in box if point_weight(ws, lam) == nu_l(ws)}


def test_construction_validation():
    with pytest.raises(ValueError):
        WeightSystem("A", 2, (2, 1, 1))  # conjugate generators, unequal weights
    with pytest.raises(ValueError):
        WeightSystem("A", 3, (1, 1, 2, 1))
    with pytest.raises(ValueError):
        WeightSystem("C", 2, (1, 1, 2))  # violates L(s_0) >= L(s_n)
    with pytest.raises(ValueError):
        WeightSystem("A", 1, (1, 2))
    with pytest.raises(ValueError):
        WeightSystem("B", 2, (1, 1, 1))
    with pytest.raises(ValueError):
        WeightSystem("A", 2, (1, 1))  # wrong arity
    with pytest.raises(ValueError):
        WeightSystem("A", 2, (0, 0, 0))


@pytest.mark.parametrize("params", [(1.5, 1, 1), (1.0, 1, 1), ("2", "2", "2"), (True, True, True)],
                         ids=["fraction", "float", "string", "bool"])
def test_non_integer_weights_rejected(params):
    # a weight is an int: never truncated, parsed or read off a bool
    with pytest.raises(ValueError, match="positive integers"):
        WeightSystem("A", 2, params)


# Hand-written root data per type, kept here as an oracle for the data that
# WeightSystem derives from the Cartan matrix: coroots in the simple coroot
# basis, roots in the simple root basis, the index of the root whose coroot
# is the highest coroot, and the roots whose hyperplane weights alternate
# with the parity of the level (C-family short roots).
POSROOT_COVECTORS = {
    "A1": [(1,)],
    "A2": [(1, 0), (0, 1), (1, 1)],
    "A3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)],
    # C2 (Bourbaki): alpha_1 = e1-e2 short, alpha_2 = 2e2 long;
    # (e1+e2)^v = a1^v + 2 a2^v, (2e1)^v = a1^v + a2^v.
    "C2": [(1, 0), (0, 1), (1, 2), (1, 1)],
}
POSROOT_ROOTCOEFFS = {
    "A1": [(1,)],
    "A2": [(1, 0), (0, 1), (1, 1)],
    "A3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)],
    # e1+e2 = a1 + a2, 2e1 = 2 a1 + a2.
    "C2": [(1, 0), (0, 1), (1, 1), (2, 1)],
}
HIGHEST_COROOT_ROOT = {"A1": 0, "A2": 2, "A3": 5, "C2": 2}
PARITY_SPLIT_ROOTS = {"A1": {0}, "C2": {0, 2}}

SHIPPED_CONFIGS = [
    ("A", 1, (1, 1)),
    ("A", 1, (2, 1)),
    ("A", 2, (1, 1, 1)),
    ("A", 3, (1, 1, 1, 1)),
    ("C", 2, (1, 1, 1)),
    ("C", 2, (2, 1, 1)),
    ("C", 2, (3, 2, 1)),
]
# The shipped configurations, extreme parameters of the C-family, and A2 at
# a non-unit equal weight.
DERIVATION_CONFIGS = SHIPPED_CONFIGS + [
    ("C", 2, (1, 5, 1)),
    ("C", 2, (4, 1, 3)),
    ("A", 1, (5, 2)),
    ("A", 2, (3, 3, 3)),
]


def expected_roots(ws):
    """(vector, covector, even_weight, odd_weight) per root from the hand
    tables: C-family split roots carry L(s_0) on even and L(s_n) on odd
    levels, its other roots L(s_1); in type A_n every root carries L(s_0)."""
    n, params, key = ws.rank, ws.params, f"{ws.cartan_type}{ws.rank}"
    c_family = key in PARITY_SPLIT_ROOTS
    out = []
    for idx, (cov, rc) in enumerate(zip(POSROOT_COVECTORS[key], POSROOT_ROOTCOEFFS[key])):
        vec = tuple(sum(rc[j] * ws.cartan[i][j] for j in range(n)) for i in range(n))
        if not c_family:
            weights = (params[0], params[0])
        elif idx in PARITY_SPLIT_ROOTS[key]:
            weights = (params[0], params[n])
        else:
            weights = (params[1], params[1])
        out.append((vec, cov) + weights)
    return out


@pytest.mark.parametrize("cfg", DERIVATION_CONFIGS, ids=str)
def test_derived_root_data_matches_hand_tables(cfg):
    ws = WeightSystem(*cfg)
    derived = [(r.vector, r.covector, r.even_weight, r.odd_weight) for r in ws.positive_roots]
    assert derived == expected_roots(ws)
    assert [r.index for r in ws.positive_roots] == list(range(len(derived)))
    key = f"{ws.cartan_type}{ws.rank}"
    assert ws.highest_coroot_root.index == HIGHEST_COROOT_ROOT[key]
    c_family = key in PARITY_SPLIT_ROOTS
    assert ws.affine_gen == (ws.rank if c_family else 0)
    assert ws.simple_to_gen == (tuple(range(ws.rank)) if c_family else tuple(range(1, ws.rank + 1)))


def test_coset_key_is_the_class_modulo_q():
    for cfg in SHIPPED_CONFIGS:
        ws = WeightSystem(*cfg)
        box = itertools.product(range(-3, 4), repeat=ws.rank)
        for lam in box:
            for alpha in ws.simple_roots:
                shifted = tuple(a + b for a, b in zip(lam, alpha.vector))
                assert ws.coset_key(shifted) == ws.coset_key(lam), (cfg, lam)
        weyl = Weyl(ws)
        keys = {ws.coset_key(g.translation) for g in weyl.pi_elements}
        assert len(keys) == len(weyl.pi_elements) == ws.pi_order, cfg


def test_pairing_dual_basis():
    # <omega_1, alpha_1^v> = 1 in A2 with L = l
    assert A2.pairing((1, 0), A2.positive_roots[0]) == 1
    assert A2.pairing((0, 0), A2.positive_roots[2]) == 0


def test_pairing_highest_root_derived():
    # e1 - e3 = alpha_1 + alpha_2; its coroot pairs with omega_1 as the sum
    # of the simple pairings 1 + 0
    theta = A2.positive_roots[2]
    assert theta.covector == (1, 1)
    by_sum = sum(A2.pairing((1, 0), A2.positive_roots[i]) for i in (0, 1))
    assert A2.pairing((1, 0), theta) == by_sum == 1


def test_b_and_fundamental_weights():
    assert A2.b == (1, 1)
    assert C2A.b == (2, 1)
    assert C2E.b == (1, 1)
    # <omega_i, alpha_j^v> = b_j delta_ij
    for ws in (A2, C2A, C2E):
        for i, fw in enumerate(ws.fundamental_weights):
            for j in range(ws.rank):
                expected = ws.b[j] if i == j else 0
                assert ws.pairing(fw, ws.simple_roots[j]) == expected


def test_special_points_equal_parameters():
    # every weight-lattice point in the box is special when L = l
    pts = special_points(A2, 1)
    assert pts == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}


def test_special_points_c2():
    # a > c: only the index-2 sublattice; a = c: all points
    pts = special_points(C2A, 2)
    assert pts == {(a, b) for a in (-2, 0, 2) for b in (-2, -1, 0, 1, 2)}
    pts_eq = special_points(C2E, 1)
    assert pts_eq == {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    assert all(C2A.in_lattice(p) for p in pts)


def test_sublattice_index_two():
    # P(a>c) is a proper sublattice of the a = c lattice, of index 2
    big = special_points(C2E, 2)
    small = special_points(C2A, 2)
    assert small < big
    assert len(big) == 25 and len(small) == 15
    # lattice index from the fundamental-weight bases
    index = 1
    for b_small, b_big in zip(C2A.b, C2E.b):
        index *= b_small // b_big
    assert index == 2


def test_orbits():
    # the closure of a weight under the simple reflections
    # lam -> lam - <lam, alpha_i^v> alpha_i, against the tabulated W_0 action
    def reflection_closure(ws, lam):
        seen, frontier = {lam}, [lam]
        while frontier:
            mu = frontier.pop()
            for r in ws.simple_roots:
                c = ws.pairing(mu, r)
                img = tuple(x - c * v for x, v in zip(mu, r.vector))
                if img not in seen:
                    seen.add(img)
                    frontier.append(img)
        return seen

    for cfg in [("A", 1, (1, 1)), ("A", 2, (1, 1, 1)), ("A", 3, (1, 1, 1, 1)),
                ("C", 2, (2, 1, 1)), ("C", 2, (3, 2, 1))]:
        ws = WeightSystem(*cfg)
        for fw in ws.fundamental_weights:
            assert ws.orbit(fw) == reflection_closure(ws, fw), (cfg, fw)
    assert len(A2.orbit((1, 0))) == 3
    assert len(A2.orbit((0, 1))) == 3
    assert A2.orbit((0, 1)) == {tuple(-x for x in v) for v in A2.orbit((1, 0))}
    a1 = WeightSystem("A", 1, (1, 1))
    assert a1.orbit((1,)) == {(1,), (-1,)}


def test_nu():
    assert A2.nu((1, 0)) == (0, 1)
    assert A2.nu((0, 1)) == (1, 0)
    for lam in [(2, 0), (0, 1), (4, 3), (-2, 5)]:
        assert C2A.nu(lam) == lam
    rng = random.Random(5)
    for _ in range(50):
        lam = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert A2.nu(A2.nu(lam)) == lam


def test_dominance():
    assert A2.is_antidominant((0, 0)) and A2.is_dominant((0, 0))
    assert A2.is_antidominant((-1, -1)) and not A2.is_dominant((-1, -1))
    assert not A2.is_antidominant((1, -2)) and not A2.is_dominant((1, -2))


def test_reflections_are_involutions():
    rng = random.Random(6)
    for ws in (A2, C2A):
        for _ in range(100):
            lam = tuple(rng.randint(-9, 9) for _ in range(ws.rank))
            for i in range(ws.rank):
                s = ws.w0_simple_index[i]
                assert ws.act(ws.act(lam, s), s) == lam


def test_longest_element_negates_positive_roots():
    for ws in (A2, C2A, WeightSystem("A", 3, (1, 1, 1, 1))):
        w0 = ws.longest_index
        assert sum(sign < 0 for _, sign in ws.w0_root_action[w0]) == len(ws.positive_roots)
        for r in ws.positive_roots:
            _, sign = ws.w0_root_action[w0][r.index]
            assert sign < 0


def test_pi_orders():
    assert A2.pi_order == 3
    assert WeightSystem("A", 1, (1, 1)).pi_order == 2
    assert WeightSystem("A", 1, (2, 1)).pi_order == 1
    assert WeightSystem("A", 3, (1, 1, 1, 1)).pi_order == 4
    assert C2E.pi_order == 2
    assert C2A.pi_order == 1


def test_point_weight_translation_invariance():
    # L_H is constant along hyperplane families; L_lam is periodic under P
    rng = random.Random(7)
    for ws in (C2A, C2E):
        gens = ws.fundamental_weights
        for _ in range(20):
            lam = tuple(rng.randint(-3, 3) * ws.b[i] for i in range(ws.rank))
            shift = gens[rng.randrange(ws.rank)]
            mu = tuple(a + b for a, b in zip(lam, shift))
            assert point_weight(ws, lam) == point_weight(ws, mu) == nu_l(ws)
