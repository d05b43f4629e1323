import json
import random
import sys
import threading
from itertools import product

import pytest

import oracles
from heckecell import serialize
from heckecell.hecke import Hecke
from heckecell.lowestcell import LowestCell
from heckecell.rootdata import WeightSystem
from heckecell.serialize import element_text
from heckecell.weyl import GroupElement, Weyl


def make(cfg):
    return Weyl(WeightSystem(*cfg))


WA2 = make(("A", 2, (1, 1, 1)))
WC2 = make(("C", 2, (2, 1, 1)))
WA1 = make(("A", 1, (1, 1)))


def bfs_length_oracle(weyl, target, cap=12):
    """Word length of the W_a part by breadth-first search over generator
    words, started from the Pi-part of the target."""
    start = weyl.pi_elements[weyl.pi_index(target)]
    frontier = {start}
    seen = {start}
    for depth in range(cap + 1):
        if target in frontier:
            return depth
        nxt = set()
        for w in frontier:
            for s in weyl.gens:
                g = w * s
                if g not in seen:
                    seen.add(g)
                    nxt.add(g)
        frontier = nxt
    raise AssertionError("cap exceeded")


def test_translations_commute():
    t1 = WA2.translation((1, 0))
    t2 = WA2.translation((0, 1))
    assert t1 * t2 == t2 * t1 == WA2.translation((1, 1))


def test_inverse():
    rng = random.Random(0)
    els = list(WA2.enumerate_elements(5))
    for w in rng.sample(els, 100):
        assert w * w.inverse() == WA2.identity
        assert w.inverse() * w == WA2.identity


def test_braid_relation():
    s1, s2 = WA2.gens[1], WA2.gens[2]
    assert s1 * s2 * s1 == s2 * s1 * s2


def test_mismatched_weight_systems_rejected():
    other = make(("A", 2, (1, 1, 1)))
    for call in (WA2.multiply, WA2.bruhat_leq):
        with pytest.raises(ValueError, match="different weight systems"):
            call(WA2.identity, other.identity)


def test_lengths():
    assert WA2.longest_finite.length() == 3
    assert WA2.translation((1, 0)).length() == 2
    assert bfs_length_oracle(WA2, WA2.translation((1, 0))) == 2
    for pi in WA2.pi_elements:
        assert pi.length() == 0


def test_length_via_bfs_oracle():
    rng = random.Random(1)
    for w in rng.sample(list(WA2.enumerate_elements(5)), 25):
        assert bfs_length_oracle(WA2, w) == w.length()


def test_weight_length():
    ws = WC2.ws
    w0 = WC2.longest_finite
    _, word = WC2.reduced_word(w0)
    assert w0.weight_length() == sum(ws.params[i] for i in word)
    assert WC2.identity.weight_length() == 0
    # L = l when all parameters are 1
    for w in WA2.enumerate_elements(4):
        assert w.weight_length() == w.length()


def test_weight_length_word_independent():
    # sum of generator weights is the same over any reduced word
    rng = random.Random(2)
    for w in rng.sample(list(WC2.enumerate_elements(6)), 30):
        total = w.weight_length()
        # peel right descents in arbitrary order
        for _ in range(5):
            cur, acc = w, 0
            while cur.length() > 0:
                descents = [i for i in range(WC2.ws.num_gens)
                            if (cur * WC2.gens[i]).length() < cur.length()]
                i = rng.choice(descents)
                acc += WC2.ws.params[i]
                cur = cur * WC2.gens[i]
            assert acc == total


def test_length_additivity_iff_weight_additivity():
    rng = random.Random(3)
    els = list(WC2.enumerate_elements(4))
    for _ in range(200):
        w, v = rng.choice(els), rng.choice(els)
        len_add = (w * v).length() == w.length() + v.length()
        wt_add = (w * v).weight_length() == w.weight_length() + v.weight_length()
        assert len_add == wt_add


def test_reduced_word_examples():
    assert WA2.reduced_word(WA2.identity) == (0, ())
    pi, word = WA2.reduced_word(WA2.longest_finite)
    assert pi == 0 and len(word) == 3
    pi, word = WA2.reduced_word(WA2.translation((1, 0)))
    assert pi != 0 and len(word) == 2


def test_reduced_word_roundtrip():
    for w in WA2.enumerate_elements(6):
        assert WA2.from_word(*WA2.reduced_word(w)) == w


def test_descents():
    def left_descent(w, i):
        return WA2.gen_mul_left(i, w).length() < w.length()

    for i in range(3):
        assert not left_descent(WA2.identity, i)
    w0 = WA2.longest_finite
    for k in (1, 2):  # the finite generator labels in type A
        assert left_descent(w0, k)
    s1 = WA2.gens[1]
    assert left_descent(s1, 1)
    assert not left_descent(s1, 2)


def test_bruhat_order():
    els = list(WA2.enumerate_elements(4))
    for w in els:
        assert WA2.bruhat_leq(w, w)
        if WA2.pi_index(w) == 0:
            assert WA2.bruhat_leq(WA2.identity, w)
    # mismatched Pi-parts never compare
    pi = WA2.pi_elements[1]
    assert not WA2.bruhat_leq(pi, WA2.gens[1])
    assert not WA2.bruhat_leq(WA2.identity, pi * WA2.gens[1])


def test_bruhat_against_subword_oracle():
    # the Z-property walk agrees with membership in the subword interval on
    # every pair up to a length bound in every shipped weight system,
    # pairs with different Pi-parts included
    bounds = {1: 8, 2: 4, 3: 3}
    for cfg, _ in ORACLE_CONFIGS:
        weyl = make(cfg)
        els = list(weyl.enumerate_elements(bounds[cfg[1]]))
        assert len({weyl.pi_index(w) for w in els}) == len(weyl.pi_elements), cfg
        for y in els:
            below = weyl.bruhat_interval(y)
            for x in els:
                assert weyl.bruhat_leq(x, y) == (x in below), (cfg, x, y)


def test_translation_elements():
    assert WA2.translation((0, 0)) == WA2.identity
    # alpha in Q has trivial Pi-part
    alpha = WA2.ws.simple_roots[0].vector
    assert WA2.pi_index(WA2.translation(alpha)) == 0
    assert WA2.pi_index(WA2.translation((1, 0))) != 0
    with pytest.raises(ValueError):
        WC2.translation((1, 0))  # not in the L-weight lattice when a > c


def test_pi_part_homomorphism():
    rng = random.Random(5)
    els = list(WA2.enumerate_elements(4))
    pi_part = lambda w: WA2.pi_elements[WA2.pi_index(w)]
    for _ in range(60):
        x, y = rng.choice(els), rng.choice(els)
        px = pi_part(x)
        py = pi_part(y)
        assert pi_part(x * y) == pi_part(px * py)


def test_enumerate():
    a1 = make(("A", 1, (1, 1)))
    assert [w.length() for w in a1.enumerate_elements(0)] == [0, 0]
    small = [w for w in WA2.enumerate_elements(1) if WA2.pi_index(w) == 0]
    expected = {WA2.identity, WA2.gens[0], WA2.gens[1], WA2.gens[2]}
    assert set(small) == expected
    # count at bound 4 matches an independent BFS over the Cayley graph
    seen = {WA2.identity}
    frontier = {WA2.identity}
    for _ in range(4):
        frontier = {w * s for w in frontier for s in WA2.gens} - seen
        seen |= frontier
    expected_count = len(seen) * len(WA2.pi_elements)
    assert len(list(WA2.enumerate_elements(4))) == expected_count
    with pytest.raises(ValueError, match="bound must be >= 0"):
        list(WA2.enumerate_elements(-1))


def test_enumerate_sorted_and_unique():
    out = list(WA2.enumerate_elements(3))
    assert len(out) == len(set(out))
    keys = [WA2.sort_key(w) for w in out]
    assert keys == sorted(keys)


# Every shipped weight system, with the length up to which the rational
# walk oracle is checked against the integer root shifts.
ORACLE_CONFIGS = [
    (("A", 1, (1, 1)), 16),
    (("A", 1, (2, 1)), 16),
    (("A", 2, (1, 1, 1)), 8),
    (("A", 3, (1, 1, 1, 1)), 6),
    (("C", 2, (1, 1, 1)), 8),
    (("C", 2, (2, 1, 1)), 8),
    (("C", 2, (3, 2, 1)), 8),
]


def test_alcove_walk_oracle():
    # the rational point reached by walking a reduced word lies in the
    # alcove named by the integer root shifts; the rational box test
    # 0 < <x, alpha_k^v> < b_k agrees with LowestCell.in_box, and the boxed
    # elements are exactly the closed-form B_0; the closed-form X_0 and
    # X_0^-1 are the elements with no finite right (left) descent
    for cfg, bound in ORACLE_CONFIGS:
        weyl = make(cfg)
        ws = weyl.ws
        lowest = LowestCell(Hecke(weyl))
        e = weyl.identity
        assert oracles.alcove_floors(weyl, oracles.alcove_walk(weyl, ())) == e.shifts
        boxed = set()
        for w in weyl.enumerate_elements(bound):
            point = oracles.alcove_walk(weyl, weyl.reduced_word(w)[1])
            assert oracles.alcove_floors(weyl, point) == w.shifts, (cfg, w)
            rational_box = all(
                0 < oracles.point_pairing(point, ws.simple_roots[k]) < ws.b[k]
                for k in range(ws.rank)
            )
            assert lowest.in_box(w) == rational_box, (cfg, w)
            if rational_box:
                boxed.add(w)
            assert lowest.is_in_x0(w) == (oracles.finite_descent(weyl, w, "right") is None), (cfg, w)
            assert lowest.is_in_x0(w.inverse()) == (
                oracles.finite_descent(weyl, w, "left") is None), (cfg, w)
        assert boxed == set(lowest.box_elements()), cfg


@pytest.mark.parametrize("cfg,bound", ORACLE_CONFIGS)
def test_root_shifts_are_read_once_per_element(cfg, bound, monkeypatch):
    # each element is minted with its root shifts: its length, L(w) and
    # the alcove predicates read from them make no pairing, and each still
    # agrees with its definition on the rational walked point
    weyl = make(cfg)
    ws = weyl.ws
    lowest = LowestCell(Hecke(weyl))
    els = list(weyl.enumerate_elements(bound - 2))
    calls = []
    pairing = ws.pairing
    monkeypatch.setattr(ws, "pairing", lambda lam, r: calls.append(r) or pairing(lam, r))
    warm = {w: (w.length(), weyl.weight_length(w), lowest.is_in_x0(w), lowest.in_box(w)) for w in els}
    assert calls == [], cfg
    monkeypatch.undo()
    for w in els:
        point = oracles.alcove_walk(weyl, weyl.reduced_word(w)[1])
        floors = oracles.alcove_floors(weyl, point)
        assert w.shifts == floors, (cfg, w)
        # the walls crossed from A_0: levels 1..c above the root's origin
        # hyperplane, c+1..0 below it
        walls = [(r, k) for r, c in zip(ws.positive_roots, floors)
                 for k in (range(1, c + 1) if c > 0 else range(c + 1, 1))]
        simple = [oracles.point_pairing(point, r) for r in ws.simple_roots]
        assert warm[w] == (
            len(walls), sum(r.level_weight(k) for r, k in walls),
            all(p > 0 for p in simple),
            all(0 < p < b for p, b in zip(simple, ws.b)),
        ), (cfg, w)


@pytest.mark.parametrize("cfg,bound", ORACLE_CONFIGS)
def test_inverse_is_kept_on_both_elements(cfg, bound, monkeypatch):
    # the first inverse of w is kept on w and on w^-1: a second inverse, or
    # the inverse of the inverse, acts on no weight and returns w itself.
    # Only one element of each pair {w, w^-1} is asked first.
    weyl = make(cfg)
    ws = weyl.ws
    els = list(weyl.enumerate_elements(bound - 2))
    first = {}
    for w in els:
        if w not in first:
            first[w] = weyl.inverse(w)
            first.setdefault(first[w], w)
    calls = []
    act = ws.act
    monkeypatch.setattr(ws, "act", lambda *args: calls.append(args) or act(*args))
    for w in els:
        assert w.inverse() is first[w] is weyl.inverse(w), (cfg, w)
        assert w.inverse().inverse() is w, (cfg, w)
    assert calls == [], cfg
    monkeypatch.undo()
    assert any(first[w] is not w for w in els), cfg
    for w in els:
        assert (w * first[w]) is weyl.identity is (first[w] * w), (cfg, w)


@pytest.mark.parametrize("cfg,bound", ORACLE_CONFIGS)
def test_seeded_round_trips_on_warm_elements(cfg, bound):
    # random words in every shipped weight system, with the per-element
    # caches (root shifts, reduced word, left products) filled first: the
    # group laws and the word round trip still hold on cached elements
    weyl = make(cfg)
    n = weyl.ws.num_gens
    rng = random.Random(20)
    els = []
    for _ in range(40):
        pi_idx = rng.randrange(len(weyl.pi_elements))
        word = [rng.randrange(n) for _ in range(rng.randint(0, bound))]
        els.append(weyl.from_word(pi_idx, word))
    for w in els:
        w.length(), weyl.reduced_word(w)
        for i in range(n):
            weyl.gen_mul_left(i, w)
        assert w._word is not None and set(range(n)) <= w._gl.keys(), (cfg, w)
    e = weyl.identity
    for _ in range(120):
        a, b, c = (rng.choice(els) for _ in range(3))
        assert a * a.inverse() is e is a.inverse() * a, (cfg, a)
        assert a.inverse().inverse() is a, (cfg, a)
        assert (a * b) * c is a * (b * c), (cfg, a, b, c)
        assert (a * b) * b.inverse() is a, (cfg, a, b)
        assert (a * b).inverse() is b.inverse() * a.inverse(), (cfg, a, b)
    for w in els:
        pi_idx, word = weyl.reduced_word(w)
        assert weyl.from_word(pi_idx, word) is w, (cfg, w)
        assert len(word) == w.length() == sum(map(abs, w.shifts)), (cfg, w)


def _fresh_shifts(weyl, g):
    # the definition by pairing, not the shifts kept on g
    ws = weyl.ws
    signs = ws.w0_root_action[ws.w0_inv[g.finite]]
    return tuple(ws.pairing(g.translation, r) - (signs[r.index][1] < 0) for r in ws.positive_roots)


@pytest.mark.parametrize("cfg,bound", ORACLE_CONFIGS)
def test_left_steps_match_the_generic_product(cfg, bound):
    # every left step read off the table is the generic product, with the
    # shifts and length of a fresh pairing, and the table's descent flag is
    # the length comparison: never a descent for a pi key (length 0)
    weyl = make(cfg)
    els = list(weyl.enumerate_elements(bound))
    fresh = {}

    def shifts(g):
        if g not in fresh:
            fresh[g] = _fresh_shifts(weyl, g)
        return fresh[g]

    for w in els:
        for i, s in enumerate(weyl.gens):
            g = weyl.gen_mul_left(i, w)
            assert g is weyl.multiply(s, w), (cfg, w, i)
            assert g.shifts == shifts(g) and g._len == sum(map(abs, shifts(g))), (cfg, w, i)
            assert weyl.gen_mul_left(i, g) is w, (cfg, w, i)
            assert weyl.is_left_descent(i, w) == (
                sum(map(abs, shifts(g))) < sum(map(abs, shifts(w)))), (cfg, w, i)
        for k, pi in enumerate(weyl.pi_elements):
            g = weyl.gen_mul_left(~k, w)
            assert g is weyl.multiply(pi, w), (cfg, w, k)
            assert g.shifts == shifts(g) == shifts(w) and g._len == w.length(), (cfg, w, k)
            assert weyl.gen_mul_left(~weyl.pi_inverse[k], g) is w, (cfg, w, k)
            assert weyl.is_left_descent(~k, w) is False, (cfg, w, k)


@pytest.mark.parametrize("cfg,bound", ORACLE_CONFIGS)
def test_enumeration_makes_no_pairing_or_action(cfg, bound, monkeypatch):
    # once the tables are built, enumeration and the reduced words of its
    # sort read every step, shift and descent off them
    weyl = make(cfg)
    ws = weyl.ws
    calls = []
    for name in ("pairing", "act"):
        f = getattr(ws, name)
        monkeypatch.setattr(ws, name, lambda *args, _f=f, _n=name: calls.append(_n) or _f(*args))
    els = list(weyl.enumerate_elements(bound))
    assert calls == [], (cfg, len(calls))
    monkeypatch.undo()
    assert len(els) > len(weyl.pi_elements), cfg


def _matmul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


@pytest.mark.parametrize("cfg,bound", ORACLE_CONFIGS)
def test_w0_tables_equal_the_matrix_products(cfg, bound):
    # the W_0 tables filled from the search's steps are those of the
    # matrix products: mult, inverse, the reduced words of finite_words
    # and the longest element
    weyl = make(cfg)
    ws = weyl.ws
    mats, size = ws.w0_mats, ws.w0_size
    ident = mats[0]
    simple = [r.reflection_matrix() for r in ws.simple_roots]
    assert ws.w0_simple_index == tuple(ws.w0_index[m] for m in simple), cfg
    for a in range(size):
        assert ws.w0_mult[a] == [ws.w0_index[_matmul(mats[a], mats[b])] for b in range(size)], cfg
        assert _matmul(mats[a], mats[ws.w0_inv[a]]) == ident, cfg
    words = weyl.finite_words()
    assert len(words) == size, cfg
    lengths = []
    for u in range(size):
        prod = ident
        for i in words[u]:
            prod = _matmul(prod, simple[ws.simple_to_gen.index(i)])
        assert prod == mats[u], (cfg, u)
        negated = sum(ws.act(r.vector, u) not in {r2.vector for r2 in ws.positive_roots}
                      for r in ws.positive_roots)
        assert len(words[u]) == negated, (cfg, u)
        lengths.append(negated)
    assert lengths.count(len(ws.positive_roots)) == 1, cfg
    assert lengths[ws.longest_index] == len(ws.positive_roots), cfg


def test_separating_hyperplanes():
    e = WA2.identity
    assert oracles.separating_hyperplanes(WA2, e, e) == set()
    s0 = WA2.gens[0]  # affine generator in type A
    theta = WA2.ws.highest_coroot_root
    assert oracles.separating_hyperplanes(WA2, e, s0) == {(theta.index, 1)}
    rng = random.Random(7)
    els = list(WA2.enumerate_elements(6))
    for w in rng.sample(els, 50):
        assert len(oracles.separating_hyperplanes(WA2, e, w)) == w.length()
    # against the rational oracle: integer levels strictly between the
    # pairings of the two walked points
    for _ in range(50):
        x, y = rng.choice(els), rng.choice(els)
        px, py = (oracles.alcove_walk(WA2, WA2.reduced_word(g)[1]) for g in (x, y))
        expected = set()
        for r in WA2.ws.positive_roots:
            a, b = sorted((oracles.point_pairing(px, r), oracles.point_pairing(py, r)))
            expected.update((r.index, k) for k in range(-20, 21) if a < k < b)
        assert oracles.separating_hyperplanes(WA2, x, y) == expected


def test_commuting_left_right_actions():
    # left action of W_e and right action of W_e on extended alcoves commute
    rng = random.Random(8)
    els = list(WC2.enumerate_elements(3))
    for _ in range(40):
        g, u, h = rng.choice(els), rng.choice(els), rng.choice(els)
        left_then_right = (g * u) * h
        right_then_left = g * (u * h)
        assert WC2.pi_index(left_then_right) == WC2.pi_index(right_then_left)
        assert left_then_right.shifts == right_then_left.shifts


def test_hyperplane_weight_oracle_matches_families():
    for cfg, _ in ORACLE_CONFIGS:
        weyl = make(cfg)
        for r in weyl.ws.positive_roots:
            for k in (-2, -1, 0, 1, 2, 3):
                assert oracles.hyperplane_weight(weyl, r.index, k) == r.level_weight(k)


def test_hyperplane_weight_constant_on_orbits():
    # transport a hyperplane by a random group element; the weight of the
    # image equals the weight of the source
    rng = random.Random(9)
    weyl = WC2
    ws = weyl.ws
    els = [w for w in weyl.enumerate_elements(4) if weyl.pi_index(w) == 0]
    for _ in range(20):
        r = rng.choice(ws.positive_roots)
        k = rng.randint(-3, 3)
        g = rng.choice(els)
        tgt, sign = ws.w0_root_action[g.finite][r.index]
        cov = ws.positive_roots[tgt].covector
        shift = sum(g.translation[i] * cov[i] for i in range(ws.rank))
        k_img = sign * k + shift
        assert ws.positive_roots[tgt].level_weight(k_img) == r.level_weight(k)


def test_pi_elements_need_distinct_classes(monkeypatch):
    # a coset key that merges classes would let two length-zero elements
    # overwrite each other in the class table
    ws = WeightSystem("A", 2, (1, 1, 1))
    monkeypatch.setattr(ws, "coset_key", lambda lam: ())
    with pytest.raises(AssertionError, match="share a class"):
        Weyl(ws)


_MULTIPLY = Weyl.multiply
_BUILD_LATTICES = WeightSystem._build_lattices


def _one_class_too_many(ws):
    _BUILD_LATTICES(ws)
    ws.pi_order += 1


def _pi_across_a_wall(weyl, g, w):
    return _MULTIPLY(weyl, weyl.gens[0] if g.length() == 0 and any(g.translation) else g, w)


@pytest.mark.parametrize("owner,name,value,match", [
    # a W_0 that fixes every root has no element negating them all
    (WeightSystem, "act", lambda ws, lam, u: tuple(lam), "negate every positive root"),
    # |P/Q| one too large: B_0 has one length-zero element too few
    (WeightSystem, "_build_lattices", _one_class_too_many,
     r"3 length-zero elements, but \|P/Q\| = 4"),
    # s_i w on the alcove of w: a generator row crosses no wall
    (Weyl, "multiply", lambda weyl, g, w: w, r"across 1 walls, not \[\]"),
    # pi w one wall from the alcove of w: a Pi row crosses one
    (Weyl, "multiply", _pi_across_a_wall, "across 0 walls, not"),
], ids=["w0-negates-no-root", "pi-count", "generator-row", "pi-row"])
def test_tables_that_break_the_alcove_geometry_are_refused(monkeypatch, owner, name, value, match):
    # each table is checked against the alcove geometry as it is built:
    # the longest element of W_0, the length-zero part of B_0 and each row
    # of the left-step table, where g w and w lie l(g) walls apart
    monkeypatch.setattr(owner, name, value)
    with pytest.raises(AssertionError, match=match):
        make(("A", 2, (1, 1, 1)))


def test_reduced_word_needs_a_left_descent(monkeypatch):
    # an element of nonzero length has a left descent; a table that shows
    # none raises, and the walk keeps no word
    weyl = make(("A", 2, (1, 1, 1)))
    monkeypatch.setattr(weyl, "is_left_descent", lambda i, w: False)
    w = weyl.pi_elements[1] * weyl.gens[1]
    with pytest.raises(AssertionError, match="no descent found"):
        weyl.reduced_word(w)
    assert w._word is None and weyl.gens[1]._word is None


def test_pi_is_the_length_zero_part_of_the_box():
    # Pi, read off B_0, is every length-zero element: a scan of (u, lam)
    # over small translations (Pi has lam in {0, 1}^rank) finds the same
    # set, and Pi stays sorted by translation (pi indices appear in element
    # text)
    for cfg, _ in ORACLE_CONFIGS:
        weyl = make(cfg)
        ws = weyl.ws
        scan = [weyl.element(u, lam) for u in range(ws.w0_size)
                for lam in product(range(-2, 3), repeat=ws.rank)
                if ws.in_lattice(lam) and weyl.element(u, lam).length() == 0]
        assert weyl.pi_elements == tuple(sorted(scan, key=lambda g: g.translation)), cfg


def test_pi_inverse_table():
    # pi_k^-1 = pi_{pi_inverse[k]}: the table is an involution fixing 0,
    # and the cached step it feeds strips pi_k to the identity
    for cfg, _ in ORACLE_CONFIGS:
        weyl = make(cfg)
        inv = weyl.pi_inverse
        assert len(inv) == len(weyl.pi_elements) and inv[0] == 0, cfg
        for k, pi in enumerate(weyl.pi_elements):
            assert inv[inv[k]] == k, (cfg, k)
            assert weyl.pi_elements[inv[k]] is pi.inverse(), (cfg, k)
            assert weyl.gen_mul_left(~inv[k], pi) is weyl.identity, (cfg, k)


def test_a_left_step_key_outside_the_table_raises():
    # keys 0..n name the s_i and ~0..~(|Pi| - 1) the pi; any other key
    # raises, in a step or a descent query, instead of reading another key's
    # row, and caches nothing
    for cfg, _ in ORACLE_CONFIGS:
        weyl = make(cfg)
        w = weyl.gens[0]
        for key in (weyl.ws.num_gens, ~len(weyl.pi_elements), 10**6, -10**6):
            with pytest.raises(KeyError):
                weyl.gen_mul_left(key, w)
            with pytest.raises(KeyError):
                weyl.is_left_descent(key, w)
            assert key not in w._gl, (cfg, key)


def test_pi_gen_permutation():
    # conjugation by a length-zero pi permutes the generators and keeps
    # their weights, in every shipped weight system
    for cfg, _ in ORACLE_CONFIGS:
        weyl = make(cfg)
        params = weyl.ws.params
        for pi in weyl.pi_elements:
            perm = [weyl.gens.index(pi * s * pi.inverse()) for s in weyl.gens]
            assert sorted(perm) == list(range(len(weyl.gens))), (cfg, pi)
            assert [params[j] for j in perm] == list(params), (cfg, pi)


def test_elements_are_interned():
    u, lam = WA2.gens[2].finite, WA2.gens[2].translation
    assert WA2.element(u, lam) is WA2.element(u, list(lam)) is WA2.gens[2]
    assert WA2.gens[1] * WA2.gens[2] is WA2.gens[1] * WA2.gens[2]
    assert WA2.gens[2].inverse() is WA2.gens[2]


def test_equality_and_hash_are_identity():
    # interning makes value equality identity equality; a Python-level
    # override would only slow every dict of the library down
    assert GroupElement.__eq__ is object.__eq__
    assert GroupElement.__hash__ is object.__hash__


def test_elements_span_an_odd_number_of_allocator_blocks():
    # identity hashes are addresses >> 4, and elements minted in a row sit
    # one object size apart: an odd number of 16-byte blocks steps their
    # hashes through every residue of a small dict's table, an even number
    # through half of them.  The ninth slot, _key, keeps the sort key.
    assert len(GroupElement.__slots__) == 9
    assert (sys.getsizeof(WA2.identity) + 15) // 16 % 2 == 1
    w = WA2.from_word(1, [0, 2, 1])
    key = WA2.sort_key(w)
    assert w._key is key == (3, (0, 2, 1), 1)


def test_elements_of_two_groups_never_compare_equal():
    # both identities have normal form (0, (0, 0))
    assert (WA2.identity.finite, WA2.identity.translation) == (
        WC2.identity.finite, WC2.identity.translation)
    assert WA2.identity != WC2.identity
    assert WA2.identity not in {WC2.identity}
    assert make(("A", 2, (1, 1, 1))).identity != WA2.identity


def test_interning_is_atomic_across_threads():
    # two objects for one normal form would split one Hecke term into two
    # keys.  The intern table below holds every thread that misses until
    # all of them have missed the same key, so each new element is minted
    # by all threads at once; they must still share one object.  The
    # shifts, lengths and left-step links (Pi links included) that the
    # threads write with no lock must still be those of the generic product.
    nthreads = 8
    barrier = threading.Barrier(nthreads)

    class MissTogether(dict):
        def get(self, key, default=None):
            value = super().get(key, default)
            if value is None:
                barrier.wait(timeout=10)
            return value

    weyl = make(("A", 2, (1, 1, 1)))
    weyl._intern = MissTogether(weyl._intern)
    rng = random.Random(13)
    words = [[rng.randrange(3) for _ in range(rng.randint(1, 9))] for _ in range(60)]
    results = [None] * nthreads

    def mint(t):
        out = []
        for word in words:
            for k in range(len(weyl.pi_elements)):
                g = weyl.from_word(k, word)
                out += [g, g.inverse()]
        results[t] = out

    threads = [threading.Thread(target=mint, args=(t,)) for t in range(nthreads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    first = results[0]
    assert first is not None and len(weyl._intern) > 20
    for out in results[1:]:
        assert out is not None and len(out) == len(first)
        assert all(a is b for a, b in zip(first, out))
    for g in first:
        assert weyl.element(g.finite, g.translation) is g
        assert g.shifts == _fresh_shifts(weyl, g)
        assert g._len == sum(map(abs, _fresh_shifts(weyl, g)))
        for key, h in g._gl.items():
            assert h is (weyl.gens[key] if key >= 0 else weyl.pi_elements[-1 - key]) * g
    assert any(key < ~0 for g in first for key in g._gl)


@pytest.mark.parametrize("cfg", [("A", 2, (1, 1, 1)), ("C", 2, (2, 1, 1))])
def test_output_order_does_not_depend_on_object_addresses(cfg):
    # elements hash by identity, so sets of them iterate in address order;
    # every output must be sorted by sort_key before it is read
    def texts(weyl):
        w = max(weyl.enumerate_elements(7), key=weyl.sort_key)
        assert w.length() >= 6
        return [
            [element_text(weyl, g) for g in weyl.enumerate_elements(6)],
            [element_text(weyl, g) for g in LowestCell(Hecke(weyl)).box_elements()],
            [element_text(weyl, g) for g in sorted(weyl.bruhat_interval(w), key=weyl.sort_key)],
        ]

    one, two = make(cfg), make(cfg)  # both alive: their elements sit at other addresses
    assert texts(one) == texts(two)


def test_finite_word_table():
    # built on first use, not with the group; entry u is the smallest
    # reduced word of u in W_0, in every shipped weight system, and L(u)
    # sums the generator weights over it
    for cfg, _ in ORACLE_CONFIGS:
        weyl = make(cfg)
        assert weyl._finite_words is None
        words = weyl.finite_words()
        assert weyl.finite_words() is words and len(words) == weyl.ws.w0_size
        for u, word in enumerate(words):
            assert word == weyl.reduced_word(weyl.finite_element(u))[1]
            assert weyl.from_word(0, word) is weyl.finite_element(u)
            assert weyl.finite_element(u).weight_length() == sum(
                weyl.ws.params[i] for i in word), (cfg, u)


def test_output_forms_are_fresh_objects():
    # mutating a returned element or Hecke form leaves the next call alone
    weyl = make(("A", 2, (1, 1, 1)))
    hecke = Hecke(weyl)
    w = weyl.from_word(1, [0, 2, 1])
    want_el = serialize.element_json(weyl, w)
    assert want_el == {"pi": 1, "word": [0, 2, 1], "lambda": list(w.translation),
                       "u": list(weyl.finite_words()[w.finite])}
    want_el = json.loads(json.dumps(want_el))
    got = serialize.element_json(weyl, w)
    for key in ("word", "lambda", "u"):
        got[key].append(9)
    got["pi"] = 2
    assert serialize.element_json(weyl, w) == want_el
    cw = hecke.kl_basis(w)
    want = json.loads(json.dumps(serialize.hecke_json(weyl, cw)))
    got = serialize.hecke_json(weyl, cw)
    for term in got:
        for key in ("word", "lambda", "u"):
            term["element"][key].append(9)
        term["coeff"]["7"] = 1
    got.append(None)
    assert serialize.hecke_json(weyl, cw) == want


@pytest.mark.parametrize("cfg,bound", ORACLE_CONFIGS)
def test_the_normal_form_alone_is_read_back(cfg, bound):
    # {"lambda": ..., "u": [...]}, the normal form that element_json writes
    # beside the word form, is element input on its own: it names the same
    # (interned) element as the word form it came with
    weyl = make(cfg)
    for w in weyl.enumerate_elements(bound):
        obj = serialize.element_json(weyl, w)
        normal = json.dumps({"lambda": obj["lambda"], "u": obj["u"]})
        assert serialize.parse_element(weyl, normal) is w, (cfg, normal)


@pytest.mark.parametrize("cfg, text, match", [
    (("A", 2, (1, 1, 1)), '{"lambda":[0,0],"u":[0]}', "u is not a finite-part word"),
    (("A", 2, (1, 1, 1)), '{"lambda":[0,0],"u":[1,0]}', "u is not a finite-part word"),
    (("A", 2, (1, 1, 1)), '{"u":[1]}', "cannot interpret element object"),
    (("A", 2, (1, 1, 1)), '{"lambda":[0,0]}', "cannot interpret element object"),
    (("C", 2, (2, 1, 1)), '{"lambda":[1,0],"u":[]}', "not in the L-weight lattice"),
    (("A", 2, (1, 1, 1)), '{"word":[1],"lambda":[1,0]}', "does not match the word form"),
], ids=["u-with-s0", "u-ending-in-s0", "u-alone", "lambda-alone", "lambda-off-lattice",
        "lambda-against-word"])
def test_the_normal_form_refuses_what_names_no_element(cfg, text, match):
    with pytest.raises(ValueError, match=match):
        serialize.parse_element(make(cfg), text)
