import gc
import inspect
import random
import sys
import threading
import weakref

import pytest

import oracles
from heckecell import paths, serialize
from heckecell.cellular import CellularStructure
from heckecell.hecke import Hecke, HeckeElt
from heckecell.laurent import LaurentPoly, add_scaled, xi
from heckecell.lowestcell import LowestCell
from heckecell.rootdata import WeightSystem
from heckecell.verification import KL_AXIOM_CONFIGS
from heckecell.weyl import Weyl


def make(cfg):
    return Hecke(Weyl(WeightSystem(*cfg)))


HA2 = make(("A", 2, (1, 1, 1)))
HC2 = make(("C", 2, (2, 1, 1)))


def test_quadratic_relation():
    H, W = HA2, HA2.weyl
    s = W.gens[1]
    ts = H.t(s)
    assert H.mul(ts, ts) == H.unit() + HeckeElt({s: xi(1)})


def test_mul_gen_length_additive():
    H, W = HA2, HA2.weyl
    rng = random.Random(0)
    els = list(W.enumerate_elements(5))
    done = 0
    while done < 50:
        w = rng.choice(els)
        i = rng.randrange(3)
        s = W.gens[i]
        if (s * w).length() > w.length():
            assert H.mul_gen(i, H.t(w)) == H.t(s * w)
            done += 1


def test_mul_gen_operator_identity():
    # multiplying twice by T_s equals xi_s (mul by T_s) + identity
    H, W = HC2, HC2.weyl
    rng = random.Random(1)
    els = list(W.enumerate_elements(4))
    for _ in range(20):
        h = H.t(rng.choice(els)) + HeckeElt({rng.choice(els): LaurentPoly.q_power(rng.randint(-2, 2))})
        for i in range(3):
            once = H.mul_gen(i, h)
            twice = H.mul_gen(i, once)
            assert twice == HeckeElt({w: H.xi[i] * c for w, c in once.items()}) + h


def test_mul_unit_and_length_additive_products():
    H, W = HA2, HA2.weyl
    rng = random.Random(2)
    els = list(W.enumerate_elements(4))
    for _ in range(50):
        x, y = rng.choice(els), rng.choice(els)
        h = H.t(x)
        assert H.mul(h, H.unit()) == h
        if (x * y).length() == x.length() + y.length():
            assert H.mul(H.t(x), H.t(y)) == H.t(x * y)


def test_mul_associative():
    H, W = HA2, HA2.weyl
    rng = random.Random(3)
    els = list(W.enumerate_elements(3))

    def rand_elt():
        out = HeckeElt()
        for _ in range(3):
            out = out + HeckeElt({rng.choice(els): LaurentPoly({rng.randint(-1, 1): rng.randint(-2, 2)})})
        return out

    for _ in range(30):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert H.mul(H.mul(a, b), c) == H.mul(a, H.mul(b, c))


def _word_replay(H, x, h):
    """T_x h letter by letter along a reduced word of x, then T_pi as the
    group product pi * w on the support: no chain cache involved."""
    W = H.weyl
    pi_idx, word = W.reduced_word(x)
    for i in reversed(word):
        h = H.mul_gen(i, h)
    pi = W.pi_elements[pi_idx]
    return HeckeElt({pi * w: c for w, c in h.items()})


KL_CONFIGS = [cfg for cfg, _ in KL_AXIOM_CONFIGS]
KL_CONFIG_IDS = [f"{t}{n}-{','.join(map(str, p))}" for t, n, p in KL_CONFIGS]


@pytest.mark.parametrize("cfg", KL_CONFIGS, ids=KL_CONFIG_IDS)
def test_bar_t_inverts_t_of_inverse(cfg):
    # bar(T_w) = T_{w^-1}^-1, on every element to length 5 (pi-parts included)
    H = make(cfg)
    for w in H.weyl.enumerate_elements(5):
        assert H.mul(H.bar_t(w), H.t(w.inverse())) == H.unit()


@pytest.mark.parametrize("cfg", KL_CONFIGS, ids=KL_CONFIG_IDS)
def test_mul_is_sum_of_term_products(cfg):
    # a KL element's support is closed under the chain walk, so mul reuses
    # T_y h2 across its terms; the sum of the single-term products (each also
    # checked against the word replay) must agree with it
    H = make(cfg)
    rng = random.Random(14)
    els = list(H.weyl.enumerate_elements(5))
    for w in els:
        h1 = H.kl_basis(w)
        h2 = HeckeElt()
        for _ in range(3):
            h2 = h2 + HeckeElt({rng.choice(els): LaurentPoly.q_power(rng.randint(-2, 2))})
        expected = {}
        for x, c in h1.items():
            tx = H.mul(H.t(x), h2)
            assert tx == _word_replay(H, x, h2)
            add_scaled(expected, c, tx.items())
        assert H.mul(h1, h2) == HeckeElt(expected)


@pytest.mark.parametrize("cfg", KL_CONFIGS, ids=KL_CONFIG_IDS)
def test_right_mul_reused_agrees_with_mul(cfg):
    # a right factor keeps the chain cache of its products for a whole sweep
    # of left factors; two right factors used in turn never see each other's
    # cache, so each agrees with the product against a fresh copy, which
    # holds no cache, on every left factor
    H = make(cfg)
    rng = random.Random(6)
    els = list(H.weyl.enumerate_elements(4))
    h2 = H.kl_basis(rng.choice(els))
    h3 = H.t(rng.choice(els)) + HeckeElt({rng.choice(els): LaurentPoly.q_power(-1)})
    for w in els:
        for h1 in (H.kl_basis(w), H.t(w)):
            assert H.mul(h1, h2) == H.mul(h1, HeckeElt(dict(h2.items())))
            assert H.mul(h1, h3) == H.mul(h1, HeckeElt(dict(h3.items())))


@pytest.mark.parametrize("cfg", KL_CONFIGS, ids=KL_CONFIG_IDS)
def test_mul_gen_at_a_pi_key_is_the_product_by_t_pi(cfg):
    # T_pi h is mul_gen at the key ~k: the relabel by the generic product
    # pi w, equal to mul by t(pi), on seeded KL elements and on module
    # elements P(x), whose relabel stays in X_0 and equals the module action
    H = make(cfg)
    W, lowest = H.weyl, LowestCell(H)
    rng = random.Random(38)
    els = list(W.enumerate_elements(5))
    x0 = [x for x in W.enumerate_elements(W.longest_finite.length() + 3) if lowest.is_in_x0(x)]
    for k, pi in enumerate(W.pi_elements):
        kl = [H.kl_basis(w) for w in rng.sample(els, 10)]
        ps = [lowest._p_from(x) for x in rng.sample(x0, 5)]
        for h in kl + ps:
            out = H.mul_gen(~k, h)
            assert out == HeckeElt({W.multiply(pi, w): c for w, c in h.items()}), (cfg, k)
            assert out == H.mul(H.t(pi), h), (cfg, k)
        for p in ps:
            out = H.mul_gen(~k, p)
            assert all(lowest.is_in_x0(y) for y in out._d), (cfg, k)
            assert out == lowest.act(H.t(pi), p), (cfg, k)


def _new_letter_entries(W, cache, before):
    return sum(1 for x in cache if x not in before and not W.reduced_word(x)[0])


def test_one_generator_step_per_link(monkeypatch):
    # a KL link that misses a lower element resumes its peel once that
    # element is built, so a cold walk runs the generator step once for each
    # element it stores under a letter (pi links are relabels); links that
    # restarted after each miss ran 681 steps for the 498 KL elements here
    H = make(("A", 2, (1, 1, 1)))
    L = LowestCell(H)
    W = H.weyl
    steps = oracles.count_calls(monkeypatch, Hecke, "mul_gen")
    before = set(H._kl_cache)
    H.kl_basis(W.longest_finite * W.translation((-8, -8)))
    assert steps[0] == _new_letter_entries(W, H._kl_cache, before) == 498
    steps = oracles.count_calls(monkeypatch, LowestCell, "_module_gen")
    before = set(L._p_cache)
    for z in L.box_elements():
        L.p_element(z)
    L.relative_kl(W.translation((8, 8)))
    assert steps[0] == _new_letter_entries(W, L._p_cache, before) == 161


def _spy_lift_tops(monkeypatch):
    """(visited, parted): the coefficient of every top a lift peel of hecke
    reads, and every argument of bar_invariant_part, in call order.  The
    peel runs on a dict subclass whose get records the one-argument reads,
    peel's reads of a top (add_scaled reads with a default)."""
    import heckecell.hecke as hecke_module
    from heckecell import laurent
    visited, parted = [], []

    class Spy(dict):
        def get(self, key, default=None):
            value = dict.get(self, key, default)
            if default is None and value is not None:
                visited.append(value)
            return value

    def spy_peel(coords, expand, lift=False):
        if not lift:
            return laurent.peel(coords, expand)
        spy = Spy(coords)
        try:
            return laurent.peel(spy, expand, lift)
        finally:
            coords.clear()
            coords.update(spy)

    part = LaurentPoly.bar_invariant_part
    monkeypatch.setattr(hecke_module, "peel", spy_peel)
    monkeypatch.setattr(LaurentPoly, "bar_invariant_part", lambda c: parted.append(c) or part(c))
    return visited, parted


def test_the_kl_lift_takes_the_part_of_exactly_the_tops_of_nonnegative_degree(monkeypatch):
    # a KL link peels in lift mode: bar_invariant_part runs on every top of
    # degree >= 0 (the degree read here off the dict oracle) and on nothing
    # else, over a KL sweep and the P-elements of a decompose run; every C_w
    # and P(x) so built is still the bar solve's (P(x) on the mirrored module
    # at x^-1, as in test_oracles)
    visited, parted = _spy_lift_tops(monkeypatch)
    sweeps = []
    for cfg, bound in ((("A", 2, (1, 1, 1)), 8), (("C", 2, (3, 2, 1)), 10)):
        H = make(cfg)
        sweeps.append((H, [(w, H.kl_basis(w)) for w in H.weyl.enumerate_elements(bound)]))
    modules = []
    for cfg, lams in ((("A", 2, (1, 1, 1)), [(0, -4), (-2, -2), (-4, 0)]),
                      (("C", 2, (2, 1, 1)), [(0, -2), (-2, 0)])):
        cs = CellularStructure(LowestCell(make(cfg)))
        for fw in cs.ws.fundamental_weights:
            for lam in lams:
                cs.decompose_P_omega(fw, lam)
        modules.append(cs.lowest)
    monkeypatch.undo()
    nonnegative = [c for c in visited if oracles.DictLaurent(dict(c.items())).degree() >= 0]
    assert len(parted) == len(nonnegative) and all(a is b for a, b in zip(parted, nonnegative))
    assert 0 < len(parted) < len(visited)
    for H, cws in sweeps:
        for w, cw in cws:
            assert cw == oracles.kl_basis(H, w), w
    for lowest in modules:
        assert len(lowest._p_cache) > 10
        for x, p in lowest._p_cache.items():
            assert lowest.hecke.flat(p) == oracles.p_element_right(lowest, x.inverse()), x


# Pi of order 3, 4, 2 and 1: A2, A3, C2 equal and C2 (3,2,1)
CACHED_WALK_CONFIGS = [
    ("A", 2, (1, 1, 1)),
    ("A", 3, (1, 1, 1, 1)),
    ("C", 2, (1, 1, 1)),
    ("C", 2, (3, 2, 1)),
]


def test_a_kl_link_that_loses_its_top_is_refused(monkeypatch):
    # C_s times the KL element below x leads with x; a T_s that acts as the
    # identity loses that top, and no KL element is kept for x
    H = make(("A", 2, (1, 1, 1)))
    monkeypatch.setattr(H, "mul_gen", lambda i, h: HeckeElt(dict(h.items())))
    s = H.weyl.gens[1]
    with pytest.raises(AssertionError, match="does not lead with it"):
        H.kl_basis(s)
    assert s not in H._kl_cache


@pytest.mark.parametrize("cfg", CACHED_WALK_CONFIGS,
                         ids=[f"{t}{n}-{','.join(map(str, p))}" for t, n, p in CACHED_WALK_CONFIGS])
def test_second_walk_multiplies_no_group_elements(monkeypatch, cfg):
    # every chain link reads its tail from a per-element cache (gen_mul_left
    # by a generator, or by the inverse Pi key), so once a walk has minted
    # its elements, a second walk over them (on a fresh copy of the right
    # factor, which keeps no cache) and a mul from the kept cache make no
    # group multiply at all, Pi links included
    H = make(cfg)
    W = H.weyl
    els = list(W.enumerate_elements(3))
    assert sum(1 for w in els if W.reduced_word(w)[0]) == len(els) - len(els) // W.ws.pi_order
    h1 = HeckeElt({w: LaurentPoly.one() for w in els})
    h2 = H.kl_basis(W.gens[1] * W.gens[0])
    first = H.mul(h1, h2)
    calls = oracles.count_calls(monkeypatch, Weyl, "multiply")
    assert H.mul(h1, HeckeElt(dict(h2.items()))) == first
    assert H.mul(h1, h2) == first
    assert calls[0] == 0


def test_a_repeat_mul_over_seen_left_factors_steps_no_generator(monkeypatch):
    # the right factor keeps {x: T_x h2}, so a second product over left
    # factors whose support it has seen makes no generator step, and a new
    # left factor steps only for the support the cache does not hold yet;
    # every product equals the one against a fresh copy, which keeps none
    H = make(("C", 2, (2, 1, 1)))
    W = H.weyl
    els = list(W.enumerate_elements(4))
    h2 = H.kl_basis(W.gens[1] * W.gens[0])
    lefts = [H.kl_basis(w) for w in els[::3]]
    first = [H.mul(h1, h2) for h1 in lefts]
    kept = len(h2._tx)
    steps = oracles.count_calls(monkeypatch, Hecke, "mul_gen")
    assert [H.mul(h1, h2) for h1 in lefts] == first
    assert steps[0] == 0 and len(h2._tx) == kept
    assert [H.mul(h1, HeckeElt(dict(h2.items()))) for h1 in lefts] == first
    assert steps[0] > 0
    new = H.kl_basis(list(W.enumerate_elements(6))[-1])
    before = set(h2._tx)
    steps[0] = 0
    prod = H.mul(new, h2)
    assert steps[0] == _new_letter_entries(W, h2._tx, before) > 0
    assert prod == H.mul(new, HeckeElt(dict(h2.items())))


def test_a_temporary_right_factor_is_freed_by_reference_counting():
    # the chain cache kept on h2 is seeded with a twin sharing h2's dict,
    # not with h2 itself, so it points nowhere back at h2: with the cycle
    # collector off, the last reference to h2 going frees h2 and its cache
    class Probe(HeckeElt):
        __slots__ = ("__weakref__",)

    H = make(("A", 2, (1, 1, 1)))
    W = H.weyl
    h1 = H.kl_basis(W.from_word(0, [1, 2, 1]))
    c = H.kl_basis(W.gens[0] * W.gens[1])
    enabled = gc.isenabled()
    gc.disable()
    try:
        h2 = Probe(dict(c.items()))
        ref = weakref.ref(h2)
        prod = H.mul(h1, h2)
        assert len(h2._tx) > 1
        del h2
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert prod == H.mul(h1, c)


def _shared_right_products(H, lefts, right):
    # 8 threads, each with its own seeded order of the left factors, all
    # multiply against one right factor that holds no cache yet
    barrier = threading.Barrier(8)
    results = [None] * 8

    def worker(k):
        order = random.Random(k).sample(range(len(lefts)), len(lefts))
        barrier.wait()
        results[k] = {i: H.mul(lefts[i], right) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def test_threads_share_the_chain_cache_of_one_right_factor():
    # threads that race on the chain cache a right factor keeps store equal
    # values: every product equals the single-threaded one, for a cellular
    # image and for a KL element as the shared right factor
    cs = CellularStructure(LowestCell(make(("A", 2, (1, 1, 1)))))
    H, W = cs.hecke, cs.weyl
    images = [cs.phi_image_basis(*t) for t in cs.basis_triples(7)]
    kls = [H.kl_basis(w) for w in W.enumerate_elements(5)]
    cases = [(images, images[len(images) // 2]), (kls, H.kl_basis(W.from_word(0, [1, 2, 1, 0])))]
    for lefts, right in cases:
        assert getattr(right, "_tx", None) is None
        copy = HeckeElt(dict(right.items()))
        expected = {i: H.mul(h1, copy) for i, h1 in enumerate(lefts)}
        for got in _shared_right_products(H, lefts, right):
            assert got == expected
        assert all(H.mul(h1, right) == expected[i] for i, h1 in enumerate(lefts))


def test_threads_share_the_image_entries_of_one_right_factor():
    # a cellular image on the right is multiplied through its module factor
    # u: 8 threads race to fill the chain cache u keeps, unlocked, with
    # image and KL left factors; every product equals the single-threaded
    # one of plain copies, and every kept entry is T_x . u on the module
    cs = CellularStructure(LowestCell(make(("C", 2, (2, 1, 1)))))
    H, W, lowest = cs.hecke, cs.weyl, cs.lowest
    lefts = [cs.phi_image_basis(*t) for t in cs.basis_triples(W.longest_finite.length() + 8)]
    lefts += [H.kl_basis(w) for w in W.enumerate_elements(4)]
    right = cs.phi_image_basis(*cs.basis_triples(W.longest_finite.length() + 3)[-1])
    u = right._factors[0]
    assert getattr(u, "_mx", None) is None
    copy = HeckeElt(dict(right.items()))
    expected = {i: H.mul(HeckeElt(dict(h1.items())), copy) for i, h1 in enumerate(lefts)}
    for got in _shared_right_products(H, lefts, right):
        assert got == expected
    plain_u = HeckeElt(dict(u.items()))
    assert len(u._mx) > 10
    assert all(tu == lowest.act(H.t(x), plain_u) for x, tu in u._mx.items())


def _image_factors(cfg, extra):
    """A fresh structure, and the module and right factor of its last image
    of length up to l(w_0) + extra."""
    cs = CellularStructure(LowestCell(make(cfg)))
    z, tau, zp = cs.basis_triples(cs.weyl.longest_finite.length() + extra)[-1]
    return cs, cs._module_factor(z, tau), cs._right_factor(zp)


def test_a_factored_product_steps_no_generator_until_its_terms_are_read(monkeypatch):
    # mul_factored records (u, r, lowest) and multiplies nothing; the first
    # read of its T-coordinates walks r's chain cache and gives the product
    # of plain copies, and a second read steps nothing
    cs, u, r = _image_factors(("C", 2, (2, 1, 1)), 4)
    H = cs.hecke
    steps = oracles.count_calls(monkeypatch, Hecke, "mul_gen")
    h = H.mul_factored(u, r, cs.lowest)
    assert h._factors == (u, r, cs.lowest)
    assert steps[0] == 0 and not oracles.terms_read(h) and getattr(r, "_tx", None) is None
    terms = h._d
    first = steps[0]
    assert first > 0 and oracles.terms_read(h) and len(r._tx) > 1
    assert h._d is terms and steps[0] == first
    assert h == H.mul(HeckeElt(dict(u.items())), HeckeElt(dict(r.items())))


def test_elements_made_from_a_factored_product_record_no_factors():
    # a generator step, a Pi relabel, flat, bar, sums, a module action and a
    # product with h on the left are plain elements: only mul_factored, and
    # mul with a factored right factor, record factors
    cs, u, r = _image_factors(("A", 2, (1, 1, 1)), 4)
    H, W = cs.hecke, cs.weyl
    h = H.mul_factored(u, r, cs.lowest)
    derived = [H.mul_gen(1, h), H.flat(h), H.bar(h), h + h, h - h, H.mul(h, H.unit()),
               cs.lowest.act(h, u)]
    derived += [H.mul_gen(~k, h) for k in range(1, W.ws.pi_order)]
    assert len(derived) == 9
    for x in derived:
        assert type(x) is HeckeElt and getattr(x, "_factors", None) is None
    assert H.mul(H.unit(), h)._factors[1] is r


def test_threads_fill_the_terms_of_one_factored_product():
    # 8 threads read the T-coordinates of one image that none has read:
    # each fills them, unlocked, on the right factor's shared chain cache,
    # and every thread sees the terms a fresh stack gives
    cfg = ("C", 2, (2, 1, 1))
    cs, fresh = (CellularStructure(LowestCell(make(cfg))) for _ in range(2))
    t = cs.basis_triples(cs.weyl.longest_finite.length() + 6)[-1]
    image = cs.phi_image_basis(*t)
    assert not oracles.terms_read(image)
    z, zp = (serialize.element_from_json(fresh.weyl, serialize.element_json(cs.weyl, x))
             for x in (t[0], t[2]))
    want = serialize.hecke_json(fresh.weyl, fresh.phi_image_basis(z, t[1], zp))
    barrier = threading.Barrier(8)
    seen = [None] * 8

    def worker(k):
        barrier.wait()
        seen[k] = dict(image.items())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(serialize.hecke_json(cs.weyl, HeckeElt(d)) == want for d in seen)


def test_bar_examples():
    H, W = HA2, HA2.weyl
    assert H.bar(H.unit()) == H.unit()
    s = W.gens[1]
    expected = H.t(s) - HeckeElt({W.identity: xi(1)})
    assert H.bar(H.t(s)) == expected
    # T_s bar(T_s) has the shape forced by inverting the quadratic relation
    assert H.mul(H.t(s), expected) == H.unit()


def test_bar_involution_random():
    H, W = HC2, HC2.weyl
    rng = random.Random(4)
    els = list(W.enumerate_elements(4))
    for _ in range(50):
        h = HeckeElt({rng.choice(els): LaurentPoly.q_power(rng.randint(-2, 2))}) + H.t(rng.choice(els))
        assert H.bar(H.bar(h)) == h


def test_flat():
    H, W = HA2, HA2.weyl
    rng = random.Random(5)
    els = list(W.enumerate_elements(4))
    for w in rng.sample(els, 20):
        assert H.flat(H.t(w)) == H.t(w.inverse())
    for w in rng.sample([w for w in els if w.length() <= 4], 12):
        assert H.flat(H.kl_basis(w)) == H.kl_basis(w.inverse())
    for _ in range(30):
        a, b = H.t(rng.choice(els)), H.t(rng.choice(els))
        assert H.flat(H.mul(a, b)) == H.mul(H.flat(b), H.flat(a))


def test_kl_basis_small():
    H, W = HA2, HA2.weyl
    assert H.kl_basis(W.identity) == H.unit()
    for i in range(3):
        s = W.gens[i]
        c = H.kl_basis(s)
        expected = H.t(s) + HeckeElt({W.identity: LaurentPoly.q_power(-H.ws.params[i])})
        assert c == expected
        assert H.bar(expected) == expected


def test_kl_w0_closed_form():
    for H in (HA2, HC2):
        ws, W = H.ws, H.weyl
        w0 = W.longest_finite
        lw0 = w0.weight_length()
        expected = HeckeElt({W.finite_element(u): LaurentPoly.q_power(
            W.finite_element(u).weight_length() - lw0) for u in range(ws.w0_size)})
        assert H.kl_basis(w0) == expected
        assert H.bar(expected) == expected


def test_kl_cache_is_shared_and_consistent():
    H, W = HA2, HA2.weyl
    w = W.gens[1] * W.gens[2]
    assert H.kl_basis(w) is H.kl_basis(w)


def test_h_constants():
    H, W = HA2, HA2.weyl
    rng = random.Random(6)
    els = [w for w in W.enumerate_elements(3)]
    for y in rng.sample(els, 10):
        assert oracles.h_constants(H, W.identity, y) == {y: LaurentPoly.one()}
    for _ in range(8):
        x, y = rng.choice(els), rng.choice(els)
        hc = oracles.h_constants(H, x, y)
        mirrored = oracles.h_constants(H, y.inverse(), x.inverse())
        assert {z.inverse(): c for z, c in hc.items()} == mirrored
        assert all(c.bar() == c for c in hc.values())


def test_f_constants():
    H, W = HA2, HA2.weyl
    rng = random.Random(7)
    els = list(W.enumerate_elements(4))
    s = W.gens[1]
    assert H.f_constants(s, s) == {W.identity: LaurentPoly.one(), s: xi(1)}
    for _ in range(100):
        x, y = rng.choice(els), rng.choice(els)
        f = H.f_constants(x, y)
        if (x * y).length() == x.length() + y.length():
            assert f[x * y] == LaurentPoly.one()
        assert f == oracles.f_constants_subsets(H, x, y)


def test_f_support_shape():
    # every z with f_{x,y,z} != 0 is z' y for some z' <= x
    H, W = HA2, HA2.weyl
    rng = random.Random(8)
    els = list(W.enumerate_elements(4))
    for _ in range(40):
        x, y = rng.choice(els), rng.choice(els)
        lower = W.bruhat_interval(x)
        for z in H.f_constants(x, y):
            assert z * y.inverse() in lower


# Every shipped weight system; degree_bound is checked on every pair of
# elements up to the length for its rank.
DEGREE_CONFIGS = [
    ("A", 1, (1, 1)),
    ("A", 1, (2, 1)),
    ("A", 2, (1, 1, 1)),
    ("A", 3, (1, 1, 1, 1)),
    ("C", 2, (1, 1, 1)),
    ("C", 2, (2, 1, 1)),
    ("C", 2, (3, 2, 1)),
]
DEGREE_BOUNDS = {1: 6, 2: 4, 3: 3}


def test_degree_data():
    # the closed form per root equals the hyperplane-set construction on
    # every pair, and bounds the degree of every structure constant
    for cfg in DEGREE_CONFIGS:
        H = make(cfg)
        els = list(H.weyl.enumerate_elements(DEGREE_BOUNDS[cfg[1]]))
        for x in els:
            assert H.degree_bound(H.weyl.identity, x) == 0, (cfg, x)
            for y in els:
                assert H.degree_bound(x, y) == oracles.degree_bound(H, x, y), (cfg, x, y)
    H, W = HA2, HA2.weyl
    rng = random.Random(9)
    els = list(W.enumerate_elements(5))
    for _ in range(100):
        x, y = rng.choice(els), rng.choice(els)
        c = H.degree_bound(x, y)
        for z, f in H.f_constants(x, y).items():
            assert f.degree() <= c


def test_degree_strict_for_box():
    # c_{x,vy} < L(w_0) - L(v) for x in the box and v != w_0
    H, W = HC2, HC2.weyl
    ws = H.ws
    lowest = LowestCell(H)
    rng = random.Random(10)
    x0inv = [y for y in W.enumerate_elements(3) if lowest.is_in_x0(y.inverse())]
    w0 = W.longest_finite
    for _ in range(60):
        x = rng.choice(lowest.box_elements())
        u = rng.randrange(ws.w0_size)
        y = W.finite_element(u) * rng.choice(x0inv)
        c = H.degree_bound(x, y)
        if W.finite_element(u) == w0:
            assert c == 0
        else:
            assert c < w0.weight_length() - W.finite_element(u).weight_length()


def test_t_times_c_scalar_action():
    # T_t C_v = q^{L(t)} C_v whenever t v < v
    H, W = HC2, HC2.weyl
    rng = random.Random(11)
    els = [w for w in W.enumerate_elements(4) if w.length() >= 1]
    done = 0
    while done < 15:
        v = rng.choice(els)
        for i in range(H.ws.num_gens):
            if W.gen_mul_left(i, v).length() < v.length():
                lhs = H.mul_gen(i, H.kl_basis(v))
                qL = LaurentPoly.q_power(H.ws.params[i])
                assert lhs == HeckeElt({w: qL * c for w, c in H.kl_basis(v).items()})
                done += 1
                break


def test_uniqueness_mechanism():
    # a bar-invariant element of H_{<0} must be zero: random
    # bar-symmetrizations never land in H_{<0} unless they vanish
    H, W = HA2, HA2.weyl
    rng = random.Random(12)
    els = list(W.enumerate_elements(3))
    for _ in range(40):
        h = HeckeElt({rng.choice(els): LaurentPoly.q_power(rng.randint(-3, 0))})
        sym = h + H.bar(h)
        if all(c.in_strictly_negative() for _, c in sym.items()):
            assert not sym


def test_kl_cache_concurrent_get_or_compute():
    # linearizable memo table: concurrent lookups agree and land in cache
    import threading
    H = make(("A", 2, (1, 1, 1)))
    W = H.weyl
    targets = [w for w in W.enumerate_elements(5)][-12:]
    results = [None] * 8
    def worker(k):
        results[k] = [H.kl_basis(w) for w in targets]
    threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for r in results[1:]:
        assert r == results[0]
    for w in targets:
        assert H.kl_basis(w) is H._kl_cache[w]


def test_cell_preorder_graph():
    H, W = HA2, HA2.weyl
    lowest = LowestCell(H)
    graph = oracles.cell_preorder_graph(H, 4)
    node_set = set(graph.nodes)
    rng = random.Random(13)
    # x w <=_L w whenever the product is length additive
    for _ in range(40):
        w = rng.choice(graph.nodes)
        x = rng.choice(graph.nodes)
        if (x * w).length() == x.length() + w.length() and (x * w) in node_set:
            assert graph.leq_left(x * w, w)
    # z <-_L omega z for omega in Pi
    for _ in range(20):
        z = rng.choice(graph.nodes)
        for pi in W.pi_elements:
            if pi * z in node_set:
                assert graph.leq_left(pi * z, z)
    # members of the lowest cell inside the bound sit below w_0 two-sidedly
    w0 = W.longest_finite
    for w in graph.nodes:
        if lowest.membership(w):
            assert graph.leq_two_sided(w, w0)


def test_cell_preorder_confirms_lowest_cell_both_ways():
    # on the truncated graph, reachability below w_0 is sound evidence of
    # cell membership (never used to refute): everything reachable must be
    # a member, and every member in range must be reachable
    H = make(("A", 2, (1, 1, 1)))
    W = H.weyl
    lowest = LowestCell(H)
    graph = oracles.cell_preorder_graph(H, 5)
    w0 = W.longest_finite
    both = {w: graph.left.get(w, set()) | graph.right.get(w, set()) for w in graph.nodes}
    reached = {w0}
    frontier = [w0]
    while frontier:
        nxt = []
        for w in frontier:
            for z in both[w]:
                if z not in reached:
                    reached.add(z)
                    nxt.append(z)
        frontier = nxt
    members = {w for w in graph.nodes if lowest.membership(w)}
    assert members == reached


def test_golden_kl_records():
    # byte-stable serialization against frozen golden data
    import json
    import pathlib
    from heckecell import serialize
    H = make(("A", 2, (1, 1, 1)))
    W = H.weyl
    golden = json.loads((pathlib.Path(__file__).parent / "golden_kl_a2.json").read_text())
    for label, rec in golden.items():
        w = serialize.element_from_json(W, rec["w"])
        assert serialize.element_json(W, w) == rec["w"]
        assert serialize.hecke_json(W, H.kl_basis(w)) == rec["C_w"]


# Unequal-parameter C_w records: per config, w0 p_lam for two antidominant
# lam and one dominant translation p_mu, all of length >= 12 (Pi is trivial
# in these three configs, so no element has a nonzero Pi part).
UNEQUAL_GOLDEN = (
    (("C", 2, (2, 1, 1)), ((0, -2), (-2, -1)), (4, 0)),
    (("C", 2, (3, 2, 1)), ((0, -2), (-2, -1)), (4, 0)),
    (("A", 1, (2, 1)), ((-12,), (-16,)), (12,)),
)


def unequal_golden_text():
    """The text of golden_kl_unequal.json as the current kl_basis writes it:
    golden_kl_a2.json's record format plus the config, one record per line."""
    import json
    from heckecell import serialize
    records = {}
    for cfg, antidominant, dominant in UNEQUAL_GOLDEN:
        H = make(cfg)
        W = H.weyl
        name = f"{cfg[0]}{cfg[1]}-{','.join(map(str, cfg[2]))}"
        elements = {f"w0_p({','.join(map(str, lam))})": W.longest_finite * W.translation(lam)
                    for lam in antidominant}
        elements[f"p({','.join(map(str, dominant))})"] = W.translation(dominant)
        for label, w in elements.items():
            records[f"{name} {label}"] = {
                "cfg": [cfg[0], cfg[1], list(cfg[2])],
                "w": serialize.element_json(W, w),
                "C_w": serialize.hecke_json(W, H.kl_basis(w)),
            }
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, separators=(',', ':'))}"
             for k, v in sorted(records.items())]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_golden_kl_unequal_records():
    # byte for byte against records frozen from the bar-matrix engine
    import pathlib
    path = pathlib.Path(__file__).parent / "golden_kl_unequal.json"
    assert unequal_golden_text() == path.read_text()


def test_long_elements_need_no_recursion():
    # bruhat_leq, bar_t, kl_basis and relative_kl walk a reduced word of any
    # length within a few frames of their caller, so long elements stay far
    # from the limit; a KL link that needs a lower element not yet built
    # builds it on the chain walker's stack instead of calling itself
    H = make(("A", 1, (1, 1)))
    W = H.weyl
    y = W.from_word(0, (0, 1) * 1000)
    x = W.from_word(0, (0, 1) * 40)
    w = W.from_word(0, (1, 0) * 75)
    H2 = make(("A", 2, (1, 1, 1)))
    L2 = LowestCell(H2)
    W2 = H2.weyl
    w2 = W2.longest_finite * W2.translation((-8, -8))
    p2 = W2.translation((8, 8))
    depth = len(inspect.stack(0))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        assert W.bruhat_leq(W.identity, y) and W.bruhat_leq(x, y)
        assert not W.bruhat_leq(y, x)
        bar = H.bar_t(w)
        cw = H.kl_basis(w)
        cw2 = H2.kl_basis(w2)
        rel = L2.relative_kl(p2)
    finally:
        sys.setrecursionlimit(old)
    # Q_tau = P(omega)^60 C_{w_0} in A1 is built factor by factor in a loop,
    # once for its KL coordinates and once, on a structure of its own, for
    # its image in the algebra
    cs, cs2 = (CellularStructure(LowestCell(make(("A", 1, (1, 1))))) for _ in range(2))
    e = cs2.weyl.identity
    sys.setrecursionlimit(depth + 40)
    try:
        prof = cs.decompose_P_tau((60,))
        img = cs2.phi_image_basis(e, (60,), e)
    finally:
        sys.setrecursionlimit(old)
    assert prof == paths.full_profile(cs.ws, paths.PathType((1,) * 60))
    assert img.coeff(cs2.weyl.translation((60,)) * cs2.weyl.longest_finite) == LaurentPoly.one()
    assert y.length() == 2000 and w.length() == 150
    assert w2.length() == 35 and p2.length() == 32
    # bar(T_w) is supported on [e, w] and leads with T_w
    assert {v for v, _ in bar.items()} == W.bruhat_interval(w)
    assert bar.coeff(w) == LaurentPoly.one()
    # in A1 every y <= w has p_{y,w} = q^(l(y) - l(w))
    assert cw == HeckeElt({v: LaurentPoly.q_power(v.length() - 150) for v in W.bruhat_interval(w)})
    assert cw2.coeff(w2) == LaurentPoly.one()
    assert all(c.in_strictly_negative() for v, c in cw2.items() if v != w2)
    assert rel and all(c.in_strictly_negative() and L2.is_in_x0(v) for v, c in rel.items())


def test_elements_of_another_group_raise():
    # a second Weyl of the same type mints elements equal in normal form but
    # foreign to the first algebra: every entry point refuses them by name,
    # and the caches of the first algebra stay as they were
    H = make(("A", 2, (1, 1, 1)))
    W1, W2 = H.weyl, Weyl(WeightSystem("A", 2, (1, 1, 1)))
    lowest = LowestCell(H)
    cs = CellularStructure(lowest)
    x = W2.from_word(0, [1, 2, 1])
    # a right factor that already keeps a chain cache, and a foreign one
    kept = H.kl_basis(W1.gens[1])
    H.mul(H.t(W1.gens[2]), kept)
    kept_before = dict(kept._tx)
    foreign = H.t(W2.gens[1])
    before = (dict(H._kl_cache), dict(H._bar_cache))
    steps_before = {w: dict(w._gl) for w in W2._intern.values()}
    calls = [
        lambda: H.mul_gen(1, H.t(W2.gens[2])),
        lambda: W1.gen_mul_left(1, W2.gens[2]),
        lambda: W1.gen_mul_left(~1, x),
        lambda: W1.bruhat_leq(W2.identity, W1.gens[1]),
        lambda: W1.bruhat_leq(W1.identity, W2.gens[1]),
        lambda: H.kl_basis(x),
        lambda: H.kl_basis(W2.gens[0]),
        lambda: H.bar_t(x),
        lambda: H.mul(H.t(W1.gens[1]), H.t(W2.gens[1])),
        lambda: H.mul(H.t(W2.gens[1]), H.t(W1.gens[1])),
        lambda: H.mul(H.t(W2.gens[1]), kept),
        lambda: H.mul(H.t(W1.gens[1]) + H.t(W2.gens[2]), kept),
        lambda: H.mul(H.t(W1.gens[1]), foreign),
        lambda: H.mul(H.t(W1.gens[1]), foreign),
        lambda: lowest.act(H.t(W1.gens[1]), H.t(W2.identity)),
        lambda: lowest.act(H.t(W2.gens[1]), H.t(W1.identity)),
        lambda: cs.phi_image_basis(W2.identity, (0, 0), W1.identity),
        lambda: cs.phi_image_basis(W1.identity, (0, 0), W2.identity),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="different weight systems"):
            call()
    assert (H._kl_cache, H._bar_cache) == before
    assert all(w.weyl is W1 for w in H._kl_cache)
    # no foreign key entered the kept cache, and none was kept on `foreign`
    assert all(w.weyl is W1 for w in kept._tx) and kept._tx.keys() >= kept_before.keys()
    assert getattr(foreign, "_tx", None) is None
    # no left step of the second group was minted or cached by the first
    assert {w: dict(w._gl) for w in W2._intern.values()} == steps_before
    assert W2.gen_mul_left(1, W2.gens[2]).weyl is W2
    # elements of the algebra's own group still work
    assert H.kl_basis(W1.from_word(0, [1, 2, 1])).coeff(W1.identity) == LaurentPoly.q_power(-3)
