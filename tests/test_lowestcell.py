import random
import sys
import threading

import pytest

import oracles
from heckecell.cellular import CellularStructure
from heckecell.hecke import Hecke, HeckeElt
from heckecell.laurent import LaurentPoly, add_scaled
from heckecell.lowestcell import LowestCell, NotInLowestCell
from heckecell.rootdata import WeightSystem
from heckecell.weyl import Weyl


def make(cfg):
    return LowestCell(Hecke(Weyl(WeightSystem(*cfg))))


LA2 = make(("A", 2, (1, 1, 1)))
LC2 = make(("C", 2, (2, 1, 1)))
LC2E = make(("C", 2, (1, 1, 1)))
LA1 = make(("A", 1, (1, 1)))


def test_box_sizes():
    # rank 1, equal parameters: the box is the fundamental alcove
    assert len(LA1.box_elements()) == 2 == LA1.ws.pi_order * 1
    # A2: |Pi| x (two alcoves in the unit box)
    assert len(LA2.box_elements()) == 3 * 2
    # the b-box widens when a > c: more raw alcoves, same extended count
    raw_a = len(LC2.box_elements()) // LC2.ws.pi_order
    raw_e = len(LC2E.box_elements()) // LC2E.ws.pi_order
    assert raw_a == 8 > raw_e == 4
    for lc in (LA2, LC2, LC2E, LA1):
        assert len(lc.box_elements()) == lc.ws.w0_size


def test_box_membership_flag():
    for z in LA2.box_elements():
        assert LA2.in_box(z)
    assert not LA2.in_box(LA2.weyl.longest_finite)


def test_x0_membership():
    weyl = LA2.weyl
    assert LA2.is_in_x0(weyl.identity)
    for k in (1, 2):
        assert not LA2.is_in_x0(weyl.gens[k])
    for z in LA2.box_elements():
        assert LA2.is_in_x0(z)


def test_elements_of_another_group_keep_their_alcoves():
    # every entry point refuses C2 translations with ValueError and writes
    # nothing on them, so they keep their lengths after an A2 cell has
    # been asked about them
    lowest = make(("A", 2, (1, 1, 1)))
    W2 = Weyl(WeightSystem("C", 2, (2, 1, 1)))
    x, z, w = (W2.translation(lam) for lam in ((2, 2), (0, 1), (4, 2)))
    for call, g in ((lowest.in_box, x), (lowest.is_in_x0, z),
                    (lowest.membership, w), (lowest.factorize, w)):
        with pytest.raises(ValueError, match="different weight systems"):
            call(g)
    with pytest.raises(ValueError):
        lowest.p_element(w)
    assert [g.length() for g in (x, z, w)] == [14, 4, 20]
    assert lowest._factor_cache == {}


def test_box_and_x0_tests_refuse_elements_of_another_group():
    # the shifts of a C2 element read against the A2 b and rank gave an
    # answer (in_box(p_(2,2)) False, is_in_x0(p_(0,1)) True); every C2
    # element now raises
    lowest = make(("A", 2, (1, 1, 1)))
    W2 = Weyl(WeightSystem("C", 2, (2, 1, 1)))
    for g in W2.enumerate_elements(4):
        for call in (lowest.in_box, lowest.is_in_x0):
            with pytest.raises(ValueError, match="different weight systems"):
                call(g)


def test_membership_examples():
    weyl = LA2.weyl
    w0 = weyl.longest_finite
    assert LA2.membership(w0)
    assert not LA2.membership(weyl.identity)
    rng = random.Random(1)
    b0 = LA2.box_elements()
    for _ in range(20):
        z, zp = rng.choice(b0), rng.choice(b0)
        tau = (rng.randint(0, 2), rng.randint(0, 2))
        assert LA2.membership(LA2.assemble(z, tau, zp))


def test_factorize_examples():
    weyl = LA2.weyl
    w0 = weyl.longest_finite
    f = LA2.factorize(w0)
    assert (f.z, f.tau, f.zprime) == (weyl.identity, (0, 0), weyl.identity)
    f = LA2.factorize(weyl.translation((1, 0)) * w0)
    assert (f.z, f.tau, f.zprime) == (weyl.identity, (1, 0), weyl.identity)
    # a named tuple: equal to, and hashed as, the plain triple
    assert f == (weyl.identity, (1, 0), weyl.identity)
    assert hash(f) == hash((weyl.identity, (1, 0), weyl.identity))
    with pytest.raises(NotInLowestCell):
        LA2.factorize(weyl.identity)


def test_factorize_roundtrip_bounded():
    for lc in (LA2, LC2):
        w0 = lc.weyl.longest_finite
        for w in lc.cell_elements(w0.length() + 3):
            f = lc.factorize(w)
            assert lc.assemble(f.z, f.tau, f.zprime) == w
            assert (f.z.length() + lc.weyl.translation(f.tau).length()
                    + w0.length() + f.zprime.length()) == w.length()
    # beyond the walls: random triples with tau up to four fundamental
    # weights deep, so x = z p_tau sits far out in the dominant chamber
    rng = random.Random(17)
    for cfg in (("A", 3, (1, 1, 1, 1)), ("C", 2, (3, 2, 1)), ("A", 1, (2, 1))):
        lc = make(cfg)
        ws, w0 = lc.ws, lc.weyl.longest_finite
        b0 = lc.box_elements()
        for _ in range(20):
            omegas = [rng.choice(ws.fundamental_weights) for _ in range(rng.randrange(5))]
            tau = tuple(sum(col) for col in zip((0,) * ws.rank, *omegas))
            t = (rng.choice(b0), tau, rng.choice(b0))
            w = lc.assemble(*t)
            assert lc.factorize(w) == t, (cfg, t)
            assert (t[0].length() + lc.weyl.translation(tau).length()
                    + w0.length() + t[2].length()) == w.length(), (cfg, t)


def _count_multiplies(monkeypatch):
    calls = [0]
    orig = Weyl.multiply

    def counted(self, a, b):
        calls[0] += 1
        return orig(self, a, b)

    monkeypatch.setattr(Weyl, "multiply", counted)
    return calls


@pytest.mark.parametrize("cfg", [("A", 2, (1, 1, 1)), ("A", 3, (1, 1, 1, 1)),
                                 ("C", 2, (1, 1, 1)), ("C", 2, (3, 2, 1))],
                         ids=["A2", "A3", "C2-1,1,1", "C2-3,2,1"])
def test_factorization_is_memoized_per_element(monkeypatch, cfg):
    # the first factorize or membership of w checks the one z' that the
    # chamber of its alcove names; every later call for w reads the kept
    # result: no group multiply, the same CellFactorization object, and
    # NotInLowestCell again for a non-member
    lc = make(cfg)
    weyl, w0 = lc.weyl, lc.weyl.longest_finite
    members = [lc.assemble(z, (0,) * lc.ws.rank, zp)
               for z in lc.box_elements()[:3] for zp in lc.box_elements()[-3:]]
    outsiders = [weyl.identity, *weyl.gens, weyl.gens[1] * w0]
    first = {w: lc.factorize(w) for w in members}
    for w in outsiders:
        with pytest.raises(NotInLowestCell):
            lc.factorize(w)
    calls = _count_multiplies(monkeypatch)
    for _ in range(2):
        for w in members:
            assert lc.factorize(w) is first[w]
            assert lc.membership(w)
        for w in outsiders:
            with pytest.raises(NotInLowestCell):
                lc.factorize(w)
            assert not lc.membership(w)
    assert calls[0] == 0
    omega = lc.ws.fundamental_weights[0]
    fresh = weyl.translation(omega) * w0
    checked = calls[0]
    assert lc.membership(fresh)
    assert calls[0] > checked
    checked = calls[0]
    assert lc.factorize(fresh) is lc.factorize(fresh) == (weyl.identity, omega, weyl.identity)
    assert calls[0] == checked


# Every shipped weight system, with the length up to which the closed form
# is compared with the scan of z' over B_0 on every element
FACTOR_ORACLE_CASES = [
    (("A", 1, (1, 1)), 16),
    (("A", 1, (2, 1)), 16),
    (("A", 2, (1, 1, 1)), 10),
    (("A", 3, (1, 1, 1, 1)), 8),
    (("C", 2, (1, 1, 1)), 12),
    (("C", 2, (2, 1, 1)), 12),
    (("C", 2, (3, 2, 1)), 12),
]


@pytest.mark.parametrize(
    "cfg,bound", FACTOR_ORACLE_CASES,
    ids=[f"{t}{n}-{','.join(map(str, p))}" for (t, n, p), _ in FACTOR_ORACLE_CASES],
)
def test_factorization_matches_the_b0_scan(cfg, bound):
    # the z' read off the chamber of the alcove is the only one the scan
    # over all of B_0 finds, members and non-members alike: the scan finds
    # at most one, so the factorization is unique to this bound
    lc = make(cfg)
    els = list(lc.weyl.enumerate_elements(bound))
    members = []
    for w in els:
        scan = oracles.factorizations(lc, w)
        assert len(scan) <= 1, (cfg, w, scan)
        assert lc._factor(w) == (scan[0] if scan else None), (cfg, w)
        members += [w] if scan else []
    assert 0 < len(members) < len(els), cfg
    # z p_tau w_0 z'^-1 is length-additive on every triple within the
    # budget of basis_triples, so it keeps them all, and they reassemble to
    # exactly the members up to the bound, in the same order
    w0len = lc.weyl.longest_finite.length()
    triples = CellularStructure(lc).basis_triples(bound)
    for z, tau, zp in triples:
        assert lc.assemble(z, tau, zp).length() == (
            z.length() + lc.weyl.translation(tau).length() + w0len + zp.length()), (cfg, z, tau, zp)
    assert [lc.assemble(*t) for t in triples] == members, cfg


def descend_to_lowest(lowest, z):
    """The longest element w_0 . y of the coset W_0 z (y minimal in it)."""
    return lowest.weyl.longest_finite * oracles.right_coset_part(lowest, z)[0]


def test_descend_to_lowest():
    weyl = LA2.weyl
    w0 = weyl.longest_finite
    assert descend_to_lowest(LA2, weyl.identity) == w0
    rng = random.Random(2)
    for z in rng.sample(list(weyl.enumerate_elements(4)), 20):
        out = descend_to_lowest(LA2, z)
        assert LA2.membership(out)
        # the output is w_0 . z with additive lengths
        assert out == descend_to_lowest(LA2, out)
        assert (out * z.inverse()).length() == out.length() - z.length()


def test_relative_kl_shape():
    weyl = LA2.weyl
    assert LA2.p_element(weyl.identity) == LA2.hecke.unit()
    for z in LA2.box_elements():
        pol = LA2.relative_kl(z)
        assert all(c.in_strictly_negative() for c in pol.values())
        assert all(LA2.is_in_x0(x) for x in pol)
        assert all(weyl.bruhat_leq(x, z) for x in pol)


def test_relative_kl_rejects_non_representatives():
    with pytest.raises(ValueError):
        LA2.relative_kl(LA2.weyl.gens[1])


def test_p_z_multiplies_to_kl():
    hecke, weyl = LA2.hecke, LA2.weyl
    w0 = weyl.longest_finite
    for z in LA2.box_elements():
        assert hecke.mul(LA2.p_element(z), hecke.kl_basis(w0)) == hecke.kl_basis(z * w0)


# Every shipped weight system, with the length up to which P(x) C_{w_0} =
# C_{x w_0} is checked on all of X_0.
P_TIMES_C_W0_BOUNDS = [
    (("A", 1, (1, 1)), 12),
    (("A", 1, (2, 1)), 12),
    (("A", 2, (1, 1, 1)), 7),
    (("A", 3, (1, 1, 1, 1)), 4),
    (("C", 2, (1, 1, 1)), 8),
    (("C", 2, (2, 1, 1)), 8),
    (("C", 2, (3, 2, 1)), 8),
]


def test_p_times_c_w0_is_the_kl_element_on_x0():
    # the identity decompose_P_omega runs on: the X_0 module element P(x)
    # stands for C_{x w_0}, for every x in X_0, not only the box
    for cfg, bound in P_TIMES_C_W0_BOUNDS:
        lowest = make(cfg)
        hecke, weyl = lowest.hecke, lowest.weyl
        w0 = weyl.longest_finite
        c_w0 = hecke.kl_basis(w0)
        xs = [x for x in weyl.enumerate_elements(bound) if lowest.is_in_x0(x)]
        assert len(xs) > len(lowest.box_elements()), cfg
        for x in xs:
            assert hecke.mul(lowest._p_from(x), c_w0) == hecke.kl_basis(x * w0), (cfg, x)


def test_y_independence_in_the_algebra():
    # the same correction family makes T_x C_{w_0 y} bar-invariant for
    # every y in the inverse box
    hecke, weyl = LC2.hecke, LC2.weyl
    w0 = weyl.longest_finite
    rng = random.Random(3)
    zs = rng.sample(list(LC2.box_elements()), 3)
    ys = [zp.inverse() for zp in rng.sample(list(LC2.box_elements()), 2)]
    for z in zs:
        fam = LC2.relative_kl(z)
        for y in ys:
            base = hecke.kl_basis(w0 * y)
            d = dict(hecke.mul(hecke.t(z), base).items())
            for x, c in fam.items():
                add_scaled(d, c, hecke.mul(hecke.t(x), base).items())
            elt = HeckeElt(d)
            assert hecke.bar(elt) == elt


def test_p_omega():
    hecke, weyl = LA2.hecke, LA2.weyl
    w0 = weyl.longest_finite
    for fw in LA2.ws.fundamental_weights:
        p = LA2.p_element_omega(fw)
        for zp in LA2.box_elements():
            y = zp.inverse()
            assert hecke.mul(p, hecke.kl_basis(w0 * y)) == hecke.kl_basis(
                weyl.translation(fw) * w0 * y)
    with pytest.raises(ValueError):
        LA2.p_element_omega((2, 0))


def test_p_tau():
    hecke = LA2.hecke
    assert LA2.p_element_tau((0, 0)) == hecke.unit()
    assert LA2.p_element_tau((1, 0)) == LA2.p_element_omega((1, 0))
    with pytest.raises(ValueError):
        LA2.p_element_tau((-1, 0))


def test_p_omega_commute_on_c_w0():
    for lc in (LA2, LC2):
        hecke, weyl, ws = lc.hecke, lc.weyl, lc.ws
        cw0 = hecke.kl_basis(weyl.longest_finite)
        ps = [lc.p_element_omega(fw) for fw in ws.fundamental_weights]
        for i in range(len(ps)):
            for j in range(len(ps)):
                lhs = hecke.mul(ps[i], hecke.mul(ps[j], cw0))
                rhs = hecke.mul(ps[j], hecke.mul(ps[i], cw0))
                assert lhs == rhs


def test_nu_compatibility():
    # P(omega) C_{w_0} = C_{w_0} P_R(-nu(omega))
    for lc in (LA2, LC2):
        hecke, weyl, ws = lc.hecke, lc.weyl, lc.ws
        cw0 = hecke.kl_basis(weyl.longest_finite)
        for fw in ws.fundamental_weights:
            lhs = hecke.mul(lc.p_element_omega(fw), cw0)
            pr = hecke.flat(lc.p_element_omega(ws.nu(fw)))
            assert lhs == hecke.mul(cw0, pr)


def test_flat_p_equals_right_handed_p():
    # the right-handed relative KL module reproduces flat(P(z))
    for lc in (LA2, LC2):
        hecke = lc.hecke
        for z in lc.box_elements():
            assert hecke.flat(lc.p_element(z)) == oracles.p_element_right(lc, z.inverse())


def test_right_p_multiplication():
    hecke, weyl = LA2.hecke, LA2.weyl
    w0 = weyl.longest_finite
    for z in LA2.box_elements()[:4]:
        for zp in LA2.box_elements()[:4]:
            y = zp.inverse()
            lhs = hecke.mul(hecke.kl_basis(z * w0), oracles.p_element_right(LA2, y))
            assert lhs == hecke.kl_basis(z * w0 * y)


def in_n_y(lowest, w, y) -> bool:
    """w in N_y = {x . w_0 . y : x in X_0}."""
    w0 = lowest.weyl.longest_finite
    u = w * y.inverse()
    if u.length() != w.length() - y.length():
        return False
    x = u * w0
    return x.length() == u.length() - w0.length() and lowest.is_in_x0(x)


def in_m_plus(lowest, w) -> bool:
    """w = p_tau . w_0 with tau dominant."""
    ws = lowest.ws
    w0 = lowest.weyl.longest_finite
    if w.finite != w0.finite:
        return False
    tau = ws.act(w.translation, ws.w0_inv[w0.finite])
    return ws.in_lattice(tau) and ws.is_dominant(tau)


def outside(lowest, h, member) -> set:
    """The KL indices of h that fail member: h lies in the span of the C_w
    with member(w) exactly when this is empty."""
    return {w for w in lowest.hecke.kl_expand(h) if not member(w)}


def test_ideal_membership():
    hecke, weyl = LA2.hecke, LA2.weyl
    w0 = weyl.longest_finite
    m_plus = lambda w: in_m_plus(LA2, w)
    assert hecke.kl_expand(hecke.kl_basis(w0)) == {w0: LaurentPoly.one()} and m_plus(w0)
    # products C_{w_0 z^-1} C_{z' w_0} land in M_plus
    rng = random.Random(4)
    for _ in range(6):
        z = rng.choice(LA2.box_elements())
        zp = rng.choice(LA2.box_elements())
        prod = hecke.mul(hecke.kl_basis(w0 * z.inverse()), hecke.kl_basis(zp * w0))
        assert not outside(LA2, prod, m_plus)
    # T_s C_{x w_0 y} stays in M_y
    for _ in range(6):
        zp = rng.choice(LA2.box_elements())
        y = zp.inverse()
        x = rng.choice(LA2.box_elements())
        h = hecke.mul_gen(rng.randrange(3), hecke.kl_basis(x * w0 * y))
        assert not outside(LA2, h, lambda w: in_n_y(LA2, w, y))
    # and in M^R_z on the other side
    for _ in range(4):
        z = rng.choice(LA2.box_elements())
        h = hecke.mul(hecke.kl_basis(z * w0), hecke.t(weyl.gens[rng.randrange(3)]))
        # N^R_z = {z . w_0 . x : x in X_0^-1} is the inverse of N_{z^-1}
        assert not outside(LA2, h, lambda w: in_n_y(LA2, w.inverse(), z.inverse()))


def test_ideal_membership_negative():
    hecke, weyl = LA2.hecke, LA2.weyl
    e = weyl.identity
    assert outside(LA2, hecke.unit(), LA2.membership) == {e}
    # C_{w_0} is in M_plus, T_e = C_e is not
    w0, one = weyl.longest_finite, LaurentPoly.one()
    mixed = hecke.kl_basis(w0) + hecke.unit()
    assert hecke.kl_expand(mixed) == {w0: one, e: one}
    assert outside(LA2, mixed, lambda w: in_m_plus(LA2, w)) == {e}


def test_n_y_two_descriptions_agree():
    # {x w_0 y : x in X_0} equals {z p_tau w_0 y : z in B_0, tau dominant}
    # inside a length bound
    weyl = LA2.weyl
    w0 = weyl.longest_finite
    bound = w0.length() + 4
    for zp in LA2.box_elements()[:3]:
        y = zp.inverse()
        via_x0 = {w for w in weyl.enumerate_elements(bound) if in_n_y(LA2, w, y)}
        via_box = set()
        for z in LA2.box_elements():
            for t1 in range(4):
                for t2 in range(4):
                    w = LA2.assemble(z, (t1, t2), zp)
                    if w.length() <= bound:
                        via_box.add(w)
        assert via_x0 == via_box


def test_ptau_unitriangular_over_kl():
    # {P(tau) C_{w_0}} is unitriangular over {C_{p_tau w_0}}
    hecke, weyl = LA2.hecke, LA2.weyl
    w0 = weyl.longest_finite
    for tau in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]:
        h = hecke.mul(LA2.p_element_tau(tau), hecke.kl_basis(w0))
        coords = hecke.kl_expand(h)
        top = weyl.translation(tau) * w0
        assert coords[top] == LaurentPoly.one()
        for w in coords:
            assert weyl.bruhat_leq(w, top)


def _decompose(cs, call):
    return cs.decompose_P_tau(call[1]) if call[0] == "tau" else cs.decompose_P_omega(*call[1:])


def test_threads_share_the_module_caches_of_one_structure():
    # decompose_P_omega and decompose_P_tau act on module elements the
    # structure keeps (the P(x), the Q_tau), whose chain caches _mx are
    # written without a lock: 8 threads run the same calls, each in its own
    # seeded order, on one shared structure; every result equals that of a
    # fresh stack, and every kept entry is T_x . m on the module
    cfg = ("A", 2, (1, 1, 1))
    shared = CellularStructure(make(cfg))
    taus = shared.dominant_weights_up_to(8)
    calls = [("tau", tau) for tau in taus] + [
        ("omega", fw, tuple(-a for a in tau)) for tau in taus for fw in shared.ws.fundamental_weights]
    fresh = CellularStructure(make(cfg))
    expected = {i: _decompose(fresh, call) for i, call in enumerate(calls)}
    barrier = threading.Barrier(8)
    results = [None] * 8

    def worker(k):
        order = random.Random(k).sample(range(len(calls)), len(calls))
        barrier.wait()
        results[k] = {i: _decompose(shared, calls[i]) for i in order}

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
    assert all(got == expected for got in results)
    lowest = shared.lowest
    kept = [m for m in list(lowest._p_cache.values()) + list(shared._q_cache.values())
            if getattr(m, "_mx", None) is not None]
    assert len(kept) > 2
    for m in kept:
        plain = HeckeElt(dict(m.items()))
        assert all(tx == lowest.act(lowest.hecke.t(x), plain) for x, tx in m._mx.items())
