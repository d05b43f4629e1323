import gc
import random
import weakref

import pytest

import oracles
from heckecell import serialize
from heckecell.cellular import CellularElt, CellularStructure, MonoidAlgebraElt
from heckecell.hecke import Hecke, HeckeElt
from heckecell.laurent import LaurentPoly, add_scaled
from heckecell.lowestcell import LowestCell, NotInLowestCell
from heckecell.rootdata import WeightSystem
from heckecell.weyl import Weyl


def make(cfg):
    return CellularStructure(LowestCell(Hecke(Weyl(WeightSystem(*cfg)))))


CA2 = make(("A", 2, (1, 1, 1)))
CA1 = make(("A", 1, (1, 1)))
CC2 = make(("C", 2, (2, 1, 1)))


def test_monoid_algebra():
    one = LaurentPoly.one()
    a = MonoidAlgebraElt({(1, 0): one})
    b = MonoidAlgebraElt({(0, 1): one, (1, 0): LaurentPoly.q_power(1)})
    assert a.coeff((1, 0)) == one and not a.coeff((0, 1))
    assert b.coeff((1, 0)) == LaurentPoly.q_power(1) and len(b) == 2
    # one sparse type underneath, but elements of different algebras never compare equal
    assert MonoidAlgebraElt() != CellularElt() and HeckeElt() != CellularElt()


def test_phi_rank1():
    # C_s C_s = (q + q^-1) C_s, a two-line Hecke computation
    hecke, weyl = CA1.hecke, CA1.weyl
    w0 = weyl.longest_finite
    direct = hecke.mul(hecke.kl_basis(w0), hecke.kl_basis(w0))
    qq = LaurentPoly({1: 1, -1: 1})
    assert direct == HeckeElt({w: qq * c for w, c in hecke.kl_basis(w0).items()})
    f = CA1.phi_form(weyl.identity, weyl.identity)
    assert f == MonoidAlgebraElt({(0,): qq})


def test_phi_coefficients_bar_invariant():
    rng = random.Random(0)
    for cs in (CA2, CC2):
        b0 = cs.lowest.box_elements()
        for _ in range(5):
            z, zp = rng.choice(b0), rng.choice(b0)
            for _, c in cs.phi_form(z, zp).items():
                assert c.bar() == c


def test_phi_reconstructs_product():
    # the phi coefficients reassemble C_{w_0 z^-1} C_{z' w_0} exactly, in
    # particular the (e, e) entry matches an independent expansion of
    # C_{w_0}^2 in the T-basis; phi_form peels against the Q_tau on the X_0
    # module, so the sum is rebuilt here from P(tau) C_{w_0} in the algebra,
    # at equal and unequal parameters
    for cs in (CA2, CC2):
        hecke, weyl = cs.hecke, cs.weyl
        w0 = weyl.longest_finite
        rng = random.Random(1)
        b0 = cs.lowest.box_elements()
        pairs = [(weyl.identity, weyl.identity)] + [
            (rng.choice(b0), rng.choice(b0)) for _ in range(4)
        ]
        for z, zp in pairs:
            direct = hecke.mul(hecke.kl_basis(w0 * z.inverse()), hecke.kl_basis(zp * w0))
            acc = {}
            for tau, c in cs.phi_form(z, zp).items():
                add_scaled(acc, c, hecke.mul(cs.lowest.p_element_tau(tau), hecke.kl_basis(w0)).items())
            assert HeckeElt(acc) == direct


def test_phi_form_runs_on_the_coset_module():
    # phi_form stays on the X_0 module: no product in the whole algebra
    # (Hecke.mul) and no C_w built but C_{w_0}, which acts on the module;
    # the forms, filled column by column, equal those of a fresh structure
    # filled row by row
    cfg = ("C", 2, (3, 2, 1))
    cols, rows = make(cfg), make(cfg)
    hecke, weyl = cols.hecke, cols.weyl
    b0 = cols.lowest.box_elements()
    calls = []
    for name in ("mul", "kl_basis"):
        f = getattr(hecke, name)
        setattr(hecke, name, lambda *args, _name=name, _f=f: calls.append((_name, args)) or _f(*args))
    by_column = {(z, zp): cols.phi_form(z, zp) for zp in b0 for z in b0}
    assert {name for name, _ in calls} == {"kl_basis"}
    assert {args for _, args in calls} == {(weyl.longest_finite,)}
    # C_{w_0} acts once per module basis element, however many pairs meet it
    assert len(calls) == len(cols._w0_on) < len(by_column), (len(calls), len(by_column))
    pairs = list(zip(b0, rows.lowest.box_elements()))
    assert all(rows.phi_form(r, rp) == by_column[z, zp] for z, r in pairs for zp, rp in pairs)


# every box pair (None), or a seeded sample of that many pairs
PHI_ORACLE_CASES = [
    (("A", 1, (1, 1)), None),
    (("A", 1, (2, 1)), None),
    (("A", 2, (1, 1, 1)), None),
    (("C", 2, (1, 1, 1)), None),
    (("C", 2, (2, 1, 1)), None),
    (("C", 2, (3, 2, 1)), None),
    (("A", 3, (1, 1, 1, 1)), 24),
]


@pytest.mark.parametrize(
    "cfg,sample", PHI_ORACLE_CASES,
    ids=[f"{t}{n}-{','.join(map(str, p))}" for (t, n, p), _ in PHI_ORACLE_CASES],
)
def test_phi_form_matches_the_whole_algebra(cfg, sample):
    # the X_0 module route equals the product C_{w_0 z^-1} C_{z' w_0} of the
    # whole algebra peeled against the products P(tau) C_{w_0}, on a
    # structure of its own so no cache is shared
    cs, ref = make(cfg), make(cfg)
    b0, r0 = cs.lowest.box_elements(), ref.lowest.box_elements()
    pairs = [(i, j) for i in range(len(b0)) for j in range(len(b0))]
    if sample is not None:
        pairs = random.Random(9).sample(pairs, sample)
    for i, j in pairs:
        assert dict(cs.phi_form(b0[i], b0[j]).items()) == oracles.phi_form(ref, r0[i], r0[j]), (i, j)


def test_cellular_mul_support_shape():
    # the product support is driven entirely by the middle phi factor
    rng = random.Random(2)
    b0 = CA2.lowest.box_elements()
    for _ in range(6):
        zi, zj, zk, zl = (rng.choice(b0) for _ in range(4))
        a = CellularElt.basis(zi, (1, 0), zj)
        b = CellularElt.basis(zk, (0, 1), zl)
        prod = CA2.cellular_mul(a, b)
        phi = CA2.phi_form(zj, zk)
        expected = {
            (zi, tuple(x + y for x, y in zip((1, 0), tuple(s + t for s, t in zip(sigma, (0, 1))))), zl)
            for sigma, _ in phi.items()
        }
        assert {k for k, _ in prod.items()} == expected
    # the zero element annihilates
    assert not CA2.cellular_mul(a, CellularElt())


def test_cellular_mul_matrix_form():
    # 2x2 generalized-matrix check: M1 . M2 = M1 Psi M2 over B
    rng = random.Random(3)
    b0 = CA2.lowest.box_elements()
    z = [b0[0], b0[1]]
    one = LaurentPoly.one()

    def rand_b():
        return MonoidAlgebraElt({
            (rng.randint(0, 1), rng.randint(0, 1)): LaurentPoly.q_power(rng.randint(-1, 1))
        })

    m1 = [[rand_b() for _ in range(2)] for _ in range(2)]
    m2 = [[rand_b() for _ in range(2)] for _ in range(2)]
    psi = [[CA2.phi_form(z[i], z[j]) for j in range(2)] for i in range(2)]

    def to_cellular(m):
        out = CellularElt()
        for i in range(2):
            for j in range(2):
                for tau, c in m[i][j].items():
                    out = out + CellularElt({(z[i], tau, z[j]): c})
        return out

    via_algebra = CA2.cellular_mul(to_cellular(m1), to_cellular(m2))
    # entry (i, j) of M1 Psi M2; the entries of M1 and M2 are monomials
    # c e^tau, and e^tau e^sigma = e^(tau + sigma) in A[P+]
    twisted = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            acc = {}
            for k in range(2):
                for l in range(2):
                    [(t1, c1)] = m1[i][k].items()
                    [(t2, c2)] = m2[l][j].items()
                    add_scaled(acc, c1 * c2, [(tuple(a + s + b for a, s, b in zip(t1, sigma, t2)), c)
                                              for sigma, c in psi[k][l].items()])
            twisted[i][j] = MonoidAlgebraElt(acc)
    assert via_algebra == to_cellular(twisted)


def test_cellular_mul_associative():
    rng = random.Random(4)
    b0 = CA1.lowest.box_elements()

    def rand_elt():
        out = CellularElt()
        for _ in range(2):
            key = (rng.choice(b0), (rng.randint(0, 1),), rng.choice(b0))
            out = out + CellularElt({key: LaurentPoly.q_power(rng.randint(-1, 1))})
        return out

    for _ in range(10):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert CA1.cellular_mul(CA1.cellular_mul(a, b), c) == CA1.cellular_mul(a, CA1.cellular_mul(b, c))


def test_phi_iso_examples():
    hecke, weyl = CA2.hecke, CA2.weyl
    w0 = weyl.longest_finite
    e = weyl.identity
    assert CA2.phi_iso(CellularElt.basis(e, (0, 0), e)) == hecke.kl_basis(w0)
    for z in CA2.lowest.box_elements()[:4]:
        for zp in CA2.lowest.box_elements()[:4]:
            img = CA2.phi_iso(CellularElt.basis(z, (0, 0), zp))
            assert img == hecke.kl_basis(z * w0 * zp.inverse())


@pytest.mark.parametrize("cfg, bound", [(("A", 2, (1, 1, 1)), 7), (("C", 2, (3, 2, 1)), 12)],
                         ids=["A2", "C2-321"])
def test_phi_iso_of_a_basis_element_is_the_cached_image(cfg, bound):
    # Phi(v_z (x) e^tau (x) v_z') is the very object phi_image_basis keeps,
    # so no operation may write into what it reads: each image serializes
    # the same after mul, cellular_mul, phi_iso, phi_inverse and
    # involution_check have run on it
    cs = make(cfg)
    hecke, weyl = cs.hecke, cs.weyl
    triples = cs.basis_triples(bound)
    for t in triples:
        assert cs.phi_iso(CellularElt.basis(*t)) is cs.phi_image_basis(*t)
    before = {t: serialize.hecke_json(weyl, cs.phi_image_basis(*t)) for t in triples}
    lens = {t: cs.lowest.assemble(*t).length() for t in triples}
    pairs = [(a, b) for a in triples for b in triples if lens[a] + lens[b] <= bound]
    for a, b in random.Random(28).sample(pairs, min(len(pairs), 40)):
        ea, eb = CellularElt.basis(*a), CellularElt.basis(*b)
        prod = hecke.mul(cs.phi_iso(ea), cs.phi_iso(eb))
        cell = cs.cellular_mul(ea, eb)
        assert cs.phi_iso(cell) == prod and cs.phi_inverse(prod) == cell
    for t in triples:
        a = CellularElt.basis(*t)
        assert cs.phi_inverse(cs.phi_iso(a)) == a and cs.involution_check(a)
    assert {t: serialize.hecke_json(weyl, cs.phi_image_basis(*t)) for t in triples} == before


def test_phi_homomorphism_sampled():
    hecke = CA2.hecke
    rng = random.Random(5)
    triples = CA2.basis_triples(7)
    for _ in range(15):
        a, b = rng.choice(triples), rng.choice(triples)
        ea, eb = CellularElt.basis(*a), CellularElt.basis(*b)
        assert hecke.mul(CA2.phi_iso(ea), CA2.phi_iso(eb)) == CA2.phi_iso(
            CA2.cellular_mul(ea, eb))


def test_phi_iso_and_cellular_mul_results_hold_no_zero_values():
    # both results take the dict add_scaled filled, which holds no zero
    # value, as it is: on every A2 pair they equal the filtering constructor
    # form, and so does phi_iso of a difference, whose images share terms
    # that cancel
    cs = make(("A", 2, (1, 1, 1)))
    triples = cs.basis_triples(7)
    lens = {t: cs.lowest.assemble(*t).length() for t in triples}
    q = LaurentPoly.q_power(1)
    count = 0
    for a in triples:
        for b in triples:
            if lens[a] + lens[b] > 7:
                continue
            ea, eb = CellularElt.basis(*a), CellularElt.basis(*b)
            cell = cs.cellular_mul(ea, eb)
            img = cs.phi_iso(cell)
            mixed = cs.phi_iso(CellularElt({a: q, b: -q}) + ea - ea)
            for r in (cell, img, mixed):
                assert all(r._d.values()) and r == type(r)(dict(r.items()))
            count += 1
    assert count > 100


def test_involution_identity_and_mutation():
    triples = CA2.basis_triples(8)
    for t in triples:
        assert CA2.involution_check(CellularElt.basis(*t))
    # a wrong nu (identity instead of the diagram flip) must fail somewhere
    hecke = CA2.hecke
    broken = 0
    for (z, tau, zp) in triples:
        wrong = CellularElt({(zp, tau, z): LaurentPoly.one()})
        lhs = hecke.flat(CA2.phi_iso(CellularElt.basis(z, tau, zp)))
        if lhs != CA2.phi_iso(wrong):
            broken += 1
    assert broken > 0


def test_phi_injective_on_basis():
    # distinct leading KL terms across the bounded basis
    triples = CA2.basis_triples(8)
    tops = {CA2.lowest.assemble(*t) for t in triples}
    assert len(tops) == len(triples)


def test_phi_inverse_roundtrip():
    rng = random.Random(6)
    triples = CA2.basis_triples(8)
    for t in rng.sample(triples, 12):
        a = CellularElt.basis(*t)
        assert CA2.phi_inverse(CA2.phi_iso(a)) == a
    # the cell factorization is the key: it equals the plain triple
    f = CA2.lowest.factorize(CA2.lowest.assemble(*t))
    assert f == t
    c = LaurentPoly.q_power(2)
    assert CellularElt({f: c}) == CellularElt({tuple(f): c})


@pytest.mark.parametrize("cfg", [("A", 2, (1, 1, 1)), ("C", 2, (2, 1, 1))])
def test_phi_inverse_and_phi_form_make_no_kl_expansion(cfg):
    # phi_inverse peels against the images (a factored element against the
    # P(z) Q_tau on the X_0 module) and phi_form against the Q_tau, so
    # neither expands in the KL basis
    cs = make(cfg)
    hecke, weyl = cs.hecke, cs.weyl
    calls = []
    kl_expand = hecke.kl_expand
    hecke.kl_expand = lambda h: calls.append(h) or kl_expand(h)
    t = cs.basis_triples(weyl.longest_finite.length() + 4)[-1]
    a = CellularElt.basis(*t)
    assert cs.phi_inverse(cs.phi_iso(a)) == a
    b0 = cs.lowest.box_elements()
    cs.phi_form(b0[-1], b0[-1])
    assert calls == []


@pytest.mark.parametrize("cs", [CA2, CC2], ids=["A2", "C2"])
def test_phi_inverse_rejects_elements_outside_the_ideal(cs):
    hecke, weyl = cs.hecke, cs.weyl
    t = cs.basis_triples(weyl.longest_finite.length() + 2)[-1]
    image = cs.phi_iso(CellularElt.basis(*t))
    # the last is recorded over the image's own right factor, so it takes
    # the module route, where the top s_1 of its module factor is no z p_tau
    u, r, lowest = image._factors
    for h in (hecke.t(weyl.identity), image + hecke.t(weyl.identity),
              image + hecke.t(weyl.gens[1]),
              hecke.mul_factored(u + hecke.t(weyl.gens[1]), r, lowest)):
        with pytest.raises(NotInLowestCell):
            cs.phi_inverse(h)


@pytest.mark.parametrize("cfg, triple, match", [
    (("A", 2, (1, 1, 1)), ("e", (1, -1), "e"), "not a dominant L-weight"),
    (("C", 2, (2, 1, 1)), ("e", (1, 0), "e"), "not a dominant L-weight"),
    (("A", 2, (1, 1, 1)), ("w0", (0, 0), "e"), "not in the box B_0"),
    (("A", 2, (1, 1, 1)), ("e", (0, 0), "w0"), "not in the box B_0"),
], ids=["tau-not-dominant", "tau-off-lattice", "z-outside-B0", "zprime-outside-B0"])
def test_phi_image_basis_refuses_a_triple_that_indexes_no_basis_element(cfg, triple, match):
    # z and z' range over B_0 and tau over the dominant lattice weights;
    # a triple outside raises ValueError and keeps no image
    cs = make(cfg)
    named = {"e": cs.weyl.identity, "w0": cs.weyl.longest_finite}
    z, tau, zp = triple
    with pytest.raises(ValueError, match=match):
        cs.phi_image_basis(named[z], tau, named[zp])
    assert cs._phi_image_cache == {}


def test_bimodule_structure_within_span():
    # T_s Phi(basis) stays in the image span for triples below the bound
    hecke = CA2.hecke
    triples = [t for t in CA2.basis_triples(6)]
    for t in triples:
        img = CA2.phi_iso(CellularElt.basis(*t))
        for i in range(CA2.ws.num_gens):
            h = hecke.mul_gen(i, img)
            back = CA2.phi_inverse(h)
            assert CA2.phi_iso(back) == h
            h = hecke.mul(img, hecke.t(hecke.weyl.gens[i]))
            back = CA2.phi_inverse(h)
            assert CA2.phi_iso(back) == h


def test_decompose_p_omega_basics():
    # lam = 0 reduces to the defining identity P(omega)C_{w_0} = C_{p_om w_0}
    for cs in (CA2, CC2):
        for fw in cs.ws.fundamental_weights:
            fam = cs.decompose_P_omega(fw, (0,) * cs.ws.rank)
            assert fam == {tuple(fw): 1}
    with pytest.raises(ValueError):
        CA2.decompose_P_omega((1, 0), (1, 0))


def test_decompose_p_omega_type_a_indicator():
    # in type A the family is the indicator of the orbit elements rho with
    # lam - nu(rho) antidominant
    ws = CA2.ws
    for fw in ws.fundamental_weights:
        orbit = ws.orbit(fw)
        for lam in [(-1, 0), (0, -2), (-1, -1), (-2, -1)]:
            fam = CA2.decompose_P_omega(fw, lam)
            expected = {
                rho: 1 for rho in orbit
                if ws.is_antidominant(tuple(x - y for x, y in zip(lam, ws.nu(rho))))
            }
            assert fam == expected


def test_decompose_p_omega_integers():
    rng = random.Random(7)
    for cs in (CA2, CC2):
        ws = cs.ws
        for _ in range(3):
            lam = tuple(-rng.randint(0, 2) * b for b in ws.b)
            for fw in ws.fundamental_weights:
                fam = cs.decompose_P_omega(fw, lam)
                assert all(isinstance(v, int) for v in fam.values())
                assert fam[tuple(fw)] == 1


# (config, bound): every antidominant lam with l(p_lam) <= bound, whole
# shells, against the old route through the whole algebra
DECOMPOSE_ORACLE_CASES = [
    (("A", 1, (2, 1)), 12),
    (("A", 2, (1, 1, 1)), 10),
    (("A", 3, (1, 1, 1, 1)), 6),
    (("C", 2, (2, 1, 1)), 12),
    (("C", 2, (3, 2, 1)), 12),
]


@pytest.mark.parametrize(
    "cfg,bound", DECOMPOSE_ORACLE_CASES,
    ids=[f"{t}{n}-{','.join(map(str, p))}" for (t, n, p), _ in DECOMPOSE_ORACLE_CASES],
)
def test_decompose_p_omega_matches_the_whole_algebra(cfg, bound):
    # the X_0 module route equals kl_expand(P(omega) C_{w_0 p_lam}) computed
    # in the whole algebra, on a structure of its own so no cache is shared
    cs, ref = make(cfg), make(cfg)
    for tau in cs.dominant_weights_up_to(bound):
        lam = tuple(-a for a in tau)
        for fw in cs.ws.fundamental_weights:
            assert cs.decompose_P_omega(fw, lam) == oracles.decompose_P_omega(ref, fw, lam), (fw, lam)


@pytest.mark.parametrize("cfg", [("A", 2, (1, 1, 1)), ("C", 2, (2, 1, 1))])
def test_decompose_makes_no_kl_basis_product_or_expansion(cfg):
    # decompose_P_omega and decompose_P_tau stay on the X_0 module: no C_w
    # of the whole algebra is built, multiplied or expanded
    cs = make(cfg)
    hecke = cs.hecke
    calls = []
    for name in ("kl_basis", "kl_expand", "mul"):
        f = getattr(hecke, name)
        setattr(hecke, name, lambda *args, _name=name, _f=f: calls.append(_name) or _f(*args))
    taus = cs.dominant_weights_up_to(8)
    assert len(taus) > 2
    for tau in taus:
        cs.decompose_P_tau(tau)
        for fw in cs.ws.fundamental_weights:
            cs.decompose_P_omega(fw, tuple(-a for a in tau))
    assert calls == []


SHIPPED_CONFIGS = [
    ("A", 1, (1, 1)), ("A", 1, (2, 1)), ("A", 2, (1, 1, 1)), ("A", 3, (1, 1, 1, 1)),
    ("C", 2, (1, 1, 1)), ("C", 2, (2, 1, 1)), ("C", 2, (3, 2, 1)),
]


@pytest.mark.parametrize("cfg", SHIPPED_CONFIGS,
                         ids=[f"{t}{n}-{','.join(map(str, p))}" for t, n, p in SHIPPED_CONFIGS])
def test_dominant_weights_match_the_cone_search(cfg):
    # the closed form (a box of fundamental-weight multiples, l(p_tau)
    # linear on the dominant cone) lists the same sorted weights as the
    # search that measures every weight, negative budgets included
    cs = make(cfg)
    for budget in range(-2, 17):
        assert cs.dominant_weights_up_to(budget) == oracles.dominant_weights_up_to(cs, budget), (
            cfg, budget)


def _plain(h):
    """A copy of h's terms that records no factors and keeps no cache."""
    return HeckeElt(dict(h.items()))


@pytest.mark.parametrize("cfg", SHIPPED_CONFIGS,
                         ids=[f"{t}{n}-{','.join(map(str, p))}" for t, n, p in SHIPPED_CONFIGS])
def test_a_product_of_images_equals_the_product_of_plain_copies(cfg):
    # an image records (u, C_{w_0 z'^-1}, lowest) and mul takes h times it
    # as (h . u) C_{w_0 z'^-1}: on seeded pairs the product equals the one
    # of plain copies, which mul multiplies term by term, and records the
    # module action of the left image on u and the right image's own r
    cs = make(cfg)
    hecke, lowest = cs.hecke, cs.lowest
    triples = cs.basis_triples(cs.weyl.longest_finite.length() + 3)
    rng = random.Random(31)
    for _ in range(8):
        a, b = rng.choice(triples), rng.choice(triples)
        ia, ib = cs.phi_image_basis(*a), cs.phi_image_basis(*b)
        u, r, owner = ib._factors
        assert r is cs._right[b[2]] and owner is lowest and u is cs._module_factor(b[0], b[1])
        assert getattr(_plain(ib), "_factors", None) is None
        want = hecke.mul(_plain(ia), _plain(ib))
        prod = hecke.mul(ia, ib)
        assert prod == want == hecke.mul(_plain(ia), ib) == hecke.mul(ia, _plain(ib))
        assert prod._factors[1:] == (r, lowest)
        assert prod._factors[0] == lowest.act(_plain(ia), u)


def _x0_keys(h, lowest):
    return all(lowest.is_in_x0(x) for x in h._d)


def _pairs(cs, bound):
    triples = cs.basis_triples(bound)
    lens = {t: cs.lowest.assemble(*t).length() for t in triples}
    return [(a, b) for a in triples for b in triples if lens[a] + lens[b] <= bound]


def test_image_products_keep_no_algebra_product_with_another_image():
    # every image pair of C2 (3,2,1) to total length 12: no image keeps a
    # chain cache of the algebra, every module factor keeps only module
    # elements (keys in X_0) under the left support it met, and each right
    # factor keeps its own chain {x: T_x r} and nothing else.  The terms of
    # an image are read only as a left factor, so exactly the right factors
    # of left images keep a chain cache: the products and Phi(a b) compare
    # by their module factors and are never expanded
    cs = make(("C", 2, (3, 2, 1)))
    hecke, lowest = cs.hecke, cs.lowest
    images = {t: cs.phi_image_basis(*t) for t in cs.basis_triples(12)}
    pairs = _pairs(cs, 12)
    for a, b in pairs:
        assert hecke.mul(images[a], images[b]) == cs.phi_iso(
            cs.cellular_mul(CellularElt.basis(*a), CellularElt.basis(*b)))
    assert len(pairs) == 88
    modules = {id(img._factors[0]): img._factors[0] for img in images.values()}
    met = {id(images[b]._factors[0]) for _, b in pairs}
    assert {k for k, u in modules.items() if getattr(u, "_mx", None) is not None} == met
    for img in images.values():
        assert getattr(img, "_tx", None) is None and getattr(img, "_mx", None) is None
    for u in modules.values():
        assert getattr(u, "_tx", None) is None and _x0_keys(u, lowest)
        assert all(_x0_keys(tu, lowest) for tu in (getattr(u, "_mx", None) or {}).values())
    assert {t for t, img in images.items() if oracles.terms_read(img)} == {a for a, _ in pairs}
    walked = {a[2] for a, _ in pairs}
    assert {zp for zp, r in cs._right.items() if getattr(r, "_tx", None) is not None} == walked
    assert len(walked) < len(cs._right)
    for r in cs._right.values():
        assert getattr(r, "_mx", None) is None
    for zp in walked:
        r = cs._right[zp]
        assert all(tx == hecke.mul(hecke.t(x), _plain(r)) for x, tx in list(r._tx.items())[::7])


@pytest.mark.parametrize("cfg, bound, count", [(("A", 2, (1, 1, 1)), 7, 405),
                                               (("C", 2, (3, 2, 1)), 12, 88)])
def test_phi_is_multiplicative_by_module_factors_alone(monkeypatch, cfg, bound, count):
    # on every pair of the population Phi(a) Phi(b) and Phi(a b) record the
    # same right factor C_{w_0 z'^-1} and equal module factors, so they
    # compare equal with no mul_gen step and neither side's T-coordinates
    # read; read afterwards, their T-coordinates are equal too
    cs = make(cfg)
    hecke = cs.hecke
    sides = []
    for a, b in _pairs(cs, bound):
        ea, eb = CellularElt.basis(*a), CellularElt.basis(*b)
        sides.append((hecke.mul(cs.phi_iso(ea), cs.phi_iso(eb)),
                      cs.phi_iso(cs.cellular_mul(ea, eb))))
    assert len(sides) == count
    steps = oracles.count_calls(monkeypatch, Hecke, "mul_gen")
    for prod, image in sides:
        assert prod._factors[1] is image._factors[1]
        assert prod == image and not prod != image
    assert steps[0] == 0 and not any(oracles.terms_read(h) for side in sides for h in side)
    monkeypatch.undo()
    assert all(_plain(prod) == _plain(image) for prod, image in sides)


def test_unequal_elements_over_one_right_factor_compare_unequal():
    # two elements over the same z' with unequal module factors compare by
    # T-coordinates, as plain copies do: distinct images, and an image
    # product against Phi of the cellular product plus another basis
    # element of that z'
    cs = make(("C", 2, (2, 1, 1)))
    hecke = cs.hecke
    bound = cs.weyl.longest_finite.length() + 6
    triples, pairs = cs.basis_triples(bound), _pairs(cs, bound)
    rng = random.Random(35)
    checked = 0
    for a, b in rng.sample(pairs, 12):
        ea, eb = CellularElt.basis(*a), CellularElt.basis(*b)
        prod = hecke.mul(cs.phi_iso(ea), cs.phi_iso(eb))
        for c in (t for t in triples if t[2] == b[2] and t != b):
            ib, ic = cs.phi_image_basis(*b), cs.phi_image_basis(*c)
            wrong = cs.phi_iso(cs.cellular_mul(ea, eb) + CellularElt.basis(*c))
            assert wrong._factors[1] is prod._factors[1] is ic._factors[1] is ib._factors[1]
            assert ib != ic and _plain(ib) != _plain(ic)
            assert prod != wrong and _plain(prod) != _plain(wrong)
            checked += 1
    assert checked > 12


def test_equal_products_with_unequal_module_factors_compare_by_terms():
    # module factors decide only equality: u1 r and u2 r with u1 != u2 may
    # still be equal, here over r = 0, and then compare equal
    cs = make(("A", 2, (1, 1, 1)))
    hecke, lowest = cs.hecke, cs.lowest
    t1, t2 = cs.basis_triples(6)[-2:]
    u1, u2 = cs._module_factor(t1[0], t1[1]), cs._module_factor(t2[0], t2[1])
    zero = HeckeElt()
    assert u1 != u2
    assert hecke.mul_factored(u1, zero, lowest) == hecke.mul_factored(u2, zero, lowest)
    assert hecke.mul_factored(u1, zero, lowest) == zero


@pytest.mark.parametrize("cfg", SHIPPED_CONFIGS,
                         ids=[f"{t}{n}-{','.join(map(str, p))}" for t, n, p in SHIPPED_CONFIGS])
def test_hash_agrees_with_equality_of_a_factored_element_and_its_plain_copy(cfg):
    cs = make(cfg)
    for t in cs.basis_triples(cs.weyl.longest_finite.length() + 3)[-4:]:
        image = cs.phi_image_basis(*t)
        plain = _plain(image)
        assert image == plain and plain == image and hash(image) == hash(plain)
        # against anything that is not a HeckeElt, the product is unequal
        assert all(image != other for other in (dict(plain.items()), 0, None))
        assert len({image, plain}) == 1


def test_a_left_image_over_cached_support_steps_no_module_generator(monkeypatch):
    # a left image acts on the right image's module factor u by its
    # T-coordinates, on the chain cache {x: T_x . u} u keeps: after a first
    # product, a second left image whose support the first covers makes no
    # _module_gen call, and u's cache gains no entry and keeps its values
    cs = make(("C", 2, (2, 1, 1)))
    hecke = cs.hecke
    triples = cs.basis_triples(cs.weyl.longest_finite.length() + 4)
    images = {t: cs.phi_image_basis(*t) for t in triples}
    ia, ia2 = next((images[s], images[t]) for s in reversed(triples) for t in triples
                   if s != t and images[t]._d.keys() <= images[s]._d.keys())
    ib = images[triples[-1]]
    first = hecke.mul(ia, ib)
    u = ib._factors[0]
    entries = dict(u._mx)
    calls = oracles.count_calls(monkeypatch, LowestCell, "_module_gen")
    second = hecke.mul(ia2, ib)
    assert calls[0] == 0 and len(ia2) > 1
    assert u._mx.keys() == entries.keys() and all(u._mx[x] is v for x, v in entries.items())
    assert (first, second) == (hecke.mul(_plain(ia), _plain(ib)), hecke.mul(_plain(ia2), _plain(ib)))


def test_an_image_times_a_right_factor_of_another_group_raises():
    # both orders raise ValueError before anything is kept: a foreign right
    # factor's keys are refused before its chain cache is made, and a
    # foreign left factor by the walk, after which the image's module
    # factor keeps no cache and its right factor no foreign key
    cs = make(("A", 2, (1, 1, 1)))
    hecke, W1 = cs.hecke, cs.weyl
    W2 = Weyl(WeightSystem("A", 2, (1, 1, 1)))
    image = cs.phi_image_basis(*cs.basis_triples(5)[-1])
    u, r, _ = image._factors
    foreign = HeckeElt({W2.gens[1]: LaurentPoly.one()})
    for _ in range(2):
        with pytest.raises(ValueError, match="different weight systems"):
            hecke.mul(image, foreign)
        with pytest.raises(ValueError, match="different weight systems"):
            hecke.mul(foreign, image)
    assert getattr(foreign, "_tx", None) is None and getattr(foreign, "_mx", None) is None
    assert getattr(u, "_mx", None) is None
    assert all(w.weyl is W1 for h in (u, r) for w in getattr(h, "_tx", None) or ())


def test_a_temporary_right_factor_of_an_image_is_freed_by_reference_counting():
    # a temporary factored right factor, whose module factor keeps the chain
    # cache of the module action seeded with a twin sharing its dict: with
    # the cycle collector off, the last references going free the module
    # factor, its cache and the product that recorded it
    class Probe(HeckeElt):
        __slots__ = ("__weakref__",)

    cs = make(("A", 2, (1, 1, 1)))
    hecke, lowest = cs.hecke, cs.lowest
    image = cs.phi_image_basis(*cs.basis_triples(6)[-1])
    b = cs.basis_triples(5)[-1]
    plain = _plain(cs.phi_image_basis(*b))
    enabled = gc.isenabled()
    gc.disable()
    try:
        u = Probe(dict(cs._module_factor(b[0], b[1]).items()))
        ref = weakref.ref(u)
        h2 = hecke.mul_factored(u, cs._right[b[2]], lowest)
        prod = hecke.mul(image, h2)
        assert len(u._mx) > 1 and prod._factors[0] is not u
        del u, h2
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
    assert prod == hecke.mul(_plain(image), plain)


def test_every_module_factor_of_one_tau_shares_the_chain_cache_of_q_tau(monkeypatch):
    # u = P(z) Q_tau is P(z) acting on Q_tau, which keeps one chain cache
    # {x: T_x . Q_tau} for every z of B_0: each z steps once per new entry
    # stored under a letter (Pi links are relabels), so a later z steps only
    # for support no earlier z met, and fewer steps are made in all than on
    # plain copies of Q_tau, which keep no cache; every u is the same
    cs = make(("C", 2, (2, 1, 1)))
    lowest, weyl = cs.lowest, cs.weyl
    box = lowest.box_elements()
    tau = next(t for t in cs.dominant_weights_up_to(12) if any(t))
    q = cs._q_tau(tau)
    for z in box:
        lowest.p_element(z)
    assert getattr(q, "_mx", None) is None
    steps = oracles.count_calls(monkeypatch, LowestCell, "_module_gen")
    shared = plain = 0
    kept = None
    for z in box:
        before = set(getattr(q, "_mx", None) or (weyl.identity,))
        steps[0] = 0
        u = cs._module_factor(z, tau)
        if kept is None:
            kept = q._mx
        assert q._mx is kept
        assert steps[0] == sum(1 for x in kept if x not in before and not weyl.reduced_word(x)[0])
        shared += steps[0]
        steps[0] = 0
        assert u == lowest.act(lowest.p_element(z), _plain(q))
        plain += steps[0]
    assert 0 < shared < plain


def test_a_temporary_module_element_is_freed_by_reference_counting(monkeypatch):
    # phi_form keeps C_{w_0} . m_x per module basis element x, acting on a
    # temporary T_x, which keeps the chain cache of that action, seeded
    # with a twin sharing its dict: with the cycle collector off, every
    # temporary is freed by the time phi_form returns, and phi equals that
    # of a fresh structure
    class Probe(HeckeElt):
        __slots__ = ("__weakref__",)

    cfg = ("A", 2, (1, 1, 1))
    cs, fresh = make(cfg), make(cfg)
    lowest = cs.lowest
    b0 = lowest.box_elements()
    pairs = [(i, j) for i in (-2, -1) for j in (-2, -1)]
    refs, sizes = [], []
    act = lowest.act

    def t(w):
        h = Probe({w: LaurentPoly.one()})
        refs.append(weakref.ref(h))
        return h

    def spy(h, m):
        out = act(h, m)
        if isinstance(m, Probe):
            sizes.append(len(m._mx))
        return out

    monkeypatch.setattr(cs.hecke, "t", t)
    monkeypatch.setattr(lowest, "act", spy)
    enabled = gc.isenabled()
    gc.disable()
    try:
        got = [cs.phi_form(b0[i], b0[j]) for i, j in pairs]
        assert refs and all(ref() is None for ref in refs)
    finally:
        if enabled:
            gc.enable()
    assert len(sizes) == len(refs) == len(cs._w0_on) and min(sizes) > 1
    b0 = fresh.lowest.box_elements()
    assert got == [fresh.phi_form(b0[i], b0[j]) for i, j in pairs]


@pytest.mark.parametrize("cfg", SHIPPED_CONFIGS,
                         ids=[f"{t}{n}-{','.join(map(str, p))}" for t, n, p in SHIPPED_CONFIGS])
def test_both_phi_inverse_routes_agree(cfg):
    # phi_inverse peels a factored element on the X_0 module and a plain
    # copy by its T-coordinates: on seeded image products, multi-term sums
    # times an image and phi_iso sums, both give the same coordinates (those
    # of the cellular product, where there is one), and both refuse an
    # element outside the ideal.  Every product with an image on the right
    # is factored, and a phi_iso sum exactly when its terms share one z'
    cs = make(cfg)
    hecke, weyl = cs.hecke, cs.weyl
    triples = cs.basis_triples(weyl.longest_finite.length() + 3)
    rng = random.Random(32)
    q = LaurentPoly({1: 1, -1: 2})
    module_route = one_zprime = 0
    for _ in range(6):
        a, b, c = (rng.choice(triples) for _ in range(3))
        one_zprime += a[2] == b[2] == c[2]
        ea, eb, ec = (CellularElt.basis(*t) for t in (a, b, c))
        cases = [(hecke.mul(cs.phi_iso(ea), cs.phi_iso(eb)), cs.cellular_mul(ea, eb)),
                 (hecke.mul(cs.phi_iso(CellularElt({a: q, c: -q})), cs.phi_iso(eb)),
                  cs.cellular_mul(CellularElt({a: q, c: -q}), eb)),
                 (cs.phi_iso(CellularElt({a: q, b: -q, c: q})), None)]
        for h, want in cases:
            got = cs.phi_inverse(h)
            assert got == cs.phi_inverse(HeckeElt(dict(h.items())))
            assert want is None or got == want
            module_route += getattr(h, "_factors", None) is not None
    assert module_route == 12 + one_zprime
    prod = hecke.mul(cs.phi_iso(CellularElt.basis(*a)), cs.phi_iso(CellularElt.basis(*b)))
    outsider = HeckeElt(dict(prod.items())) + hecke.t(weyl.identity)
    for h in (outsider, hecke.mul_factored(outsider, hecke.unit(), cs.lowest)):
        with pytest.raises(NotInLowestCell):
            cs.phi_inverse(h)


def test_phi_inverse_of_a_factored_product_peels_on_the_module(monkeypatch):
    # the module route factorizes nothing and builds no image: each top is
    # split as z p_tau by LowestCell._split and peeled against the kept
    # P(z) Q_tau; an element whose right factor is not one of this
    # structure's takes the T-coordinate route
    cs = make(("C", 2, (2, 1, 1)))
    hecke, lowest = cs.hecke, cs.lowest
    triples = cs.basis_triples(cs.weyl.longest_finite.length() + 4)
    a, b = triples[-1], triples[-2]
    ea, eb = CellularElt.basis(*a), CellularElt.basis(*b)
    prod = hecke.mul(cs.phi_iso(ea), cs.phi_iso(eb))
    calls = []
    monkeypatch.setattr(lowest, "factorize", lambda w: calls.append(w))
    monkeypatch.setattr(cs, "phi_image_basis", lambda *t: calls.append(t))
    assert cs.phi_inverse(prod) == cs.cellular_mul(ea, eb) and calls == []
    other = make(("C", 2, (2, 1, 1)))
    with pytest.raises(ValueError):
        other.phi_inverse(prod)


def test_a_right_factor_failing_the_finite_eigenvector_check_is_refused(monkeypatch):
    # T_t C_{w_0 z'^-1} = q^L(t) C_{w_0 z'^-1} for every finite generator t
    # is what makes an image product (h . u) r exact: a right factor that
    # fails it, here T_e, raises ValueError and no right factor or image
    # is kept; the true right factor then passes
    cs = make(("A", 2, (1, 1, 1)))
    hecke = cs.hecke
    t = cs.basis_triples(5)[-1]
    flat = hecke.flat
    monkeypatch.setattr(hecke, "flat", lambda h: hecke.unit())
    for _ in range(2):
        with pytest.raises(ValueError, match="is not q\\^L"):
            cs.phi_image_basis(*t)
    assert cs._right == {} and cs._phi_image_cache == {}
    monkeypatch.setattr(hecke, "flat", flat)
    image = cs.phi_image_basis(*t)
    assert cs._right[t[2]] == flat(hecke.kl_basis(t[2] * cs.weyl.longest_finite))
    assert image == hecke.mul(_plain(image._factors[0]), _plain(cs._right[t[2]]))


def test_a_phi_product_that_leaves_m_plus_is_refused(monkeypatch):
    # C_{w_0 z^-1} C_{z' w_0} lies in M_+, so every top of its peel is a
    # translation; a product that leads with w_0, whose finite part is not
    # e, raises and no form is kept
    cs = make(("A", 2, (1, 1, 1)))
    w0 = cs.weyl.longest_finite
    monkeypatch.setattr(cs.lowest, "act", lambda h, m: cs.hecke.t(w0))
    e = cs.weyl.identity
    with pytest.raises(AssertionError, match="product left M_\\+"):
        cs.phi_form(e, e)
    assert cs._phi_cache == {}


@pytest.mark.parametrize("change,match", [
    # the KL element of s_0, in X_0 but not a translation
    (lambda cs, q: cs.lowest._p_from(cs.weyl.gens[cs.ws.affine_gen]), "unexpected KL term"),
    # every coefficient times q
    (lambda cs, q: HeckeElt({x: LaurentPoly.q_power(1) * c for x, c in q.items()}),
     "non-integer coefficient q"),
    # Q_tau twice
    (lambda cs, q: q + q, r"leading coefficient at C_\{p_\(1, 1\) w_0\} is 2, not 1"),
], ids=["non-translation-top", "non-integer", "leading-2"])
def test_kl_coordinates_refuse_what_is_no_integer_profile(monkeypatch, change, match):
    # the KL coordinates of Q_tau are integers at translations p_tau', 1 at
    # tau; an element that breaks any of the three raises
    cs = make(("A", 2, (1, 1, 1)))
    q_tau = cs._q_tau
    monkeypatch.setattr(cs, "_q_tau", lambda tau: change(cs, q_tau(tau)))
    with pytest.raises(AssertionError, match=match):
        cs.decompose_P_tau((1, 1))


def _coefficient_objects(elements):
    """id and canonical form of every coefficient of every element, in order."""
    return [[(k, id(c), c.to_json()) for k, c in h.items()] for h in elements]


def _kept_elements(cs):
    """Every element the structure or its right factors keep: the images,
    their factors, the right factors, Q_tau, u = P(z) Q_tau, C_{w_0} m_x,
    the P- and KL elements, and every chain-cache value of either action
    kept on them."""
    hecke, lowest = cs.hecke, cs.lowest
    roots = (list(cs._phi_image_cache.values()) + list(cs._right.values())
             + list(cs._u_cache.values())
             + list(cs._q_cache.values()) + list(cs._w0_on.values())
             + list(lowest._p_cache.values()) + list(hecke._kl_cache.values())
             + list(hecke._bar_cache.values()))
    roots += [f for h in list(roots) for f in (getattr(h, "_factors", None) or ())[:2]]
    out, seen = [], set()
    while roots:
        h = roots.pop()
        if id(h) in seen:
            continue
        seen.add(id(h))
        out.append(h)
        roots += list((getattr(h, "_tx", None) or {}).values())
        roots += list((getattr(h, "_mx", None) or {}).values())
    return out


def test_in_place_sums_change_no_value_they_did_not_allocate():
    # a seeded batch of image products, products of plain copies, module
    # actions, phi_iso sums, cellular products, phi_form and bar, then
    # phi_inverse and kl_expand of the first batch's products and new KL
    # elements, run after a first batch has filled the caches: no
    # coefficient object of an input, of a chain-cache value or of a kept
    # image is replaced or rewritten by the second batch.  Every sum
    # (add_scaled) stores new values, so this guards that LaurentPoly values
    # and the elements that hold them stay immutable on every layer
    cs = make(("C", 2, (2, 1, 1)))
    hecke, lowest = cs.hecke, cs.lowest
    triples = cs.basis_triples(cs.weyl.longest_finite.length() + 5)
    box = lowest.box_elements()
    longer = list(cs.weyl.enumerate_elements(9))
    q = LaurentPoly({1: 1, -1: 2})
    products = []

    def batch(seed, earlier):
        rng = random.Random(seed)
        for _ in range(12):
            a, b = rng.choice(triples), rng.choice(triples)
            ia, ib = cs.phi_image_basis(*a), cs.phi_image_basis(*b)
            products.append(hecke.mul(ia, ib))
            hecke.mul(_plain(ia), ib)
            hecke.mul(ib, hecke.kl_basis(lowest.assemble(*a)))
            lowest.act(lowest.p_element(a[0]), cs._q_tau(b[1]))
            ea, eb = CellularElt.basis(*a), CellularElt.basis(*b)
            cs.phi_iso(CellularElt({a: q, b: -q}))
            cs.phi_iso(cs.cellular_mul(ea + eb, eb))
            cs.phi_form(rng.choice(box), rng.choice(box))
            hecke.bar(ia)
        for h in earlier:
            cs.phi_inverse(h)
            hecke.kl_expand(h)
        for w in rng.sample(longer, 20 if earlier else 0):
            hecke.kl_basis(w)

    batch(1, [])
    kept = _kept_elements(cs) + products
    before = _coefficient_objects(kept)
    assert sum(map(len, before)) > 10000
    batch(2, list(products))
    assert _coefficient_objects(kept) == before
    assert len(_kept_elements(cs)) > len(kept)


def test_m_alpha():
    # type A: always 1
    for fw in CA2.ws.fundamental_weights:
        m = CA2.m_alpha(fw)
        for r in range(len(CA2.ws.positive_roots)):
            assert m[r] == 1
    # witness bound: m_alpha(omega) >= |<omega, alpha^v>|
    for cs in (CA2, CC2):
        for fw in cs.ws.fundamental_weights:
            m = cs.m_alpha(fw)
            for r in cs.ws.positive_roots:
                assert m[r.index] >= abs(cs.ws.pairing(fw, r))
    # frozen golden values from exhaustive interval enumeration
    assert CC2.m_alpha((2, 0)) == [2, 2, 2, 2]
    assert CC2.m_alpha((0, 1)) == [2, 1, 2, 1]
    ce = make(("C", 2, (1, 1, 1)))
    assert ce.m_alpha((1, 0)) == [1, 1, 1, 1]
    assert ce.m_alpha((0, 1)) == [2, 1, 2, 1]


def test_reduce_lambda():
    # already small: unchanged
    assert CA2.reduce_lambda((-1, 0), (1, 0)) == (-1, 0)
    # a deep weight collapses to the unit box
    assert CA2.reduce_lambda((-5, -5), (1, 0)) == (-1, -1)
    with pytest.raises(ValueError):
        CA2.reduce_lambda((1, 0), (1, 0))


def test_reduce_lambda_same_decomposition_under_index_shift():
    omega = (1, 0)
    lam = (-5, -5)
    red = CA2.reduce_lambda(lam, omega)
    fam1 = CA2.decompose_P_omega(omega, lam)
    fam2 = CA2.decompose_P_omega(omega, red)
    ws = CA2.ws
    for alpha in set(fam1) | set(fam2):
        na = ws.nu(alpha)
        in1 = ws.is_antidominant(tuple(x - y for x, y in zip(lam, na)))
        in2 = ws.is_antidominant(tuple(x - y for x, y in zip(red, na)))
        if in1 and in2:
            assert fam1.get(alpha, 0) == fam2.get(alpha, 0)


def left_profile(hecke, x, y) -> dict:
    """T_x T_y as z -> a_z over the left factors z of its terms T_{z y}."""
    y_inv = y.inverse()
    return {w * y_inv: c for w, c in hecke.f_constants(x, y).items()}


def test_reduce_lambda_same_profile():
    # T_{p_om} T_{v p_lam} ~ T_{p_om} T_{v p_lam'} for all v, far lambda
    rng = random.Random(8)
    hecke, weyl, ws = CC2.hecke, CC2.weyl, CC2.ws
    omega = (0, 1)
    for _ in range(4):
        lam = (-2 * rng.randint(2, 4), -rng.randint(3, 5))
        red = CC2.reduce_lambda(lam, omega)
        p_om = weyl.translation(omega)
        for u in range(ws.w0_size):
            v = weyl.finite_element(u)
            y1 = v * weyl.translation(lam)
            y2 = v * weyl.translation(red)
            assert left_profile(hecke, p_om, y1) == left_profile(hecke, p_om, y2)


def test_decompose_p_tau():
    assert CA2.decompose_P_tau((0, 0)) == {(0, 0): 1}
    assert CA2.decompose_P_tau((1, 0)) == {(-1, 0): 1}
    flagship = CA2.decompose_P_tau((2, 2))
    assert flagship == {(-2, -2): 1, (-3, 0): 1, (0, -3): 1, (-1, -1): 4, (0, 0): 2}
    with pytest.raises(ValueError):
        CA2.decompose_P_tau((-1, 0))


P_TAU_ORACLE_CASES = [
    (("A", 2, (1, 1, 1)), [(1, 1), (2, 0), (2, 1), (2, 2)]),
    (("C", 2, (2, 1, 1)), None),
    (("C", 2, (3, 2, 1)), None),
]


@pytest.mark.parametrize(
    "cfg,taus", P_TAU_ORACLE_CASES,
    ids=[f"{t}{n}-{','.join(map(str, p))}" for (t, n, p), _ in P_TAU_ORACLE_CASES],
)
def test_decompose_p_tau_direct_product_oracle(cfg, taus):
    # the iterated profile equals a one-shot KL expansion of P(tau) C_{w_0};
    # in C2 on every dominant tau with l(p_tau w_0) <= 18.  Each profile is
    # integral and led by -tau with coefficient 1.
    cs = make(cfg)
    hecke, weyl, ws = cs.hecke, cs.weyl, cs.ws
    w0 = weyl.longest_finite
    if taus is None:
        taus = cs.dominant_weights_up_to(18 - w0.length())
        assert len(taus) == 8
    for tau in taus:
        h = hecke.mul(cs.lowest.p_element_tau(tau), hecke.kl_basis(w0))
        coords = hecke.kl_expand(h)
        direct = {}
        for w, c in coords.items():
            tp = ws.act(w.translation, ws.w0_inv[w0.finite])
            assert w.finite == w0.finite and ws.is_dominant(tp)
            direct[tuple(-x for x in tp)] = c.as_integer()
        prof = cs.decompose_P_tau(tau)
        assert direct == prof
        assert all(isinstance(v, int) for v in prof.values())
        assert prof[tuple(-x for x in tau)] == 1


# (config, budget): every dominant tau with l(p_tau) <= budget
P_TAU_FACTOR_CASES = [
    (("A", 1, (1, 1)), 24),
    (("A", 1, (2, 1)), 24),
    (("A", 2, (1, 1, 1)), 16),
    (("A", 3, (1, 1, 1, 1)), 10),
    (("C", 2, (1, 1, 1)), 16),
    (("C", 2, (2, 1, 1)), 16),
    (("C", 2, (3, 2, 1)), 16),
]


@pytest.mark.parametrize(
    "cfg,budget", P_TAU_FACTOR_CASES,
    ids=[f"{t}{n}-{','.join(map(str, p))}" for (t, n, p), _ in P_TAU_FACTOR_CASES],
)
def test_decompose_p_tau_composes_the_per_factor_decompositions(cfg, budget):
    # the one peel of Q_tau equals the profile built one factor P(omega) at
    # a time from decompose_P_omega, on a structure of its own so no cache
    # is shared
    cs, ref = make(cfg), make(cfg)
    taus = cs.dominant_weights_up_to(budget)
    assert len(taus) > 3
    for tau in taus:
        assert cs.decompose_P_tau(tau) == oracles.decompose_P_tau(ref, tau), (cfg, tau)
