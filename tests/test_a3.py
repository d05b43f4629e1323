"""Rank-3 tables and the KL engine in A3; the heavy sweeps run in rank <= 2."""

import random

import oracles
from heckecell.hecke import Hecke
from heckecell.lowestcell import LowestCell
from heckecell.rootdata import WeightSystem
from heckecell.weyl import Weyl

WS = WeightSystem("A", 3, (1, 1, 1, 1))
W = Weyl(WS)
H = Hecke(W)
LC = LowestCell(H)


def test_basic_structure():
    assert WS.w0_size == 24
    assert WS.pi_order == 4
    assert W.longest_finite.length() == 6
    assert len(W.gens) == 4
    assert WS.nu((1, 0, 0)) == (0, 0, 1)
    assert WS.nu((0, 1, 0)) == (0, 1, 0)


def test_box_and_factorization():
    b0 = LC.box_elements()
    assert len(b0) == 24 == WS.w0_size
    w0 = W.longest_finite
    rng = random.Random(0)
    for _ in range(10):
        z, zp = rng.choice(b0), rng.choice(b0)
        tau = tuple(rng.randint(0, 1) for _ in range(3))
        w = LC.assemble(z, tau, zp)
        f = LC.factorize(w)
        assert (f.z, f.tau, f.zprime) == (z, tau, zp)


def test_kl_basis_matches_oracle_to_length_6():
    # the chain engine against the bar solve on every element up to l(w0)
    els = list(W.enumerate_elements(6))
    assert len(els) == 780
    for w in els:
        assert H.kl_basis(w) == oracles.kl_basis(H, w)
    for w in random.Random(1).sample(els, 10):
        cw = H.kl_basis(w)
        assert H.bar(cw) == cw
        assert H.flat(cw) == H.kl_basis(w.inverse())


def test_orbit_sizes():
    assert len(WS.orbit((1, 0, 0))) == 4
    assert len(WS.orbit((0, 1, 0))) == 6
    assert len(WS.orbit((0, 0, 1))) == 4
