import random

import pytest

import oracles
from heckecell.hecke import Hecke, HeckeElt
from heckecell.laurent import LaurentCombination, LaurentPoly
from heckecell.lowestcell import LowestCell
from heckecell.rootdata import WeightSystem
from heckecell.verification import KL_AXIOM_CONFIGS
from heckecell.weyl import Weyl


def P(d):
    return LaurentPoly(d)


def test_solve_unitriangular_rejects_non_unitriangular_rows():
    one, L = LaurentPoly.one(), LaurentCombination
    # bar(b) = b + (q - q^-1) a: the lift is b - q^-1 a
    rows = [L({"a": one}), L({"b": one, "a": P({1: 1, -1: -1})})]
    assert oracles.solve_unitriangular("b", ["a", "b"], rows) == {"a": P({-1: -1})}
    for bad in (
        [L({"a": one}), L({"b": one, "a": one})],  # c - bar(c) = 1 has no solution
        [L({"a": P({0: 2})}), rows[1]],  # diagonal entry 2
    ):
        with pytest.raises(AssertionError, match="unitriangular"):
            oracles.solve_unitriangular("b", ["a", "b"], bad)
    with pytest.raises(AssertionError, match="maximum"):
        oracles.solve_unitriangular("a", ["a", "b"], rows)


ORACLE_CONFIGS = list(KL_AXIOM_CONFIGS) + [(("A", 3, (1, 1, 1, 1)), 5)]


@pytest.mark.parametrize(
    "cfg,bound", ORACLE_CONFIGS,
    ids=[f"{t}{n}-{','.join(map(str, p))}-l{b}" for (t, n, p), b in ORACLE_CONFIGS])
def test_chain_engine_matches_bar_solve(cfg, bound):
    # every C_w and every P(x) (x in X_0) of the chain walk, against the
    # bar-matrix solve on the interval; P(x) on the mirrored module at x^-1
    hecke = Hecke(Weyl(WeightSystem(*cfg)))
    lowest = LowestCell(hecke)
    reps = 0
    for w in hecke.weyl.enumerate_elements(bound):
        assert hecke.kl_basis(w) == oracles.kl_basis(hecke, w)
        if lowest.is_in_x0(w):
            p = HeckeElt({**lowest.relative_kl(w), w: LaurentPoly.one()})
            assert hecke.flat(p) == oracles.p_element_right(lowest, w.inverse())
            reps += 1
    assert reps > 1


# The verify sweep bounds, with A1 (2,1) at the A1 bound and A3 at the bound
# to which test_a3 compares every element: the sweep below starts past them.
SWEEP_BOUNDS = list(KL_AXIOM_CONFIGS) + [(("A", 1, (2, 1)), 8), (("A", 3, (1, 1, 1, 1)), 6)]


@pytest.mark.parametrize(
    "cfg,bound", SWEEP_BOUNDS,
    ids=[f"{t}{n}-{','.join(map(str, p))}-l{b}" for (t, n, p), b in SWEEP_BOUNDS])
def test_kl_axioms_past_the_sweep_bounds(cfg, bound):
    # seeded random elements 1 to 6 lengths past the sweep bound, each
    # reached from a random Pi by random left ascents: C_w is the bar
    # solve's element, bar-invariant, T_w plus q^-1 Z[q^-1] terms, and
    # flat(C_w) = C_{w^-1}
    hecke = Hecke(Weyl(WeightSystem(*cfg)))
    weyl = hecke.weyl
    gens = range(weyl.ws.num_gens)
    rng = random.Random(22)
    for _ in range(6):
        w = rng.choice(weyl.pi_elements)
        for _ in range(bound + rng.randint(1, 6)):
            ascents = [i for i in gens if not weyl.is_left_descent(i, w)]
            w = weyl.gen_mul_left(rng.choice(ascents), w)
        assert w.length() > bound
        cw = hecke.kl_basis(w)
        assert cw == oracles.kl_basis(hecke, w), (cfg, w)
        assert hecke.bar(cw) == cw, (cfg, w)
        assert cw.coeff(w) == LaurentPoly.one(), (cfg, w)
        assert all(c.in_strictly_negative() for y, c in cw.items() if y is not w), (cfg, w)
        assert hecke.flat(cw) == hecke.kl_basis(w.inverse()), (cfg, w)
