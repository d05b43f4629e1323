import random

import pytest

from heckecell.laurent import NEG_INF, LaurentPoly, peel, xi


def P(d):
    return LaurentPoly(d)


def rand_poly(rng, spread=5, terms=4):
    return LaurentPoly({rng.randint(-spread, spread): rng.randint(-9, 9) for _ in range(terms)})


def test_add_cancellation():
    assert P({1: 1, 0: 1}) + P({0: -1, -1: 1}) == P({1: 1, -1: 1})


def test_add_identity_and_doubling():
    p = P({3: 2, -1: 5})
    assert p + LaurentPoly.zero() == p
    d = P({1: 1, -1: -1})
    assert d + d == P({1: 2, -1: -2})


def test_mul_difference_of_squares():
    assert P({1: 1, -1: 1}) * P({1: 1, -1: -1}) == P({2: 1, -2: -1})


def test_mul_identity_and_square():
    p = P({2: 3, 0: -1})
    assert p * LaurentPoly.one() == p
    d = P({1: 1, -1: -1})
    assert d * d == P({2: 1, 0: -2, -2: 1})


def test_bar_examples():
    assert P({2: 1, 0: -3, -1: 1}).bar() == P({-2: 1, 0: -3, 1: 1})
    assert P({0: 5}).bar() == P({0: 5})
    sym = P({1: 1, -1: 1})
    assert sym.bar() == sym


def test_xi():
    assert xi(1) == P({1: 1, -1: -1})
    assert xi(2) == P({2: 1, -2: -1})
    with pytest.raises(ValueError):
        xi(0)


def test_filtration_membership():
    assert P({-1: 1, -3: 2}).in_strictly_negative()
    assert not P({0: 1, -1: 1}).in_strictly_negative()
    assert not P({1: 1}).in_strictly_negative()
    assert LaurentPoly.zero().in_strictly_negative()


def test_bar_invariant_part():
    p = P({3: 2, 1: -1, 0: 4, -1: 5, -4: 1})
    mu = p.bar_invariant_part()
    assert mu == P({3: 2, 1: -1, 0: 4, -1: -1, -3: 2})
    assert mu.bar() == mu and (p - mu).in_strictly_negative()
    assert P({-1: 1, -2: 3}).bar_invariant_part().is_zero()
    rng = random.Random(3)
    for _ in range(60):
        r = rand_poly(rng)
        mu = r.bar_invariant_part()
        assert mu.bar() == mu and (r - mu).in_strictly_negative()


def test_degree():
    assert P({4: 1, -7: 2}).degree() == 4
    assert LaurentPoly.zero().degree() == NEG_INF


def test_bar_is_ring_involution():
    rng = random.Random(0)
    for _ in range(60):
        p, r = rand_poly(rng), rand_poly(rng)
        assert (p * r).bar() == p.bar() * r.bar()
        assert p.bar().bar() == p


def test_degree_additive_on_products():
    rng = random.Random(1)
    for _ in range(40):
        p, r = rand_poly(rng), rand_poly(rng)
        if p.is_zero() or r.is_zero():
            continue
        assert (p * r).degree() == p.degree() + r.degree()


def test_strictly_negative_bar_fixed_is_zero():
    # the uniqueness mechanism: no nonzero bar-symmetric element of A_{<0}
    rng = random.Random(2)
    for _ in range(60):
        p = rand_poly(rng)
        sym = p + p.bar()  # bar-symmetric by construction
        if sym.in_strictly_negative():
            assert sym.is_zero()


def test_text_and_json_forms():
    p = P({2: 1, 0: -2, -2: 1})
    assert str(p) == "q^2 - 2 + q^-2"
    assert p.to_json() == {"2": 1, "0": -2, "-2": 1}
    assert LaurentPoly.from_json(p.to_json()) == p
    assert str(LaurentPoly.zero()) == "0"
    assert str(P({-3: -4})) == "-4*q^-3"


def test_peel_rejects_non_monic_expansion():
    one = LaurentPoly.one()
    basis = {"b": {"b": one, "a": one}, "a": {"a": one}}
    coords = {"a": P({0: 3}), "b": one}
    assert list(peel(coords, basis.get, str).items()) == [("b", one), ("a", P({0: 2}))]
    assert coords == {}
    coords = {"a": P({0: 3}), "b": one}
    assert peel(coords, basis.get, str, stop=lambda w: w == "a") == {"b": one}
    assert coords == {"a": P({0: 2})}
    with pytest.raises(AssertionError, match="coefficient 1"):
        peel({"b": one}, {"b": {"b": P({0: 2}), "a": one}}.get, str)


def test_peel_leaves_coords_untouched_by_a_failed_expand():
    # expand runs before coords changes: when it raises on the second top,
    # coords hold their state after the first top, and a second peel on them
    # finishes the job (this is how a KL link resumes after a miss)
    one = LaurentPoly.one()
    basis = {"b": {"b": one, "a": one}, "a": {"a": one}}
    tops = []

    def expand(w):
        tops.append(w)
        if len(tops) == 2:
            raise LookupError(w)
        return basis[w]

    coords = {"a": P({0: 3}), "b": one}
    with pytest.raises(LookupError):
        peel(coords, expand, str)
    assert tops == ["b", "a"] and coords == {"a": P({0: 2})}
    assert peel(coords, basis.get, str) == {"a": P({0: 2})}
    assert coords == {}


def test_peel_part_subtracts_only_the_bar_invariant_part():
    # over the basis b = b + q^-1 a + c, a = a + c, c = c, d = d (b > a > c > d)
    # the peel with part takes off the bar-invariant part of each coefficient
    # and leaves the q^-1 Z[q^-1] rest in place; d has nothing to take off
    one = LaurentPoly.one()
    basis = {"b": {"b": one, "a": P({-1: 1}), "c": one}, "a": {"a": one, "c": one},
             "c": {"c": one}, "d": {"d": one}}
    rank = {"d": 0, "c": 1, "a": 2, "b": 3}.get
    coords = {"b": P({1: 1}), "a": P({1: 1, 0: 2, -1: 1}), "c": P({-2: 1}), "d": P({-3: -1})}
    out = peel(coords, basis.get, rank, part=LaurentPoly.bar_invariant_part)
    assert list(out.items()) == [
        ("b", P({1: 1, -1: 1})), ("a", P({1: 1, 0: 1, -1: 1})), ("c", P({1: -2, 0: -1, -1: -2})),
    ]
    assert coords == {"b": P({-1: -1}), "a": P({-2: -1}), "c": P({-2: 1}), "d": P({-3: -1})}
