import random

import pytest

from heckecell import laurent
from heckecell.laurent import _LIMIT, NEG_INF, LaurentPoly, _width, add_scaled, peel, xi
from oracles import DictLaurent


def P(d):
    return LaurentPoly(d)


def from_json(obj: dict) -> LaurentPoly:
    """The inverse of LaurentPoly.to_json."""
    return LaurentPoly({int(e): int(v) for e, v in obj.items()})


def rand_poly(rng, spread=5, terms=4):
    return LaurentPoly({rng.randint(-spread, spread): rng.randint(-9, 9) for _ in range(terms)})


def test_add_cancellation():
    assert P({1: 1, 0: 1}) + P({0: -1, -1: 1}) == P({1: 1, -1: 1})


def test_add_identity_and_doubling():
    p = P({3: 2, -1: 5})
    assert p + LaurentPoly() == p
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
    assert LaurentPoly().in_strictly_negative()


def test_bar_invariant_part():
    p = P({3: 2, 1: -1, 0: 4, -1: 5, -4: 1})
    mu = p.bar_invariant_part()
    assert mu == P({3: 2, 1: -1, 0: 4, -1: -1, -3: 2})
    assert mu.bar() == mu and (p - mu).in_strictly_negative()
    assert not P({-1: 1, -2: 3}).bar_invariant_part()
    rng = random.Random(3)
    for _ in range(60):
        r = rand_poly(rng)
        mu = r.bar_invariant_part()
        assert mu.bar() == mu and (r - mu).in_strictly_negative()


def test_degree():
    assert P({4: 1, -7: 2}).degree() == 4
    assert LaurentPoly().degree() == NEG_INF


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
        if not p or not r:
            continue
        assert (p * r).degree() == p.degree() + r.degree()


def test_strictly_negative_bar_fixed_is_zero():
    # the uniqueness mechanism: no nonzero bar-symmetric element of A_{<0}
    rng = random.Random(2)
    for _ in range(60):
        p = rand_poly(rng)
        sym = p + p.bar()  # bar-symmetric by construction
        if sym.in_strictly_negative():
            assert not sym


def test_text_and_json_forms():
    p = P({2: 1, 0: -2, -2: 1})
    assert str(p) == "q^2 - 2 + q^-2"
    assert p.to_json() == {"2": 1, "0": -2, "-2": 1}
    assert from_json(p.to_json()) == p
    assert str(LaurentPoly()) == "0"
    assert str(P({-3: -4})) == "-4*q^-3"


class Key(str):
    """A peel key whose length is its rank in RANK."""

    def length(self):
        return RANK[self]


RANK = {"d": 0, "c": 1, "a": 2, "e": 2, "b": 3}
A, B, C, D, E = map(Key, "abcde")


def test_peel_rejects_non_monic_expansion():
    one = LaurentPoly.one()
    basis = {B: {B: one, A: one}, A: {A: one}}
    coords = {A: P({0: 3}), B: one}
    assert list(peel(coords, basis.get).items()) == [("b", one), ("a", P({0: 2}))]
    assert coords == {}
    # the check runs before coords change: a rejected top leaves them as
    # they were before it, here before anything and after the first top
    coords = {B: one}
    with pytest.raises(AssertionError, match="coefficient 1"):
        peel(coords, {B: {A: one, B: P({0: 2})}}.get)
    assert coords == {B: one}
    coords = {A: P({0: 3}), B: one}
    with pytest.raises(AssertionError, match="coefficient 1"):
        peel(coords, {B: {B: one, A: one}, A: {A: P({0: 2})}}.get)
    assert coords == {A: P({0: 2})}
    coords = {A: one}
    with pytest.raises(AssertionError, match="coefficient 1"):
        peel(coords, {A: {C: one}}.get, lift=True)
    assert coords == {A: one}


def test_peel_rejects_a_second_key_as_long_as_top():
    # longest first is a valid order only if expand(top) holds no other key
    # of top's length or more: a and e both have length 2
    one = LaurentPoly.one()
    basis = {A: {A: one, E: one}, E: {E: one}}
    coords = {A: one}
    with pytest.raises(AssertionError, match="not shorter"):
        peel(coords, basis.get)
    assert coords == {A: one}
    # the offending key comes after a valid one, which is not subtracted
    # either: coords stay as they were before that top
    coords = {A: P({0: 2}), C: one}
    with pytest.raises(AssertionError, match="not shorter"):
        peel(coords, {A: {C: one, A: one, B: one}}.get)
    assert coords == {A: P({0: 2}), C: one}


def test_peel_leaves_coords_untouched_by_a_failed_expand():
    # expand runs before coords changes: when it raises on the second top,
    # coords hold their state after the first top, and a second peel on them
    # finishes the job (this is how a KL link resumes after a miss)
    one = LaurentPoly.one()
    basis = {B: {B: one, A: one}, A: {A: one}}
    tops = []

    def expand(w):
        tops.append(w)
        if len(tops) == 2:
            raise LookupError(w)
        return basis[w]

    coords = {A: P({0: 3}), B: one}
    with pytest.raises(LookupError):
        peel(coords, expand)
    assert tops == ["b", "a"] and coords == {"a": P({0: 2})}
    assert peel(coords, basis.get) == {"a": P({0: 2})}
    assert coords == {}


def test_peel_part_subtracts_only_the_bar_invariant_part():
    # over the basis b = b + q^-1 a + c, a = a + c, c = c, d = d (b > a > c > d)
    # the peel with lift takes off the bar-invariant part of each coefficient
    # and leaves the q^-1 Z[q^-1] rest in place; d has nothing to take off
    one = LaurentPoly.one()
    basis = {B: {B: one, A: P({-1: 1}), C: one}, A: {A: one, C: one},
             C: {C: one}, D: {D: one}}
    coords = {B: P({1: 1}), A: P({1: 1, 0: 2, -1: 1}), C: P({-2: 1}), D: P({-3: -1})}
    out = peel(coords, basis.get, lift=True)
    assert list(out.items()) == [
        ("b", P({1: 1, -1: 1})), ("a", P({1: 1, 0: 1, -1: 1})), ("c", P({1: -2, 0: -1, -1: -2})),
    ]
    assert coords == {"b": P({-1: -1}), "a": P({-2: -1}), "c": P({-2: 1}), "d": P({-3: -1})}


# -- the packed form against the dict oracle ------------------------------------

# coefficients at and around the 2^31 limit of the 32-bit digits, and far past it
BOUNDARY = (2**31 - 1, 2**31, 2**31 + 1, 2**32, 2**63, 2**100)


def rand_terms(rng):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        kind = rng.random()
        if kind < 0.7:
            c = rng.randint(-9, 9)
        elif kind < 0.85:
            c = rng.choice((-1, 1)) * rng.randint(2**15, 2**20)
        else:
            c = rng.choice((-1, 1)) * rng.choice(BOUNDARY)
        terms[rng.randint(-6, 6)] = c
    return terms


def rand_pair(rng):
    terms = rand_terms(rng)
    return LaurentPoly(terms), DictLaurent(terms)


def agrees(p, o):
    """Every inspection of the packed p gives what the dict oracle o gives."""
    assert dict(p.items()) == dict(o.items()) and len(p.items()) == len(o.items())
    assert p.degree() == o.degree()
    assert p.in_strictly_negative() == o.in_strictly_negative()
    assert dict(p.bar().items()) == dict(o.bar().items())
    assert dict(p.bar_invariant_part().items()) == dict(o.bar_invariant_part().items())
    assert bool(p) == (not o.is_zero())
    assert p.is_integer() == o.is_integer()
    if o.is_integer():
        assert p.as_integer() == o.as_integer()
    else:
        with pytest.raises(ValueError):
            p.as_integer()
    assert all(p.coeff(e) == o.coeff(e) for e in range(-14, 15))
    assert p.to_json() == o.to_json() and str(p) == str(o)
    for fresh in (from_json(p.to_json()), LaurentPoly(dict(o.items()))):
        assert fresh == p and hash(fresh) == hash(p)


def test_packed_arithmetic_matches_dict_oracle():
    rng = random.Random(9)
    for _ in range(300):
        (a, oa), (b, ob), (c, oc) = rand_pair(rng), rand_pair(rng), rand_pair(rng)
        k = rng.choice((0, 1, -1, 7, -(2**31), 2**40))
        for p, o in ((a, oa), (a + b, oa + ob), (a - b, oa - ob), (a * b, oa * ob), (-a, -oa),
                     (a * P({0: k}), oa.scale(k)), ((a + b) - b, oa), (a * b + c, oa * ob + oc),
                     (a.bar_invariant_part() * b, oa.bar_invariant_part() * ob)):
            agrees(p, o)
        # equality and hashing agree with the oracle, also between values
        # built by different routes, whose l1 bounds differ
        for p, q, op, oq in ((a, b, oa, ob), (a, (a + b) - b, oa, oa), (a * b, b * a, oa * ob, oa * ob)):
            assert (p == q) == (op == oq)
            if p == q:
                assert hash(p) == hash(q)


def test_ring_axioms():
    rng = random.Random(10)
    zero, one = LaurentPoly(), LaurentPoly.one()
    for _ in range(200):
        (a, _), (b, _), (c, _) = rand_pair(rng), rand_pair(rng), rand_pair(rng)
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + zero == a and a * one == a and not a * zero
        assert not a - a and a + (-a) == zero and -(-a) == a
        assert (a * b).bar() == a.bar() * b.bar() and (a + b).bar() == a.bar() + b.bar()


def test_boundary_coefficients_are_exact():
    # every value with a coefficient at or past 2^31 takes the term-by-term
    # path and is packed in wider digits; nothing overflows or loses a bit
    small = {-2: 3, 1: -1}
    t, ot = LaurentPoly(small), DictLaurent(small)
    for big in BOUNDARY:
        for sign in (1, -1):
            terms = {0: sign * big, 2: -1, 3: sign * (big - 1)}
            p, o = LaurentPoly(terms), DictLaurent(terms)
            agrees(p, o)
            for x, ox in ((p * p, o * o), (p * t, o * ot), (p + t, o + ot), (p - p.bar(), o - o.bar()),
                          (p * P({0: -3}), o.scale(-3)), (p * p * p, o * o * o)):
                agrees(x, ox)
            assert (p * t).degree() == 4 and (p * t).coeff(-2) == 3 * sign * big
    # 2^31 - 1 is the largest coefficient of one 32-bit digit; each result
    # below has an l1 norm just past it, in [2^31, 2^32)
    near = LaurentPoly({0: 2**31 - 1, 1: 1})
    agrees(near + LaurentPoly.one(), DictLaurent({0: 2**31, 1: 1}))
    agrees(near + near, DictLaurent({0: 2**32 - 2, 1: 2}))
    a, b = {0: 2**16, 1: 1}, {0: 2**15, 1: 1}
    agrees(LaurentPoly(a) * LaurentPoly(b), DictLaurent(a) * DictLaurent(b))
    agrees(LaurentPoly(a) * P({0: 2**15 + 1}), DictLaurent(a).scale(2**15 + 1))


@pytest.mark.parametrize("b", [2**15 - 2**13, 2**20])
def test_product_bound_crosses_the_limit_with_small_coefficients(b):
    # adding and taking away a term leaves the value but raises its bound by
    # 2b, so the product of two such values passes 2^31 in its bound only:
    # just past it (b = 24576) or far past it
    big = LaurentPoly({5: b})
    x = LaurentPoly({0: 1, 1: 1}) + big - big
    y = LaurentPoly({0: 1, 1: -1}) + big - big
    assert x == LaurentPoly({0: 1, 1: 1}) and y == LaurentPoly({0: 1, 1: -1})
    assert x._m * y._m >= 2**31
    xy = x * y
    agrees(xy, DictLaurent({0: 1, 2: -1}))
    assert xy._m == 2  # the term-by-term path recomputes the exact norm
    agrees(xy * xy, DictLaurent({0: 1, 2: -2, 4: 1}))


def test_sum_cancels_to_zero_across_widths():
    wide = LaurentPoly({0: 2**100, 3: 1})
    minus_wide = LaurentPoly({0: -(2**100)}) + LaurentPoly({3: -1})
    assert not wide + minus_wide and wide + minus_wide == LaurentPoly()
    assert hash(wide + minus_wide) == hash(LaurentPoly())
    # a 64-bit value built from 32-bit ones, cancelled by one built directly
    built = LaurentPoly({0: 2**31 - 1, 1: 1}) + LaurentPoly.one()
    direct = LaurentPoly({0: 2**31, 1: 1})
    assert built == direct and hash(built) == hash(direct)
    assert not built - direct and (direct - built) == LaurentPoly()
    # a wide value whose big term cancels comes back to 32-bit digits
    q = LaurentPoly({0: 2**40, 1: 1}) - LaurentPoly({0: 2**40})
    assert q == LaurentPoly({1: 1}) and hash(q) == hash(LaurentPoly({1: 1}))
    agrees(q * q, DictLaurent({2: 1}))


def test_equal_values_of_32_bit_width_compare_without_width(monkeypatch):
    # two bounds below 2^31 both mean 32-bit digits, so equal (v, n) under
    # different bounds compare equal with no _width call; a bound at 2^31 or
    # past it still goes through _width
    import heckecell.laurent as laurent
    big = LaurentPoly({5: 2**15})
    pairs = [(p, p + big - big)
             for p in (P({0: 1}), P({-1: 1, 1: 1}), P({0: 3, 2: -7, 5: 2**20}))]
    wide, narrow = laurent._new(1, 5, _LIMIT), laurent._new(1, 5, 3)
    calls = []
    monkeypatch.setattr(laurent, "_width", lambda m: calls.append(m) or _width(m))
    for p, q in pairs:
        assert (q._v, q._n) == (p._v, p._n) and q._m != p._m and q._m < _LIMIT
        assert q == p and p == q and not q != p
    assert calls == []
    assert wide != narrow and calls == [_LIMIT, 3]


# -- the one-digit fast paths ----------------------------------------------------

# one digit of 32 bits holds 2^31 - 1 at most; 2^31 and 2^31 + 1 need wider digits
EDGE = (2**31 - 1, 2**31, 2**31 + 1)


def agrees_in_order(p, o):
    """agrees, and the text and JSON forms list the same terms in the same
    order; bar and the bar-invariant part equal (and hash as) the values
    packed afresh from the oracle's terms, carry a bound that holds, and
    multiply like them."""
    agrees(p, o)
    assert list(p.to_json().items()) == list(o.to_json().items())
    big, obig = P({0: 2**20, 1: -3}), DictLaurent({0: 2**20, 1: -3})
    for got, want in ((p.bar(), o.bar()), (p.bar_invariant_part(), o.bar_invariant_part())):
        fresh = LaurentPoly(dict(want.items()))
        assert got == fresh and hash(got) == hash(fresh)
        coeffs = [abs(c) for _, c in want.items()]
        assert got._m >= sum(coeffs) and all(c < 2 ** (_width(got._m) - 1) for c in coeffs)
        agrees(got * big, want * obig)


def test_one_digit_values_match_the_dict_oracle():
    values = [{e: sign * c} for c in EDGE + (1, 7, 2**30 - 1, 2**30) for sign in (1, -1)
              for e in (-3, 0, 2)]
    # two terms whose low digit borrows one from the next, at both widths
    values += [{}, {0: -1, 1: 1}, {-2: -5, 0: 3}, {0: -(2**31 - 1), 1: 1}, {3: -1, 4: -1},
               {0: 1, 1: -1}, {0: -(2**31), 1: 1}, {-1: -(2**31 + 1), 2: -1}]
    for terms in values:
        p, o = LaurentPoly(terms), DictLaurent(terms)
        agrees_in_order(p, o)
        assert (-_LIMIT < p._n < _LIMIT) == (len(terms) < 2 and all(abs(c) < 2**31 for c in terms.values()))
    # a value that cancels to zero
    agrees_in_order(P({2: 5, 3: 1}) - P({3: 1}) - P({2: 5}), DictLaurent())
    # the largest one-digit value built by the packed add, with a bound just
    # below the limit, and its bar-invariant part, which needs a wider digit
    p = P({1: 2**30}) + P({1: 2**30 - 1})
    assert p._m == 2**31 - 1 and p._n == 2**31 - 1
    agrees_in_order(p, DictLaurent({1: 2**31 - 1}))
    assert p.bar_invariant_part() == P({1: 2**31 - 1, -1: 2**31 - 1})


def test_one_digit_values_with_wide_digits():
    # a monomial whose bound reached 2^31 goes through the term-by-term
    # fallback and is packed in 64-bit digits: outside the one-digit range,
    # and every inspection still agrees with the oracle
    wide = [
        (P({2: 2**30}) * P({0: 3}), {2: 3 * 2**30}),
        (P({0: 2**31 - 1}) + P({0: 1}), {0: 2**31}),
        (P({-1: -(2**31 - 1)}) - P({-1: 2}), {-1: -(2**31 + 1)}),
        (P({3: 2**16}) * P({-5: -(2**15)}), {-2: -(2**31)}),
    ]
    for p, terms in wide:
        assert _width(p._m) > 32 and not -_LIMIT < p._n < _LIMIT
        o = DictLaurent(terms)
        agrees_in_order(p, o)
        agrees_in_order(-p, -o)
        assert p == LaurentPoly(terms) and hash(p) == hash(LaurentPoly(terms))
    # the fallback packs a small result at its exact norm, back in one digit
    p = P({0: 2**31 - 1, 1: 1}) + P({0: -(2**31 - 1)}) + P({1: 2})
    assert p._m == 3 and p._n == 3
    agrees_in_order(p, DictLaurent({1: 3}))


# -- the digit loop --------------------------------------------------------------


def packed(digits, w=32) -> int:
    return sum(c << (w * i) for i, c in enumerate(digits))


def seeded_digits(rng, k: int) -> list:
    """k digits, lowest first, with a nonzero bottom and top of either sign,
    interior zeros, and sometimes one digit that fills the l1 norm up to
    2^31 - 1, so the value keeps 32-bit digits."""
    digits = [rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-(2**20), 2**20)))
              for _ in range(k)]
    digits[0] = digits[0] or rng.choice((-1, 1))
    digits[-1] = digits[-1] or rng.choice((-1, 1))
    if rng.random() < 0.3:
        i = rng.randrange(k)
        rest = sum(abs(c) for j, c in enumerate(digits) if j != i)
        digits[i] = rng.choice((-1, 1)) * (2**31 - 1 - rest)
    return digits


def decode_agrees(p, o, v: int, k: int) -> None:
    """agrees_in_order, and coeff at every exponent of the k digits from
    q^v and one past either end."""
    agrees_in_order(p, o)
    assert list(p.items()) == sorted(o.items())
    assert all(p.coeff(e) == o.coeff(e) for e in range(v - 1, v + k + 1))


def test_the_digit_loop_reads_every_digit(cold):
    # the digits come back signed, in exponent order, at 2 to 40 and 64
    # digits: the extremes +-(2^31 - 1), interior zeros, a negative top.  The
    # loop reads the width off the bound alone, so each pattern is packed
    # under two bounds below 2^31 (32-bit digits; most patterns have a larger
    # l1 norm, which the decode never reads) and under 2^31 (64-bit digits)
    top = 2**31 - 1
    rng = random.Random(28)
    patterns = [[top] * 3, [-top] * 3, [top, -top] * 4, [-top, 0, 0, top, 0, -1],
                [1, 0, 0, 0, -top], [-1, -1], [0, 0, 5]]
    patterns += [[rng.randint(-top, top) for _ in range(k - 1)] + [rng.choice((-top, -1, 1, top))]
                 for k in list(range(2, 41)) + [64]]
    for digits in patterns:
        v = rng.randint(-20, 5)
        o = DictLaurent({v + i: c for i, c in enumerate(digits) if c})
        for m, w in ((0, 32), (top, 32), (_LIMIT, 64)):
            laurent._KEPT_JSON.clear()
            p = laurent._new(v, packed(digits, w), m)
            assert list(p.items()) == sorted(o.items())
            assert all(p.coeff(e) == o.coeff(e) for e in range(v - 1, v + len(digits) + 1))
            for _ in range(2):  # cold, then warm where the form is kept
                assert list(p.to_json().items()) == list(o.to_json().items()) and str(p) == str(o)


def test_multi_digit_values_match_the_dict_oracle():
    # seeded values of 1 to 40 digits of 32 bits; every inspection agrees
    # with the oracle, terms in order
    rng = random.Random(2028)
    for k in range(1, 41):
        for _ in range(5):
            v = rng.randint(-20, 5)
            digits = seeded_digits(rng, k)
            terms = {v + i: c for i, c in enumerate(digits) if c}
            p = LaurentPoly(terms)
            assert _width(p._m) == 32 and abs(p._n).bit_length() // 32 + 1 == k
            decode_agrees(p, DictLaurent(terms), v, k)
            decode_agrees(-p, -DictLaurent(terms), v, k)
    # and past 64 digits
    k = 70
    digits = seeded_digits(rng, k)
    terms = {i: c for i, c in enumerate(digits) if c}
    decode_agrees(LaurentPoly(terms), DictLaurent(terms), 0, k)


def test_multi_digit_values_at_and_past_the_limit_decode_by_the_loop():
    # l1 norms of exactly 2^31 and past it pack in 64 or more bits
    rng = random.Random(31)
    for digits in ([2**31 - 1, 0, 1], [-1, 0, 0, 2**31 - 1], [2**31, -3, 0, 7],
                   [5, -(2**31 + 1)], [0, 2**40, 0, -(2**63)]):
        for k in (1, 7, 40):
            digits = digits + [rng.choice((0, -4, 9)) for _ in range(k)] + [-1]
            terms = {i - 3: c for i, c in enumerate(digits) if c}
            p = LaurentPoly(terms)
            assert _width(p._m) > 32
            decode_agrees(p, DictLaurent(terms), -3, len(digits))


# -- the packed bar-invariant part and the shift ---------------------------------


def part_agrees(p) -> None:
    """The bar-invariant part of p against the term-by-term definition on
    the dict oracle: the same value, packed as (v, n, m) exactly as from
    the oracle's terms, so at the same width, with the exact l1 norm as m."""
    want = DictLaurent(dict(p.items())).bar_invariant_part()
    got, fresh = p.bar_invariant_part(), LaurentPoly(dict(want.items()))
    assert dict(got.items()) == dict(want.items())
    assert (got._v, got._n, got._m) == (fresh._v, fresh._n, fresh._m)
    assert got._m == sum(abs(c) for _, c in want.items())
    assert _width(got._m) == _width(fresh._m) and got == fresh and hash(got) == hash(fresh)


def test_bar_invariant_part_matches_the_term_by_term_definition():
    values = [
        {-3: 5, -1: -2, 0: 4, 2: 7}, {-2: 1, 1: 3}, {-5: -9, 4: 2},  # v < 0, top digits >= 0
        {0: 1, 1: -3, 4: 9}, {2: 1, 3: 5, 6: -2}, {1: -1, 2: 2**20},  # v >= 0, several digits
        # a negative digit right at the split borrows one from the digits above it
        {-1: -1, 0: 1}, {-1: -5, 0: 3, 1: 2}, {-1: -1, 2: 1}, {-2: 7, -1: -(2**31 - 1), 0: -1, 1: 1},
        {0: 7}, {0: -(2**31 - 1)}, {-4: 3, 0: -2}, {-1: -1, 0: -1},  # c_0 alone
        # parts whose l1 norm reaches 2^31, and one just below it
        {0: 2**30, 1: 2**30}, {-1: 1, 2: 2**30}, {0: 2, 1: 2**30 - 1}, {0: 1, 1: 2**30 - 1},
        {0: 2**31, 1: 1}, {-2: 2**40, 3: -1}, {-1: -(2**63), 0: 3}, {2: -(2**31)},  # wide inputs
        {}, {-3: 1, -1: 2}, {-1: 2**31},  # no part
    ]
    for terms in values:
        for p in (P(terms), -P(terms)):
            part_agrees(p)
            if p._m < _LIMIT:  # the same digits under an inflated bound of the same width
                part_agrees(laurent._new(p._v, p._n, _LIMIT - 1))
    rng = random.Random(40)
    for k in range(1, 13):
        for _ in range(20):
            v = rng.randint(-k - 2, 3)
            terms = {v + i: c for i, c in enumerate(seeded_digits(rng, k)) if c}
            part_agrees(P(terms))
            part_agrees(laurent._new(v, P(terms)._n, _LIMIT - 1))
            part_agrees(P(rand_terms(rng)))


def test_shifted_is_the_product_by_a_power_of_q():
    rng = random.Random(41)
    big = P({5: 2**15})
    values = [LaurentPoly(), P({0: 1}), P({-2: 3, 5: -1}), P({0: 2**31}), P({1: 2**100, 2: -1}),
              P({0: 1, 1: 1}) + big - big]  # the last with an inflated bound
    values += [P(rand_terms(rng)) for _ in range(200)]
    for p in values:
        for e in (-7, -1, 0, 1, 3, 40):
            got, want = p.shifted(e), p * LaurentPoly.q_power(e)
            assert got == want and hash(got) == hash(want) and _width(got._m) == _width(want._m)
            agrees(got, DictLaurent({k + e: c for k, c in p.items()}))
    assert LaurentPoly().shifted(3)._v == 0


# -- the kept canonical JSON of multi-digit values --------------------------------


@pytest.fixture
def cold():
    """Empties the kept JSON forms, so the next to_json decodes."""
    laurent._KEPT_JSON.clear()


def json_items(p) -> list:
    return list(p.to_json().items())


def test_kept_json_is_a_fresh_dict_on_every_call(cold):
    p = P({-3: 2, 0: -1, 4: 5})
    want = [("4", 5), ("0", -1), ("-3", 2)]
    first = p.to_json()
    assert list(first.items()) == want and (p._v, p._n) in laurent._KEPT_JSON
    first["-3"] = 99
    first["7"] = 1
    del first["4"]
    second = p.to_json()
    assert list(second.items()) == want and second is not p.to_json()
    second.clear()
    assert json_items(p) == want


def test_equal_values_built_by_different_routes_give_identical_json(cold):
    # (1 - 3 q^2)(2 q + q^4) = 2 q - 6 q^3 + q^4 - 3 q^6, with different bounds
    # by each route; whichever route serializes first, every route reads alike
    want = [("6", -3), ("4", 1), ("3", -6), ("1", 2)]
    routes = [
        lambda: P({0: 1, 2: -3}) * P({1: 2, 4: 1}),
        lambda: P({1: 2}) + P({3: -6}) + P({4: 1, 6: -3}),
        lambda: P({1: 5, 3: -6, 4: 1}) - P({1: 3, 6: 3}),
        lambda: from_json({"1": 2, "3": -6, "4": 1, "6": -3}),
        lambda: P({6: -3, 4: 1, 3: -6, 1: 2}),
    ]
    for first in range(len(routes)):
        laurent._KEPT_JSON.clear()
        values = [routes[first]()] + [route() for route in routes]
        assert len({(p._v, p._n) for p in values}) == 1 and len({p._m for p in values}) > 1
        assert all(json_items(p) == want for p in values)
        assert len(laurent._KEPT_JSON) == 1


def test_one_packed_int_at_two_valuations_gives_two_exponent_sets(cold):
    low, high = P({0: 1, 1: 2}), P({5: 1, 6: 2})
    assert low._n == high._n and low._v != high._v
    for _ in range(2):
        assert json_items(low) == [("1", 2), ("0", 1)]
        assert json_items(high) == [("6", 2), ("5", 1)]
        assert json_items(-low) == [("1", -2), ("0", -1)]


def test_values_past_the_limit_decode_by_the_loop_and_are_not_kept(cold):
    rng = random.Random(30)
    for digits in ([2**31 - 1, 0, 1], [-1, 0, 0, 2**31 - 1], [2**30, 2**30], [5, -(2**31 + 1)],
                   [0, 2**40, 0, -(2**63)]):
        digits = digits + [rng.choice((0, -4, 9)) for _ in range(5)] + [-1]
        terms = {i - 3: c for i, c in enumerate(digits) if c}
        p, o = LaurentPoly(terms), DictLaurent(terms)
        assert p._m >= _LIMIT
        for _ in range(2):
            assert json_items(p) == list(o.to_json().items())
            assert json_items(-p) == list((-o).to_json().items())
        assert not laurent._KEPT_JSON


def test_seeded_values_read_alike_cold_and_warm(cold):
    # 1 to 64 digits of 32 bits, and 70: the first call decodes, the second
    # reads the kept form
    rng = random.Random(3030)
    for k in list(range(1, 65)) + [70]:
        for _ in range(3):
            v = rng.randint(-20, 5)
            terms = {v + i: c for i, c in enumerate(seeded_digits(rng, k)) if c}
            p = LaurentPoly(terms)
            want = list(DictLaurent(terms).to_json().items())
            laurent._KEPT_JSON.clear()
            assert json_items(p) == want
            assert json_items(p) == want
            assert len(laurent._KEPT_JSON) == (k > 1)


def test_the_kept_json_memo_never_holds_more_than_its_cap(cold):
    # more distinct two-digit values than the cap, each serialized twice:
    # every form is canonical, cold or warm, and the memo is emptied when
    # it is full instead of growing past the cap
    cap = laurent._KEPT_JSON_CAP
    assert cap >= 10 * 1244
    rng = random.Random(3232)
    sizes = set()
    for k in range(cap + 500):
        terms = {-k % 7: k + 1, 10: rng.choice((-2, 5))}
        p = LaurentPoly(terms)
        want = [(str(e), c) for e, c in sorted(terms.items(), reverse=True)]
        assert json_items(p) == want and json_items(p) == want
        sizes.add(len(laurent._KEPT_JSON))
    assert max(sizes) == cap and min(sizes) == 1


# -- the multiply-accumulate kernel against the per-term operators and the oracle -


def triples(d: dict) -> dict:
    return {k: (p._v, p._n, p._m) for k, p in d.items()}


def add_scaled_per_term(d: dict, a, items) -> None:
    """d[k] = d[k] + a * c term by term, dropping zeros: what the kernel does."""
    for k, c in items:
        total = d.get(k, LaurentPoly()) + a * c
        if total:
            d[k] = total
        elif k in d:
            del d[k]


def kernel_agrees(d: dict, a, items) -> None:
    """add_scaled leaves d with the very (v, n, m) of the per-term sums, and
    with the values of the term-by-term sums old + a * c of the dict oracle;
    each stored bound is at least the exact l1 norm, and its digit width
    holds every coefficient.  a, every c and every value d held before keep
    their (v, n, m): values are immutable."""
    inputs = [(p, p._v, p._n, p._m) for p in [a, *d.values()] + [c for _, c in items]]
    want, got = dict(d), dict(d)
    add_scaled_per_term(want, a, items)
    add_scaled(got, a, items)
    assert all((p._v, p._n, p._m) == (v, n, m) for p, v, n, m in inputs)
    assert triples(got) == triples(want) and list(got) == list(want)
    assert all(got.values())
    oracle = {k: DictLaurent(dict(p.items())) for k, p in d.items()}
    oa = DictLaurent(dict(a.items()))
    for k, c in items:
        oracle[k] = oracle.get(k, DictLaurent()) + oa * DictLaurent(dict(c.items()))
        if oracle[k].is_zero():
            del oracle[k]
    assert {k: dict(p.items()) for k, p in got.items()} == {k: dict(o.items()) for k, o in oracle.items()}
    for p in got.values():
        coeffs = [abs(x) for _, x in p.items()]
        assert p._m >= sum(coeffs) and max(coeffs) < 2 ** (_width(p._m) - 1)


def inflated(terms: dict, b: int) -> LaurentPoly:
    """The polynomial of terms with its l1 bound raised by 2b: adding and
    taking away b q^9 keeps the value and adds to the bound."""
    big = LaurentPoly({9: b})
    return LaurentPoly(terms) + big - big


def test_add_scaled_edge_cases():
    one = LaurentPoly.one()
    # a key that is absent and one that is present
    kernel_agrees({"x": P({0: 1})}, P({1: 2}), [("x", P({0: 3, 1: -1})), ("y", P({-2: 5}))])
    # cancellation to zero at equal valuations deletes the key
    d = {"x": P({0: 3, 1: 1}), "y": one}
    kernel_agrees(d, P({0: -1}), [("x", P({0: 3, 1: 1}))])
    add_scaled(d, P({0: -1}), [("x", P({0: 3, 1: 1}))])
    assert d == {"y": one}
    # cancellation of the low digits strips them: q^0 goes, q^2 leads
    d = {"x": P({0: 1, 2: 1})}
    kernel_agrees(d, P({-1: 1}), [("x", P({1: -1}))])
    add_scaled(d, P({-1: 1}), [("x", P({1: -1}))])
    assert triples(d) == {"x": (2, 1, 3)}
    # two low digits of wider coefficients cancel
    d = {"x": P({0: -5 * 2**10, 1: -(2**20), 2: 1})}
    kernel_agrees(d, P({0: 2**10}), [("x", P({0: 5, 1: 2**10}))])
    add_scaled(d, P({0: 2**10}), [("x", P({0: 5, 1: 2**10}))])
    assert d == {"x": P({2: 1})} and d["x"]._v == 2
    # a zero scalar leaves d alone
    d = {"x": P({0: 1})}
    add_scaled(d, LaurentPoly(), [("x", P({0: -1})), ("y", one)])
    assert triples(d) == {"x": (0, 1, 1)}
    # a product bound that crosses 2^31: by the coefficients, and by the
    # bounds alone while the coefficients stay small
    kernel_agrees({"x": P({0: 1})}, P({0: 2**16}), [("x", P({0: 2**15})), ("y", P({3: -(2**15)}))])
    x, y = inflated({0: 1, 1: 1}, 2**15), inflated({0: 1, 1: -1}, 2**15)
    assert x._m * y._m >= 2**31
    kernel_agrees({"x": one}, x, [("x", y), ("y", y)])
    # a sum bound that crosses 2^31 with both bounds below it, also where
    # the sum cancels down to a small value or to zero
    half = 2**30
    kernel_agrees({"x": P({0: half})}, P({0: 2**15}), [("x", P({0: 2**15}))])
    # a sum bound of exactly 2^31 over two exponents must leave 32-bit digits
    kernel_agrees({"x": P({0: half})}, P({0: 2**15}), [("x", P({1: 2**15}))])
    kernel_agrees({"x": P({0: half, 1: 1})}, P({0: -(2**15)}), [("x", P({0: 2**15}))])
    kernel_agrees({"x": P({0: half})}, P({0: -(2**15)}), [("x", P({0: 2**15}))])
    kernel_agrees({"x": inflated({2: 1}, half)}, one, [("x", inflated({2: 1, 3: 1}, 2**29))])
    # merges into a dict made empty store new values and change no earlier
    # one, and cancelling to zero deletes the key
    a, c1, c2 = P({1: 2, 2: -1}), P({0: 3, 3: 1}), P({-1: 1, 1: 4})
    d = {}
    add_scaled(d, a, [("x", c1)])
    first = d["x"]
    kept = (first._v, first._n, first._m)
    kernel_agrees(d, a, [("x", c2), ("y", c1)])
    add_scaled(d, a, [("x", c2), ("y", c1)])
    assert d["x"] is not first and (first._v, first._n, first._m) == kept
    kernel_agrees(d, -a, [("x", c1 + c2)])
    add_scaled(d, -a, [("x", c1 + c2)])
    assert "x" not in d and triples(d) == triples({"y": a * c1})
    # a merge whose bound crosses 2^31, by the sum of the bounds or by the
    # product bound alone, takes the fallback and stores its exact l1 norm
    for a, c in ((one, P({0: 2**30, 1: 1})),
                 (inflated({0: 1, 1: 1}, 2**15), inflated({0: 1, 1: -1}, 2**15))):
        d = {}
        add_scaled(d, a, [("x", c)])
        first = d["x"]
        assert first._m + a._m * c._m >= _LIMIT
        kernel_agrees(d, a, [("x", c)])
        add_scaled(d, a, [("x", c)])
        assert d["x"] is not first
        assert d["x"]._m == sum(abs(v) for _, v in d["x"].items())


def test_add_scaled_matches_per_term_sums():
    # seeded calls on seeded dicts, with and without the fallback; kernel_agrees
    # also checks that no input value changes
    rng = random.Random(12)
    keys = "abcdef"

    def rand_value():
        terms = rand_terms(rng)
        kind = rng.random()
        if kind < 0.15:
            return inflated(terms, rng.choice((2**14, 2**29, 2**30)))
        return LaurentPoly(terms)

    for _ in range(400):
        d = {k: p for k in rng.sample(keys, rng.randint(0, 4)) if (p := rand_value())}
        kind = rng.random()
        if kind < 0.05:
            a = LaurentPoly()
        elif kind < 0.4:
            a = P({0: rng.choice((1, -1))})
        else:
            a = rand_value()
        items = []
        for _ in range(rng.randint(0, 6)):
            k = rng.choice(keys)
            old = d.get(k)
            kind = rng.random()
            if old and a in (LaurentPoly.one(), P({0: -1})) and kind < 0.5:
                # a * c takes away the old value, or only its lowest term
                low = min(old.items())
                c = -(a * (old if kind < 0.25 else LaurentPoly({low[0]: low[1]})))
            else:
                c = rand_value()
            if c:
                items.append((k, c))
        kernel_agrees(d, a, items)
