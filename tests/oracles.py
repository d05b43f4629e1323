"""References for the library, used only by the tests.

DictLaurent is the sparse dict form of a Laurent polynomial (exponent ->
nonzero coefficient) that the packed LaurentPoly replaced; the property
sweep in test_laurent.py checks the packed arithmetic against it.

The library builds C_w and P(x) along descent chains.  These references
reach the same elements by the other classical route: expand the bar
involution on the whole Bruhat interval and solve the unitriangular system
that pushes every lower coefficient into q^-1 Z[q^-1] (Lusztig, Hecke
algebras with unequal parameters, Thm 5.2).  They share no code with the
chain walk beyond bar_t and the group layer.
"""

from __future__ import annotations

from heckecell.hecke import HeckeElt
from heckecell.laurent import LaurentCombination, LaurentPoly, accumulate

_ZERO = LaurentPoly.zero()
_ONE = LaurentPoly.one()


class DictLaurent:
    """sum c_e q^e stored as {e: c} with no zero values, with the API of
    LaurentPoly; every operation works term by term."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        for e, v in (coeffs or {}).items():
            c[e] = c.get(e, 0) + v
        self._c = {e: v for e, v in c.items() if v}

    def __add__(self, other):
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
        return DictLaurent(c)

    def __neg__(self):
        return DictLaurent({e: -v for e, v in self._c.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        c = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
        return DictLaurent(c)

    def scale(self, n):
        return DictLaurent({e: n * v for e, v in self._c.items()})

    def bar(self):
        return DictLaurent({-e: v for e, v in self._c.items()})

    def degree(self):
        return max(self._c) if self._c else float("-inf")

    def in_strictly_negative(self):
        return all(e < 0 for e in self._c)

    def bar_invariant_part(self):
        c = {}
        for e, v in self._c.items():
            if e >= 0:
                c[e] = c[-e] = v
        return DictLaurent(c)

    def coeff(self, e):
        return self._c.get(e, 0)

    def items(self):
        return self._c.items()

    def is_zero(self):
        return not self._c

    def is_integer(self):
        return not self._c or set(self._c) == {0}

    def as_integer(self):
        if not self.is_integer():
            raise ValueError(f"not an integer: {self}")
        return self._c.get(0, 0)

    def __eq__(self, other):
        return isinstance(other, DictLaurent) and self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if mag == 1 else f"{mag}*{qp}"
            parts.append(("-" if v < 0 else "+", body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def to_json(self):
        return {str(e): v for e, v in sorted(self._c.items(), reverse=True)}


def negative_part(p: LaurentPoly) -> LaurentPoly:
    """The sum of all terms of p with strictly negative exponent."""
    return LaurentPoly({e: v for e, v in p.items() if e < 0})


def solve_unitriangular(top, basis, rows) -> dict:
    """The bar-invariant lift of `top`: the coefficients p_b in q^-1 Z[q^-1]
    making top + sum p_b b bar-invariant.

    basis lists the keys at or below top in an order refining the Bruhat
    order, so top comes last; rows[i] is bar(basis[i]) expanded in basis.
    Returns the nonzero p_b in basis order, top excluded.  Raises
    AssertionError when the bar matrix is not unitriangular, so that no
    unique lift exists.
    """
    m = len(basis) - 1
    if basis[m] != top:
        raise AssertionError(f"{top!r} is not the maximum of its basis")
    for b, row in zip(basis, rows):
        if row.coeff(b) != _ONE:
            raise AssertionError(
                f"bar matrix is not unitriangular: diagonal {row.coeff(b)} at {b!r}")
    coeffs = [_ZERO] * m + [_ONE]
    bars = [_ZERO] * m + [_ONE]
    for j in range(m - 1, -1, -1):
        x = basis[j]
        d = _ZERO
        for i in range(j + 1, m + 1):
            if bars[i]:
                r = rows[i].coeff(x)
                if r:
                    d = d + bars[i] * r
        # solve c - bar(c) = d with c strictly negative
        if d.coeff(0):
            raise AssertionError(
                f"bar matrix lost unitriangularity: c - bar(c) = {d} at {x!r}")
        coeffs[j] = negative_part(d)
        bars[j] = coeffs[j].bar()
    return {b: c for b, c in zip(basis, coeffs[:m]) if c}


def kl_basis(hecke, w) -> HeckeElt:
    """C_w by the bar solve over the whole interval [e, w]."""
    weyl = hecke.weyl
    interval = sorted(weyl.bruhat_interval(w), key=weyl.sort_key)
    d = solve_unitriangular(w, interval, [hecke.bar_t(y) for y in interval])
    d[w] = _ONE
    return HeckeElt(d)


def relative_kl_right(lowest, x) -> dict:
    """The right-handed family x' -> p^r_{x',x} over x' in X_0^-1: the
    module C_{z w_0} T_x, whose bar involution is bar(T_y) with each term
    T_{v y'} (v in W_0, y' minimal in W_0 y') pushed to q^{L(v)} T_{y'}."""
    if not lowest.is_in_x0_inv(x):
        raise ValueError(f"{x!r} is not a minimal coset representative")
    weyl, ws = lowest.weyl, lowest.ws
    basis = sorted((y for y in weyl.bruhat_interval(x) if lowest.is_in_x0_inv(y)),
                   key=weyl.sort_key)
    rows = []
    for y in basis:
        row = {}
        for w, c in lowest.hecke.bar_t(y).items():
            rep, v = lowest._right_coset_part(w)
            accumulate(row, rep, c * LaurentPoly.q_power(ws.finite_weight(v.finite)))
        rows.append(LaurentCombination(row))
    return solve_unitriangular(x, basis, rows)


def p_element_right(lowest, x) -> HeckeElt:
    """P_R(x) = T_x + sum p^r_{x',x} T_{x'}, by the right-handed solve."""
    return HeckeElt({**relative_kl_right(lowest, x), x: _ONE})
