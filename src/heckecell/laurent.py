"""Exact Laurent polynomials in one variable q with integer coefficients,
and the sparse linear algebra over them that every layer shares.

LaurentPoly is the scalar ring for everything else in this package.  Values
are immutable; all operations return fresh objects.  A value is packed
into one Python int: the coefficients c_0, c_1, ... of q^v, q^(v+1), ...
are the balanced digits (|c_i| < 2^(W-1)) of n = sum c_i 2^(W i), where v
is the lowest exponent with a nonzero coefficient.  A sum is a shift and an
int add, a product is one int multiply.  Each value also carries m, an
upper bound on its l1 norm sum |c_i|; since l1(ab) <= l1(a) l1(b),
l1(a + b) <= l1(a) + l1(b) and max |c_i| <= l1, a result whose bound stays
below 2^31 is exact in W = 32 bits.  Any other result is computed term by
term, its bound set to the exact l1 norm, and packed in the least multiple
of 32 bits that holds it, so coefficients of any size stay exact.
A value with -_LIMIT < n < _LIMIT is one digit at every width, the
monomial n q^v (most KL coefficients are); _terms, degree, to_json,
in_strictly_negative and bar_invariant_part read it off (v, n) without
decoding.  A longer value is decoded by the one digit loop of _terms, at
the width of its bound.  to_json keeps the canonical form of each longer
value of 32-bit width under its packed (v, n), which names one polynomial
at that width, and hands out copies, so each is decoded once per process
(467 distinct among the 13,256 multi-digit coefficients of the cellular
bench workload).  The memo is emptied when it reaches _KEPT_JSON_CAP
entries, far above the 1,244 a kl-sweep bench pass keeps (about 0.6 kB
each).  Racing threads store equal entries.  The text form (str) is read
off the same form.
LaurentCombination is the one sparse linear-combination type (key ->
nonzero LaurentPoly).  add_scaled is the one multiply-accumulate on such
dicts (d[k] += a * c over many terms): it does the ring arithmetic on the
packed ints and holds the term-by-term fallback, and the +, - and * of
LaurentPoly are calls of it.  Two methods pack fields without it:
bar_invariant_part packs its mirror from the decoded digits, and shifted
(c q^e) moves the lowest exponent.
peel is the one elimination run on them, longest key first: the expansion
of an element in a basis that is unitriangular over it, or, with lift, the
step that pushes a bar-invariant element into T_top + sum q^-1 Z[q^-1] T_y
(the KL lift), which skips the tops in q^-1 Z[q^-1] by their packed degree.
"""

from __future__ import annotations

NEG_INF = float("-inf")

_W = 32  # digit width of every value whose l1 bound is below _LIMIT
_LIMIT = 1 << (_W - 1)
_MASK = (1 << _W) - 1


def _width(m: int) -> int:
    """The digit width of a value with l1 bound m: the least multiple of 32
    above the bit length of m, so 32 for m < 2^31 and |c| <= m < 2^(width-1)."""
    return _W * (m.bit_length() // _W + 1)


def _encode(terms: dict) -> tuple:
    """(v, n, m) of {exponent: coefficient}, with m the exact l1 norm."""
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        return 0, 0, 0
    m = sum(map(abs, terms.values()))
    w = _width(m)
    v = min(terms)
    return v, sum(c << (w * (e - v)) for e, c in terms.items()), m


class LaurentPoly:
    """A Laurent polynomial sum c_e * q^e with integer coefficients."""

    __slots__ = ("_v", "_n", "_m")

    def __init__(self, coeffs=None):
        self._v, self._n, self._m = _encode(coeffs or {})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def q_power(e: int) -> "LaurentPoly":
        return LaurentPoly({e: 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = {0: self} if self._n else {}
        add_scaled(d, _ONE, ((0, other),))
        return d.get(0, _ZERO)

    def __neg__(self) -> "LaurentPoly":
        return _new(self._v, -self._n, self._m)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        d = {}
        add_scaled(d, self, ((0, other),))
        return d.get(0, _ZERO)

    # -- involution and filtration ----------------------------------------

    def bar(self) -> "LaurentPoly":
        """The ring involution q -> q^-1."""
        return LaurentPoly({-e: c for e, c in self._terms().items()})

    def degree(self):
        """Max exponent, or -inf for the zero polynomial.  One digit
        (-_LIMIT < n < _LIMIT) is the monomial n q^v, of degree v.  Else,
        with |c| below 2^(width-1), the top digit at index k puts |n| in
        (2^(width*k - 1), 2^(width*k + width - 1))."""
        n = self._n
        if -_LIMIT < n < _LIMIT:
            return self._v if n else NEG_INF
        return self._v + abs(n).bit_length() // _width(self._m)

    def in_strictly_negative(self) -> bool:
        """True iff the polynomial lies in q^-1 Z[q^-1].  One digit is the
        monomial n q^v, as in degree."""
        n = self._n
        if -_LIMIT < n < _LIMIT:
            return not n or self._v < 0
        return self.degree() < 0

    def bar_invariant_part(self) -> "LaurentPoly":
        """The bar-invariant mu with self - mu in q^-1 Z[q^-1]: the constant
        term plus c_e (q^e + q^-e) for every term c_e q^e with e > 0.  At
        32-bit width the digits at exponents >= 0 are split off n by one
        balanced shift (the balanced digits below them sum to less than half
        its unit) and decoded by the digit loop of _terms; the mirror is
        packed directly, lowest exponent -deg, with its exact l1 norm as its
        bound.  A result whose norm reaches 2^31, and a wider input, are
        packed from their terms."""
        deg = self.degree()
        if deg < 0:
            return _ZERO
        n, v, m = self._n, self._v, self._m
        if m < _LIMIT:
            if v < 0:
                s = _W * -v
                n, v = (n + (1 << (s - 1))) >> s, 0
            terms = _new(v, n, m)._terms()
            c0 = terms.get(0, 0)
            m = 2 * sum(map(abs, terms.values())) - abs(c0)
            if m < _LIMIT:
                low = sum(c << (_W * (deg - e)) for e, c in terms.items())
                return _new(-deg, low + ((n - c0) << (_W * (deg + v))), m)
        else:
            terms = self._terms()
        c = {}
        for e, x in terms.items():
            if e >= 0:
                c[e] = c[-e] = x
        return LaurentPoly(c)

    def shifted(self, e: int) -> "LaurentPoly":
        """self * q^e: the lowest exponent moves by e, the digits and the
        bound stay, exact at every width."""
        return _new(self._v + e, self._n, self._m) if self._n else self

    # -- inspection --------------------------------------------------------

    def _terms(self) -> dict:
        """{exponent: nonzero coefficient} in ascending exponent order.  One
        digit (-_LIMIT < n < _LIMIT) is {v: n}; else the digits are decoded
        at the width of the bound, lowest first."""
        n, e = self._n, self._v
        if -_LIMIT < n < _LIMIT:
            return {e: n} if n else {}
        out = {}
        w = _width(self._m)
        mask, half = (1 << w) - 1, 1 << (w - 1)
        while n:
            c = n & mask
            n >>= w
            if c >= half:  # a negative digit borrowed one from the rest
                c -= mask + 1
                n += 1
            if c:
                out[e] = c
            e += 1
        return out

    def coeff(self, e: int) -> int:
        return self._terms().get(e, 0)

    def items(self):
        return self._terms().items()

    def is_integer(self) -> bool:
        """True iff the polynomial is a constant (integer)."""
        return not self._n or (self._v == 0 and self.degree() == 0)

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"not an integer: {self}")
        return self._n

    def __eq__(self, other) -> bool:
        # equal (v, n) decode alike only at equal widths; the width is a
        # function of the polynomial, since every bound from 2^31 up is exact,
        # and two bounds below 2^31 both mean 32-bit digits
        return (isinstance(other, LaurentPoly) and self._n == other._n and self._v == other._v
                and ((self._m | other._m) < _LIMIT or _width(self._m) == _width(other._m)))

    def __hash__(self):
        return hash((self._v, self._n))

    def __bool__(self) -> bool:
        return bool(self._n)

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        """The text form, read off the canonical form of to_json, so a
        longer value of 32-bit width is decoded once per process."""
        if not self._n:
            return "0"
        text = ""
        for e, v in self.to_json().items():
            mag = abs(v)
            qp = "q" if e == "1" else f"q^{e}"
            body = str(mag) if e == "0" else qp if mag == 1 else f"{mag}*{qp}"
            sign = "-" if v < 0 else "+"
            text += (f" {sign} " if text else "-" * (v < 0)) + body
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({self._terms()!r})"

    def to_json(self) -> dict:
        """JSON object mapping exponent strings to integer coefficients,
        highest exponent first, a fresh dict on every call.  A longer value
        is read off _terms: one of 32-bit width on its first call, then kept
        in _KEPT_JSON; a wider one on every call."""
        n = self._n
        if -_LIMIT < n < _LIMIT:
            return {str(self._v): n} if n else {}
        key, narrow = (self._v, n), self._m < _LIMIT
        kept = _KEPT_JSON.get(key) if narrow else None
        if kept is not None:
            return kept.copy()
        out = {str(e): v for e, v in reversed(self._terms().items())}
        if not narrow:
            return out
        if len(_KEPT_JSON) >= _KEPT_JSON_CAP:
            _KEPT_JSON.clear()
        _KEPT_JSON[key] = out
        return out.copy()


# to_json's kept forms of longer values of 32-bit width, (v, n) -> canonical
# JSON, emptied when it holds _KEPT_JSON_CAP of them
_KEPT_JSON = {}
_KEPT_JSON_CAP = 1 << 14


_alloc = object.__new__


def _new(v: int, n: int, m: int) -> LaurentPoly:
    out = _alloc(LaurentPoly)
    out._v, out._n, out._m = v, n, m
    return out


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})
_MINUS_ONE = LaurentPoly({0: -1})


def xi(weight: int) -> LaurentPoly:
    """q^L(s) - q^-L(s), the coefficient in the quadratic relation of T_s.

    Weight functions are strictly positive on generators, so weight 0 is
    rejected.
    """
    if weight < 1:
        raise ValueError(f"generator weight must be >= 1, got {weight}")
    return LaurentPoly({weight: 1, -weight: -1})


def add_scaled(d: dict, a: LaurentPoly, items) -> None:
    """d[k] += a * c for every (k, c) in items, in place, keeping d free of
    zero values (d must hold none to begin with).

    The one place that does arithmetic on the packed fields: +, - and *
    of LaurentPoly are one-term calls of it.  The product is
    (v_a + v_c, n_a n_c) with bound m_a m_c, and the merge with the old
    value is a shift, an add and a strip of zero low digits.  When the
    product bound, or the bound of the sum, reaches 2^31, the new value is
    instead merged term by term from the decoded old, a and c and packed
    with its exact l1 norm: the package's only term-by-term fallback.
    Every value add_scaled stores is a new LaurentPoly; no value already in
    d, or anywhere else, is changed.
    """
    na = a._n
    if not na:
        return
    va, ma = a._v, a._m
    get = d.get
    for k, c in items:
        n2 = na * c._n
        if not n2:
            continue
        m = ma * c._m
        old = get(k, _ZERO)
        n = old._n
        if not n:
            if m < _LIMIT:
                out = _alloc(LaurentPoly)
                out._v, out._n, out._m = va + c._v, n2, m
                d[k] = out
                continue
        else:
            m += old._m
            if m < _LIMIT:
                v, v2 = old._v, va + c._v
                if v == v2:
                    n += n2
                    if not n:
                        del d[k]
                        continue
                    while not n & _MASK:
                        n >>= _W
                        v += 1
                elif v < v2:
                    n += n2 << (_W * (v2 - v))
                else:
                    n = n2 + (n << (_W * (v - v2)))
                    v = v2
                out = _alloc(LaurentPoly)
                out._v, out._n, out._m = v, n, m
                d[k] = out
                continue
        terms = old._terms()
        tc = c._terms().items()
        for e1, c1 in a._terms().items():
            for e2, c2 in tc:
                terms[e1 + e2] = terms.get(e1 + e2, 0) + c1 * c2
        total = LaurentPoly(terms)
        if total:
            d[k] = total
        elif k in d:
            del d[k]


class LaurentCombination:
    """Finitely supported map key -> LaurentPoly, no zero values.

    Immutable.  Subclasses fix what the keys are; values of different
    concrete types never compare equal.
    """

    __slots__ = ("_d",)

    def __init__(self, d=None):
        self._d = {k: c for k, c in (d or {}).items() if c}

    @classmethod
    def _new(cls, d: dict):
        """An element holding d itself, which must be free of zero values."""
        out = cls.__new__(cls)
        out._d = d
        return out

    def items(self):
        return self._d.items()

    def coeff(self, key) -> LaurentPoly:
        return self._d.get(key, _ZERO)

    def __len__(self):
        return len(self._d)

    def __eq__(self, other):
        return type(other) is type(self) and self._d == other._d

    def __hash__(self):
        return hash(frozenset(self._d.items()))

    def __add__(self, other):
        d = dict(self._d)
        add_scaled(d, _ONE, other._d.items())
        return self._new(d)

    def __sub__(self, other):
        d = dict(self._d)
        add_scaled(d, _MINUS_ONE, other._d.items())
        return self._new(d)

    def __repr__(self):
        return f"{type(self).__name__}({len(self._d)} terms)"


def peel(coords: dict, expand, lift: bool = False) -> dict:
    """Coordinates of `coords` in a basis unitriangular over its keys.

    Takes the keys longest first (key.length(); the order within one length
    does not matter), records the coefficient c of each top and subtracts
    c * expand(top); expand(top) must carry coefficient 1 on top and only
    strictly shorter keys besides, as a Bruhat-triangular basis does.
    With lift (the KL lift), only the bar-invariant part of c is recorded
    and subtracted, and c minus it stays in `coords` at top; a c in
    q^-1 Z[q^-1], whose part is 0, is skipped before any call, its degree
    read off (v, n) at 32-bit width.  `coords` must hold no zero value and
    is consumed in place: on return it holds the residual, empty unless
    lift is set.  expand(top) runs and is checked before `coords` changes,
    so an exception from it, or an AssertionError on it, leaves `coords`
    as it was before that top.  Returns top -> recorded coefficient,
    longest first.
    """
    by_length = {}
    for w in coords:
        by_length.setdefault(w.length(), []).append(w)
    out = {}
    while by_length:
        n = max(by_length)
        for top in by_length.pop(n):
            c = coords.get(top)
            if c is None:
                continue  # the term cancelled after it was queued
            if lift:
                if (c._v + abs(c._n).bit_length() // _W if c._m < _LIMIT else c.degree()) < 0:
                    continue
                c = c.bar_invariant_part()
            basis = expand(top)
            monic = False
            for w, pc in basis.items():
                m = w.length()
                if m >= n:
                    if w == top:
                        monic = pc == _ONE
                        continue
                    raise AssertionError(f"expansion of {top!r} holds {w!r}, which is not shorter")
                if w not in coords:
                    by_length.setdefault(m, []).append(w)
            if not monic:
                raise AssertionError(f"expansion of {top!r} does not carry coefficient 1 on it")
            out[top] = c
            # the 1 on top takes c off it: all of it, or its bar-invariant part
            add_scaled(coords, -c, basis.items())
    return out
