"""Exact Laurent polynomials in one variable q with integer coefficients,
and the sparse linear algebra over them that every layer shares.

LaurentPoly is the scalar ring for everything else in this package.  Values
are immutable; all operations return fresh objects.  Coefficients are Python
ints, so they never overflow, and storage is sparse (exponent -> nonzero
coefficient).  LaurentCombination is the one sparse linear-combination type
(key -> nonzero LaurentPoly), and peel is the one elimination run on it: the
expansion of an element in a basis that is unitriangular over it, or, with
part=LaurentPoly.bar_invariant_part, the step that pushes a bar-invariant
element into T_top + sum q^-1 Z[q^-1] T_y (the KL lift).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

NEG_INF = float("-inf")


class LaurentPoly:
    """A Laurent polynomial sum c_e * q^e with integer coefficients."""

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, v in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if v:
                    ne = c.get(e, 0) + v
                    if ne:
                        c[e] = ne
                    elif e in c:
                        del c[e]
        self._c = c
        self._hash = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return _ONE

    @staticmethod
    def const(n: int) -> "LaurentPoly":
        return LaurentPoly({0: n})

    @staticmethod
    def q_power(e: int, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly({e: coeff})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self._c:
            return other
        if not other._c:
            return self
        c = dict(self._c)
        for e, v in other._c.items():
            nv = c.get(e, 0) + v
            if nv:
                c[e] = nv
            elif e in c:
                del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -v for e, v in self._c.items()}
        out._hash = None
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self._c or not other._c:
            return _ZERO
        a, b = self._c, other._c
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((e1, v1),) = a.items()
            if e1 == 0 and v1 == 1:
                return other if a is self._c else self
            c = {e1 + e2: v1 * v2 for e2, v2 in b.items()}
        else:
            c = {}
            for e1, v1 in a.items():
                for e2, v2 in b.items():
                    e = e1 + e2
                    nv = c.get(e, 0) + v1 * v2
                    if nv:
                        c[e] = nv
                    elif e in c:
                        del c[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

    def scale(self, n: int) -> "LaurentPoly":
        if n == 0:
            return _ZERO
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: n * v for e, v in self._c.items()}
        out._hash = None
        return out

    # -- involution and filtration ----------------------------------------

    def bar(self) -> "LaurentPoly":
        """The ring involution q -> q^-1."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {-e: v for e, v in self._c.items()}
        out._hash = None
        return out

    def degree(self):
        """Max exponent, or -inf for the zero polynomial."""
        return max(self._c) if self._c else NEG_INF

    def in_strictly_negative(self) -> bool:
        """True iff the polynomial lies in q^-1 Z[q^-1]."""
        return all(e < 0 for e in self._c)

    def bar_invariant_part(self) -> "LaurentPoly":
        """The bar-invariant mu with self - mu in q^-1 Z[q^-1]: the constant
        term plus c_e (q^e + q^-e) for every term c_e q^e with e > 0."""
        c = {}
        for e, v in self._c.items():
            if e >= 0:
                c[e] = c[-e] = v
        if not c:
            return _ZERO
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

    # -- inspection --------------------------------------------------------

    def coeff(self, e: int) -> int:
        return self._c.get(e, 0)

    def items(self):
        return self._c.items()

    def is_zero(self) -> bool:
        return not self._c

    def is_integer(self) -> bool:
        """True iff the polynomial is a constant (integer)."""
        return not self._c or set(self._c) == {0}

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"not an integer: {self}")
        return self._c.get(0, 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._c.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- serialization -----------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c, reverse=True):
            v = self._c[e]
            sign = "-" if v < 0 else "+"
            mag = abs(v)
            if e == 0:
                body = str(mag)
            else:
                qp = "q" if e == 1 else f"q^{e}"
                body = qp if mag == 1 else f"{mag}*{qp}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"LaurentPoly({self._c!r})"

    def to_json(self) -> dict:
        """JSON object mapping exponent strings to integer coefficients."""
        return {str(e): v for e, v in sorted(self._c.items(), reverse=True)}

    @staticmethod
    def from_json(obj: dict) -> "LaurentPoly":
        return LaurentPoly({int(e): int(v) for e, v in obj.items()})


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})


def xi(weight: int) -> LaurentPoly:
    """q^L(s) - q^-L(s), the coefficient in the quadratic relation of T_s.

    Weight functions are strictly positive on generators, so weight 0 is
    rejected.
    """
    if weight < 1:
        raise ValueError(f"generator weight must be >= 1, got {weight}")
    return LaurentPoly({weight: 1, -weight: -1})


def accumulate(d: dict, key, c: LaurentPoly) -> None:
    """d[key] += c in place, keeping d free of zero values."""
    nc = d.get(key, _ZERO) + c
    if nc:
        d[key] = nc
    elif key in d:
        del d[key]


class LaurentCombination:
    """Finitely supported map key -> LaurentPoly, no zero values.

    Immutable.  Subclasses fix what the keys are; values of different
    concrete types never compare equal.
    """

    __slots__ = ("_d",)

    def __init__(self, d=None):
        self._d = {k: c for k, c in (d or {}).items() if c}

    def _new(self, d: dict):
        out = type(self).__new__(type(self))
        out._d = d
        return out

    def items(self):
        return self._d.items()

    def coeff(self, key) -> LaurentPoly:
        return self._d.get(key, _ZERO)

    def is_zero(self) -> bool:
        return not self._d

    def __len__(self):
        return len(self._d)

    def __eq__(self, other):
        return type(other) is type(self) and self._d == other._d

    def __hash__(self):
        return hash(frozenset(self._d.items()))

    def __add__(self, other):
        d = dict(self._d)
        for k, c in other._d.items():
            accumulate(d, k, c)
        return self._new(d)

    def __sub__(self, other):
        return self + other.scale(LaurentPoly.const(-1))

    def scale(self, a: LaurentPoly):
        if not a:
            return type(self)()
        return self._new({k: c * a for k, c in self._d.items()})

    def __repr__(self):
        return f"{type(self).__name__}({len(self._d)} terms)"


class _Top:
    """Heap entry that pops the largest sort key first."""

    __slots__ = ("k", "w")

    def __init__(self, k, w):
        self.k = k
        self.w = w

    def __lt__(self, other):
        return self.k > other.k


def peel(coords: dict, expand, key, stop=None, part=None) -> dict:
    """Coordinates of `coords` in a basis unitriangular over its keys.

    Repeatedly takes the top key under `key`, records its coefficient c and
    subtracts c * expand(top); expand(top) must carry coefficient 1 on top.
    When stop(top) is true the peel ends with top still in `coords`.
    With part, only part(c) is recorded and subtracted (nothing when it is
    zero), and c - part(c) stays in `coords` at top.  `coords` is consumed
    in place: on return it holds the residual, empty unless stop fired or
    part was given.  expand(top) runs before `coords` changes, so an
    exception from it leaves `coords` as it was before that top.  Returns
    top -> recorded coefficient in descending key order.
    """
    heap = [_Top(key(w), w) for w in coords]
    heapify(heap)
    out = {}
    while heap:
        top = heappop(heap).w
        c = coords.get(top)
        if c is None:
            continue  # the term cancelled after it was queued
        if stop is not None and stop(top):
            break
        mu = c if part is None else part(c)
        if not mu:
            continue
        basis = expand(top)
        if part is None:
            del coords[top]
        else:
            accumulate(coords, top, -mu)
        out[top] = mu
        neg = -mu
        monic = False
        for w, pc in basis.items():
            if w == top:
                monic = pc == _ONE
                continue
            if w not in coords:
                heappush(heap, _Top(key(w), w))
            accumulate(coords, w, neg * pc)
        if not monic:
            raise AssertionError(f"expansion of {top!r} does not carry coefficient 1 on it")
    return out
