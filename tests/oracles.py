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

The rational alcove walk (exact Fraction points) checks the integer root
shifts and hyperplane weights of the group layer and rootdata, and the
descent scan finite_descent checks the closed-form coset representatives.

decompose_P_omega and phi_form are the whole-algebra routes that the X_0
coset module replaced, decompose_P_tau is the factor-by-factor route that
the peel of Q_tau replaced, factorizations is the scan of z' over B_0
that the chamber of the alcove replaced, dominant_weights_up_to is the
search over the dominant cone that the closed form replaced, and
degree_bound builds the hyperplane sets that the per-root interval of
Hecke.degree_bound replaced; the tests compare both sides.

Two probes are shared by the test files: count_calls counts the calls of
a method, and terms_read tells whether an element holds its T-coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from heckecell.hecke import HeckeElt
from heckecell.laurent import LaurentCombination, LaurentPoly, add_scaled, peel

_ZERO = LaurentPoly()
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


def decompose_P_omega(cs, omega, lam) -> dict:
    """CellularStructure.decompose_P_omega in the whole algebra: the KL
    expansion of P(omega) C_{w_0 p_lam}, each term C_w read as alpha with
    w p_-lam w_0 = p_alpha."""
    hecke, weyl = cs.hecke, cs.weyl
    w0 = weyl.longest_finite
    prod = hecke.mul(cs.lowest.p_element_omega(omega), hecke.kl_basis(w0 * weyl.translation(lam)))
    shift = weyl.translation(tuple(-a for a in lam))
    out = {}
    for w, c in hecke.kl_expand(prod).items():
        g = w * shift * w0
        if g.finite != 0:
            raise AssertionError(f"KL term {w!r} is not of the form C_(p_alpha w_0 p_lam)")
        out[g.translation] = c.as_integer()
    return out


def decompose_P_tau(cs, tau) -> dict:
    """CellularStructure.decompose_P_tau factor by factor: starting from
    C_{w_0}, each factor P(omega) of P(tau) acts on every term C_{p_tau' w_0}
    through the library's decompose_P_omega at lam = -nu(tau'), whose keys
    alpha give the terms C_{p_{tau' + alpha} w_0}.  Keyed by -tau'."""
    ws = cs.ws
    profile = {(0,) * ws.rank: 1}  # keyed by dominant tau'
    for i, fw in enumerate(ws.fundamental_weights):
        for _ in range(tau[i] // ws.b[i]):
            nxt = {}
            for tp, mult in profile.items():
                for alpha, a in cs.decompose_P_omega(fw, tuple(-x for x in ws.nu(tp))).items():
                    key = tuple(x + y for x, y in zip(tp, alpha))
                    if not ws.is_dominant(key):
                        raise AssertionError(f"profile left the dominant cone at {key}")
                    nxt[key] = nxt.get(key, 0) + mult * a
            profile = {k: v for k, v in nxt.items() if v}
    return {tuple(-x for x in k): v for k, v in profile.items()}


def dominant_weights_up_to(cs, length_budget) -> list:
    """CellularStructure.dominant_weights_up_to by breadth-first search from
    0 along the fundamental L-weights, measuring l(p_tau) of every weight
    reached and extending only those within the budget."""
    ws, weyl = cs.ws, cs.weyl
    out = []
    frontier = [(0,) * ws.rank]
    seen = set(frontier)
    while frontier:
        nxt = []
        for tau in frontier:
            if weyl.translation(tau).length() <= length_budget:
                out.append(tau)
                for fw in ws.fundamental_weights:
                    t2 = tuple(a + b for a, b in zip(tau, fw))
                    if t2 not in seen:
                        seen.add(t2)
                        nxt.append(t2)
        frontier = nxt
    return sorted(out)


def phi_form(cs, z, zp) -> dict:
    """CellularStructure.phi_form in the whole algebra: the product
    C_{w_0 z^-1} C_{z' w_0} peeled against the P(tau) C_{w_0}, each built
    as a product; every top must factor as (e, tau, e)."""
    hecke, weyl, lowest = cs.hecke, cs.weyl, cs.lowest
    w0 = weyl.longest_finite
    e = weyl.identity
    prod = hecke.mul(hecke.kl_basis(w0 * z.inverse()), hecke.kl_basis(zp * w0))
    taus = {}

    def expand(top):
        [(z, tau, zp)] = factorizations(lowest, top)
        if z != e or zp != e:
            raise AssertionError(f"product left M_+ at {top!r}")
        taus[top] = tau
        return hecke.mul(lowest.p_element_tau(tau), hecke.kl_basis(w0))

    return {taus[top]: c for top, c in peel(dict(prod.items()), expand).items()}


def factorizations(lowest, w) -> list:
    """Every (z, tau, z') with w = z p_tau w_0 z'^-1, all lengths additive,
    by a scan of z' over all of B_0; z is the box element over the finite
    part of x = w z' w_0."""
    weyl, ws = lowest.weyl, lowest.ws
    w0 = weyl.longest_finite
    out = []
    for zp in lowest.box_elements():
        u = w * zp
        if u.length() != w.length() - zp.length():
            continue
        x = u * w0
        if x.length() != u.length() - w0.length() or not lowest.is_in_x0(x):
            continue
        z = weyl.box_over[x.finite]
        mu = (z.inverse() * x).translation
        if not ws.in_lattice(mu) or not ws.is_dominant(mu):
            continue
        if x.length() != z.length() + weyl.translation(mu).length():
            continue
        out.append((z, mu, zp))
    return out


def relative_kl_right(lowest, x) -> dict:
    """The right-handed family x' -> p^r_{x',x} over x' in X_0^-1: the
    module C_{z w_0} T_x, whose bar involution is bar(T_y) with each term
    T_{v y'} (v in W_0, y' minimal in W_0 y') pushed to q^{L(v)} T_{y'}."""
    if not lowest.is_in_x0(x.inverse()):
        raise ValueError(f"{x!r} is not a minimal coset representative")
    weyl = lowest.weyl
    basis = sorted((y for y in weyl.bruhat_interval(x) if lowest.is_in_x0(y.inverse())),
                   key=weyl.sort_key)
    rows = []
    for y in basis:
        row = {}
        for w, c in lowest.hecke.bar_t(y).items():
            rep, v = right_coset_part(lowest, w)
            add_scaled(row, LaurentPoly.q_power(v.weight_length()), [(rep, c)])
        rows.append(LaurentCombination(row))
    return solve_unitriangular(x, basis, rows)


def p_element_right(lowest, x) -> HeckeElt:
    """P_R(x) = T_x + sum p^r_{x',x} T_{x'}, by the right-handed solve."""
    return HeckeElt({**relative_kl_right(lowest, x), x: _ONE})


def right_coset_part(lowest, w):
    """(y, v) with w = v . y, v in W_0, y minimal in W_0 w."""
    weyl = lowest.weyl
    v = weyl.identity
    while (i := finite_descent(weyl, w, "left")) is not None:
        w = weyl.gen_mul_left(i, w)
        v = v * weyl.gens[i]
    return w, v


def finite_descent(weyl, w, side):
    """The first finite simple generator s with l(sw) < l(w) (side "left")
    or l(ws) < l(w) (side "right"), or None: w is minimal in W_0 w, or in
    w W_0, exactly when there is none."""
    for i in weyl.ws.simple_to_gen:
        g = weyl.gen_mul_left(i, w) if side == "left" else w * weyl.gens[i]
        if g.length() < w.length():
            return i
    return None


def base_point(weyl):
    """Barycenter of A_0: exact rational interior point."""
    m = weyl.ws.highest_coroot_root.covector
    return tuple(Fraction(1, c * (len(m) + 1)) for c in m)


def point_pairing(point, root) -> Fraction:
    return sum(Fraction(p) * c for p, c in zip(point, root.covector))


def alcove_floors(weyl, point):
    """Per-root floor of the pairing: identifies the alcove of the point."""
    return tuple(_floor(point_pairing(point, r)) for r in weyl.ws.positive_roots)


def alcove_walk(weyl, word) -> tuple:
    """The rational point reached by walking the faces named by the word,
    starting from A_0 (Pi fixes A_0, so no Pi part enters): the fixed
    generator reflections applied to the base point, in word order."""
    pt = base_point(weyl)
    for i in word:
        s = weyl.gens[i]
        pt = tuple(a + b for a, b in zip(weyl.ws.act(pt, s.finite), s.translation))
    return pt


def locate(weyl, target):
    """The element g with target inside the alcove A_0.g (walk by walls)."""
    ws = weyl.ws
    cur = base_point(weyl)
    g = weyl.identity
    target = tuple(Fraction(t) for t in target)
    for _ in range(10000):
        crossings = []
        for r in ws.positive_roots:
            a = point_pairing(cur, r)
            b = point_pairing(target, r)
            if b == a:
                continue
            # first integer level crossed by the segment cur -> target;
            # interior points never sit on a hyperplane, so a is not an
            # integer and floor gives the adjacent levels on both sides
            k = _floor(a) + 1 if b > a else _floor(a)
            if not (min(a, b) < Fraction(k) < max(a, b)):
                continue
            t = (Fraction(k) - a) / (b - a)
            crossings.append((t, r, k))
        if not crossings:
            return g
        t0, r0, k0 = min(crossings, key=lambda c: c[0])
        # reflect the current point across H_{r0,k0}; track the element
        c = point_pairing(cur, r0) - k0
        cur = tuple(cur[j] - c * r0.vector[j] for j in range(ws.rank))
        g = g * weyl.element(ws.w0_index[r0.reflection_matrix()], tuple(k0 * v for v in r0.vector))
    raise RuntimeError("alcove walk did not terminate")


def wall_images(weyl, g):
    """Images of the walls of A_0 under g, each as (root index, level),
    tagged with the generator index whose face they carry."""
    ws = weyl.ws
    walls = [(ws.simple_roots[k], 0, ws.simple_to_gen[k]) for k in range(ws.rank)]
    walls.append((ws.highest_coroot_root, 1, ws.affine_gen))
    out = []
    for root, level, gen_idx in walls:
        tgt, sign = ws.w0_root_action[g.finite][root.index]
        cov = ws.positive_roots[tgt].covector
        shift = sum(g.translation[i] * cov[i] for i in range(ws.rank))
        out.append(((tgt, sign * level + shift), gen_idx))
    return out


def separating_hyperplanes(weyl, x, y) -> set:
    """All (root index, level k) with H_{alpha,k} strictly between the
    alcoves of x and y, level by level from their shifts."""
    out = set()
    for r, cx, cy in zip(weyl.ws.positive_roots, x.shifts, y.shifts):
        lo, hi = sorted((cx, cy))
        out.update((r.index, k) for k in range(lo + 1, hi + 1))
    return out


def degree_bound(hecke, x, y) -> int:
    """c_{x,y} from the set H_{x,y} = H(e, y) & H(y, xy): the largest level
    weight of each direction, summed."""
    weyl, roots = hecke.weyl, hecke.ws.positive_roots
    h_set = separating_hyperplanes(weyl, weyl.identity, y) & separating_hyperplanes(weyl, y, x * y)
    best = {}
    for r, k in h_set:
        best[r] = max(best.get(r, 0), roots[r].level_weight(k))
    return sum(best.values())


def hyperplane_weight(weyl, root_index: int, k: int) -> int:
    """L_H for H_{alpha,k}, read from the face type of an adjacent alcove.

    Picks a generic point on H, steps epsilon off it on either side,
    locates those alcoves by an exact walk, and transports the shared face
    back to a wall of A_0; the generator type found there gives the weight.
    Independent of the weights that rootdata derives.
    """
    ws = weyl.ws
    root = ws.positive_roots[root_index]
    denom = ws.pairing(root.vector, root)
    eps = Fraction(1, 2 * 997 * 1009 * max(denom, 1))
    for jiggle in range(1, 40):
        probe = tuple(jiggle * c for c in _generic_point(ws.rank))
        shift = Fraction(k) - point_pairing(probe, root)
        on_h = tuple(p + shift * Fraction(v, denom) for p, v in zip(probe, root.vector))
        # on_h must be generic on H: away from every other hyperplane
        ok = True
        for r in ws.positive_roots:
            if r.index == root_index:
                continue
            pr = point_pairing(on_h, r)
            margin = eps * abs(ws.pairing(root.vector, r)) + eps
            if abs(pr - Fraction(_round(pr))) <= margin:
                ok = False
                break
        if not ok:
            continue
        for side in (-1, 1):
            base = tuple(p + side * eps * Fraction(v, denom) for p, v in zip(on_h, root.vector))
            g = locate(weyl, base)
            for (tgt, lvl), gen_idx in wall_images(weyl, g):
                if tgt == root_index and lvl == k:
                    return ws.params[gen_idx]
    raise AssertionError("no adjacent alcove face found on the hyperplane")


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _round(x: Fraction) -> int:
    return _floor(x + Fraction(1, 2))


def _generic_point(rank: int):
    primes = (997, 1009, 1013, 1019)
    return tuple(Fraction(1, primes[i]) for i in range(rank))


def f_constants_subsets(hecke, x, y) -> dict:
    """T_x T_y = sum f_{x,y,z} T_z by brute-force enumeration of the subset
    formula: subsets I of positions of a reduced word of x, kept when each
    deleted letter is a descent of the partial product, each contributing
    the product of its xi factors on T_{x_I y}.
    """
    weyl = hecke.weyl
    pi_idx, word = weyl.reduced_word(x)
    n = len(word)
    pi = weyl.pi_elements[pi_idx]
    out = {}
    for p in range(n + 1):
        for subset in combinations(range(n), p):
            omitted = set(subset)
            ok = True
            factor = _ONE
            cur = y
            # walk letters from the right end of the word
            for pos in range(n - 1, -1, -1):
                s = weyl.gens[word[pos]]
                if pos in omitted:
                    if (s * cur).length() >= cur.length():
                        ok = False
                        break
                    factor = factor * hecke.xi[word[pos]]
                else:
                    cur = s * cur
            if ok:
                add_scaled(out, factor, [(pi * cur, _ONE)])
    return {w: c for w, c in out.items() if c}


def h_constants(hecke, x, y) -> dict:
    """C_x C_y = sum h_{x,y,z} C_z."""
    return hecke.kl_expand(hecke.mul(hecke.kl_basis(x), hecke.kl_basis(y)))


def cell_preorder_graph(hecke, bound: int):
    """Left/right/two-sided preorder edges among elements of length <=
    bound.  Truncated: valid for confirming relations, never refuting."""
    weyl = hecke.weyl
    nodes = list(weyl.enumerate_elements(bound))
    node_set = set(nodes)
    left = {w: set() for w in nodes}
    for y in nodes:
        for pi in weyl.pi_elements:
            z = pi * y
            if z in node_set:
                left[y].add(z)
        for i in range(weyl.ws.num_gens):
            for z in h_constants(hecke, weyl.gens[i], y):
                if z in node_set:
                    left[y].add(z)
    right = {w: set() for w in nodes}
    for y in nodes:
        yi = y.inverse()
        if yi not in node_set:
            continue
        for zi in left[yi]:
            z = zi.inverse()
            if z in node_set:
                right[y].add(z)
    return PreorderGraph(nodes, left, right)


class PreorderGraph:
    """Bounded <=_L / <=_R edge sets with reachability queries."""

    def __init__(self, nodes, left, right):
        self.nodes = nodes
        self.left = left
        self.right = right

    def _reach(self, start, edges):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for w in frontier:
                for z in edges.get(w, ()):
                    if z not in seen:
                        seen.add(z)
                        nxt.append(z)
            frontier = nxt
        return seen

    def leq_left(self, z, y) -> bool:
        """z <=_L y on the truncated graph."""
        return z in self._reach(y, self.left)

    def leq_two_sided(self, z, y) -> bool:
        both = {w: self.left.get(w, set()) | self.right.get(w, set()) for w in self.nodes}
        return z in self._reach(y, both)


def count_calls(monkeypatch, cls, name) -> list:
    """[n]: n counts the calls of cls.name made from now on."""
    calls = [0]
    orig = getattr(cls, name)

    def counted(self, *args):
        calls[0] += 1
        return orig(self, *args)

    monkeypatch.setattr(cls, name, counted)
    return calls


def terms_read(h) -> bool:
    """Whether h holds its T-coordinates: the slot read, not filled."""
    try:
        LaurentCombination._d.__get__(h)
    except AttributeError:
        return False
    return True
