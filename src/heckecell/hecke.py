"""The Hecke algebra of the extended affine Weyl group over Z[q, q^-1].

T-basis arithmetic, the bar involution, the flat antiautomorphism, the
Kazhdan-Lusztig basis with its polynomials, coordinates in that basis,
T-basis structure constants, and the separating-hyperplane degree bound
c_{x,y} in closed form, read per root off the shifts of y and xy.

Every left T-action goes through one generator step, mul_gen, for s_i and
pi alike, and one chain walker, _left_chain, whose tails are cached group
steps of weyl, so a walk over elements already minted multiplies no group
elements.  bar_t walks the bar cache with T_s^-1 = T_s - xi_s, kl_basis
the KL cache by the descent recursion (Lusztig, Hecke algebras with
unequal parameters, Thm 6.6).  One action, _act, takes h times m on the chain cache {x: T_x m}
that m keeps, one slot per action: mul walks it with mul_gen (_tx), and
lowestcell's X_0 module with its own generator step (_mx).  A product made
by mul_factored (a _Product) keeps its left factor on that module, so mul
acts there on it.

The KL cache and the bar cache are shared mutable structures under a
single lock, which makes get-or-compute linearizable so sweeps may run from
threads.  The chain caches an element keeps, and the T-coordinates a
factored product fills in, have no lock: they only memoize values every
thread computes alike, so racing threads store equal values.  A walk's
partly peeled links are local to their call.
"""

from __future__ import annotations

import threading

from .laurent import LaurentCombination, LaurentPoly, add_scaled, peel, xi
from .weyl import GroupElement, Weyl

_ONE = LaurentPoly.one()


class HeckeElt(LaurentCombination):
    """Finitely supported map GroupElement -> LaurentPoly, no zero values.

    Two slots are unset until used, and read with a None default.  _tx,
    set when the element is first a right factor of Hecke.mul, is the chain
    cache {x: T_x h} of that product.  _mx, set when the element, a module
    element of lowestcell, is first acted on by LowestCell.act, is the chain
    cache {x: T_x . h} of the module action: every value has keys in X_0."""

    __slots__ = ("_tx", "_mx")


class _Product(HeckeElt):
    """u r, made by Hecke.mul_factored(u, r, lowest), which sets _factors =
    (u, r, lowest).  Its T-coordinates, _d, are filled on first read by
    Hecke.mul(u, r), one walk of the chain cache r keeps, without a lock:
    racing threads fill equal terms.  Only this class has __getattr__, so a
    miss of an unset slot of a plain HeckeElt stays a C-level lookup.
    Elements made from a product (_new: mul_gen, flat, sums) are plain and
    record no factors.

    Equality is by value with every HeckeElt.  Two products that record the
    same right factor r and equal module factors are u r = u' r, equal
    without their T-coordinates read; any other pair compares T-coordinates
    (a plain HeckeElt on the left reaches this __eq__ first, as it is the
    subclass's).  The hash is always of the T-coordinates."""

    __slots__ = ("_factors",)

    @staticmethod
    def _new(d: dict) -> HeckeElt:
        return HeckeElt._new(d)

    def __getattr__(self, name):
        if name != "_d":
            raise AttributeError(name)
        u, r, lowest = self._factors
        d = self._d = lowest.hecke.mul(u, r)._d
        return d

    def __eq__(self, other):
        if not isinstance(other, HeckeElt):
            return False
        theirs = getattr(other, "_factors", None)
        if theirs is not None and self._factors[1] is theirs[1] and self._factors[0] == theirs[0]:
            return True
        return self._d == other._d

    __hash__ = HeckeElt.__hash__


class _Uncached(Exception):
    """A KL link needs the cached element args[0], which is not built yet."""


class Hecke:
    """Algebra operations bound to one extended Weyl group."""

    def __init__(self, weyl: Weyl):
        self.weyl = weyl
        self.ws = weyl.ws
        self.xi = tuple(xi(p) for p in self.ws.params)
        self._q_neg = tuple(LaurentPoly.q_power(-p) for p in self.ws.params)
        self._lock = threading.RLock()
        self._bar_cache = {weyl.identity: self.t(weyl.identity)}
        self._kl_cache = {weyl.identity: self.t(weyl.identity)}

    # -- basic constructors ---------------------------------------------------

    def unit(self) -> HeckeElt:
        return HeckeElt({self.weyl.identity: _ONE})

    def t(self, w: GroupElement) -> HeckeElt:
        return HeckeElt({w: _ONE})

    # -- multiplication ---------------------------------------------------------

    def mul_gen(self, i: int, h: HeckeElt) -> HeckeElt:
        """T_g h for a left-step key of weyl (i for s_i, ~k for pi_k): T_g T_w
        = T_{gw}, plus xi_s T_w when gw < w (only for s: pi keeps lengths).
        The relabel w -> gw is a bijection, so it fills a plain dict; the
        xi_s terms of the descents, if any, are then added to it."""
        gen_mul_left = self.weyl.gen_mul_left
        d = {}
        down = []
        for w, c in h._d.items():
            sw = w._gl.get(i) or gen_mul_left(i, w)
            d[sw] = c
            if sw._len < w._len:
                down.append((w, c))
        if down:
            add_scaled(d, self.xi[i], down)
        return h._new(d)

    def _left_chain(self, w: GroupElement, cache: dict, step) -> HeckeElt:
        """cache[w] for a cache of left T-actions, filled along w's chain.

        The value at x is built from the value at its tail (strip pi, then
        the first letter of the reduced word): a link pi_k is mul_gen(~k, .)
        and a letter s is step(s, ., x) of the value at the tail.  The tail
        is the cached gen_mul_left(~pi_inverse[k], x) or gen_mul_left(s, x),
        never a fresh group multiply.  A step that raises _Uncached(y) is
        retried once y is built; a KL link resumes its peel there (see
        _kl_link).  Pending elements sit on an explicit stack, never on the
        call stack.  Every value is stored.  w must be an element of this
        algebra's group (its tails then are too); one of another Weyl raises
        ValueError before the walk starts.
        """
        weyl = self.weyl
        if w.weyl is not weyl:
            raise ValueError("elements belong to different weight systems")
        todo = [w]
        while todo:
            x = todo[-1]
            if x in cache:
                todo.pop()
                continue
            pi_idx, word = x._word or weyl.reduced_word(x)
            tail = weyl.gen_mul_left(~weyl.pi_inverse[pi_idx] if pi_idx else word[0], x)
            c = cache.get(tail)
            if c is None:
                todo.append(tail)
                continue
            try:
                cache[x] = self.mul_gen(~pi_idx, c) if pi_idx else step(word[0], c, x)
            except _Uncached as miss:
                todo.append(miss.args[0])
                continue
            todo.pop()
        return cache[w]

    def _kl_link(self, gen_step, cache: dict):
        """The link of a KL chain over the left action gen_step(i, h) of T_s:
        C_s c = gen_step(s, c) + q^-L(s) c for the cached value c at the tail
        is bar-invariant and leads with x; the rest is peeled in lift mode
        against the cached lower elements: each coefficient of degree >= 0
        gives up its bar-invariant part (LaurentPoly.bar_invariant_part,
        packed from the digits at exponents >= 0), and one in q^-1 Z[q^-1]
        is skipped on its packed degree, which leaves x plus q^-1 Z[q^-1]
        terms: the KL element at x.  After a miss the retry resumes the peel
        on the partly peeled dict kept under x; the tops it already took
        hold q^-1 Z[q^-1] residuals it skips."""
        q_neg = self._q_neg
        pending = {}

        def expand(y):
            hit = cache.get(y)
            if hit is None:
                raise _Uncached(y)
            return hit

        def link(i: int, c: HeckeElt, x: GroupElement) -> HeckeElt:
            d = pending.get(x)
            if d is None:
                d = pending[x] = gen_step(i, c)._d
                add_scaled(d, q_neg[i], c.items())
                if d.pop(x, None) != _ONE:
                    raise AssertionError(f"C_s times the element below {x!r} does not lead with it")
            peel(d, expand, lift=True)
            del pending[x]
            d[x] = _ONE
            return c._new(d)

        return link

    def _act(self, h: HeckeElt, m: HeckeElt, gen_step, slot: str) -> HeckeElt:
        """h . m for the left action gen_step(i, .) of T_s on m's module: the
        algebra itself with mul_gen, or the X_0 module of lowestcell with its
        generator step.  T_x m is read off the chain cache {e: m, x: T_x m}
        that m keeps in slot, one slot per action, and built along x's chain
        for every x of h's support not yet cached.  A new cache is seeded
        with a twin of m that shares its dict, so it points nowhere back at
        m, and is stored once the action succeeds; a key of m of another
        group raises ValueError before it is made.  The sum is accumulated in
        place, in a dict only add_scaled writes."""
        cache = getattr(m, slot, None)
        if cache is None:
            weyl = self.weyl
            if any(x.weyl is not weyl for x in m._d):
                raise ValueError("elements belong to different weight systems")
            cache = {weyl.identity: m._new(m._d)}
        step = lambda i, v, _x: gen_step(i, v)
        acc = {}
        for x, c in h._d.items():
            tx = cache.get(x)
            if tx is None:  # not by truth: an empty HeckeElt is falsy
                tx = self._left_chain(x, cache, step)
            add_scaled(acc, c, tx._d.items())
        setattr(m, slot, cache)
        return h._new(acc)

    def mul(self, h1: HeckeElt, h2: HeckeElt) -> HeckeElt:
        """h1 h2 = sum c T_x h2 over the terms c T_x of h1, with T_x h2 read
        off the chain cache h2 keeps in _tx.  An h2 made by mul_factored(u,
        r, lowest) gives (h1 . u) r, recorded as such (mul_factored), exact
        because m_x -> T_x r is a module map: lowest's module action on the
        cache u keeps, about |W_0| times smaller than the algebra, so nothing
        of the algebra's size is kept or walked per pair.  h1 acts by its
        T-coordinates, factored or not.  Keys of another group raise
        ValueError on every call, before any cache is kept on h2."""
        factors = getattr(h2, "_factors", None)
        if factors is None:
            return self._act(h1, h2, self.mul_gen, "_tx")
        u, r, lowest = factors
        return self.mul_factored(lowest.act(h1, u), r, lowest)

    def mul_factored(self, u: HeckeElt, r: HeckeElt, lowest) -> HeckeElt:
        """u r, recording (u, r, lowest) on it, for u on the X_0 module of
        the LowestCell lowest and T_t r = q^L(t) r for every finite t (the
        caller's invariant), so that mul takes h times it as (h . u) r.
        Nothing is multiplied here: the T-coordinates of u r are walked
        on r's chain cache when they are first read."""
        out = _Product.__new__(_Product)
        out._factors = (u, r, lowest)
        return out

    # -- involutions ---------------------------------------------------------------

    def bar_t(self, w: GroupElement) -> HeckeElt:
        """bar(T_w) = (T_{w^-1})^-1, cached and built along w's chain:
        bar(T_pi T_w') = T_pi bar(T_w') and bar(T_s T_w') = (T_s - xi_s) bar(T_w')."""
        hit = self._bar_cache.get(w)
        if hit is not None:
            return hit
        with self._lock:
            return self._left_chain(w, self._bar_cache, self._mul_gen_inverse)

    def _mul_gen_inverse(self, i: int, h: HeckeElt, _x) -> HeckeElt:
        """T_{s_i}^-1 h = T_{s_i} h - xi_s h (a chain step; x is unused)."""
        out = self.mul_gen(i, h)
        add_scaled(out._d, -self.xi[i], h.items())
        return out

    def bar(self, h: HeckeElt) -> HeckeElt:
        acc = {}
        for w, c in h.items():
            add_scaled(acc, c.bar(), self.bar_t(w).items())
        return HeckeElt._new(acc)

    def flat(self, h: HeckeElt) -> HeckeElt:
        """The antiautomorphism T_w -> T_{w^-1} (coefficients untouched)."""
        return h._new({w._inv or w.inverse(): c for w, c in h._d.items()})

    # -- Kazhdan-Lusztig basis --------------------------------------------------------

    def kl_basis(self, w: GroupElement) -> HeckeElt:
        """C_w: the unique bar-invariant element with C_w = T_w mod H_{<0}.

        Built along w's chain from C_e = T_e: C_{pi w'} = T_pi C_{w'}, and
        for a left descent s, C_w = C_s C_{sw} minus the mu C_y that the peel
        of _kl_link finds.
        """
        hit = self._kl_cache.get(w)
        if hit is not None:
            return hit
        with self._lock:
            return self._left_chain(w, self._kl_cache, self._kl_link(self.mul_gen, self._kl_cache))

    def kl_expand(self, h: HeckeElt) -> dict:
        """Coordinates of h in the KL basis, peeled longest first."""
        return peel(dict(h.items()), self.kl_basis)

    # -- structure constants --------------------------------------------------------

    def f_constants(self, x: GroupElement, y: GroupElement) -> dict:
        """T_x T_y = sum f_{x,y,z} T_z."""
        return dict(self.mul(self.t(x), self.t(y)).items())

    # -- the degree bound --------------------------------------------------------------

    def degree_bound(self, x: GroupElement, y: GroupElement) -> int:
        """c_{x,y}: over the directions of the hyperplanes that separate A_0
        from y and y from xy (Bremke 1997), the sum of the largest weight of
        each.  Per root, with a and b the shifts of y and xy, those are the
        levels lo..hi computed below; two or more hold an even level, whose
        weight is the largest (rootdata checks even_weight >= odd_weight)."""
        c = 0
        for root, a, b in zip(self.ws.positive_roots, y.shifts, self.weyl.multiply(x, y).shifts):
            lo = max(min(a, 0), min(a, b)) + 1
            hi = min(max(a, 0), max(a, b))
            if lo < hi:
                c += root.even_weight
            elif lo == hi:
                c += root.level_weight(lo)
        return c
