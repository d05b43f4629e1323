"""The extended affine Weyl group W_0 x| P in exact normal form.

An element is stored as the affine map x |-> x.u + lam on the weight
lattice (u in the finite Weyl group, lam in the L-weight lattice P).  The
map w |-> (its alcove A_0.w) identifies the group with the set of extended
alcoves, and length, descent sets and reduced words all come from the
closed-form hyperplane count on the normal form.

Each Weyl interns its elements: one object per normal form, minted
atomically, so elements compare and hash by identity and elements of two
different Weyl objects never compare equal.

Alcove position is integer throughout and part of an element's identity:
its shifts give, per positive root, the strip between consecutive
hyperplanes that holds the alcove of w.  Weyl mints every element with its
shifts and its length (the sum of their absolute values) before publishing
it, so every alcove fact (length, L(w), the box B_0, X_0 and the degree
bound of hecke) is read per root off w.shifts with no pairing.

Left steps are closed form.  The s_i and the length-zero pi generate the
group; the alcove of s_i w lies next to that of w, across w's image of a
wall of A_0, and pi w has the alcove of w.  One table per Weyl, indexed by
(generator or pi, u in W_0), gives the finite part and translation offset
of g w and the root shift that moves, if any.  So gen_mul_left mints every
left step with shifts read off w's and no pairing or matrix-vector product,
and the left descents of reduced_word and enumerate_elements are reads.
"""

from __future__ import annotations

from operator import add

from .rootdata import WeightSystem


class GroupElement:
    """Element of the extended affine Weyl group, in normal form.

    finite is the index of the W_0-part in the weight-system table and
    translation is the vector of the affine map x |-> x.finite + translation.
    shifts holds, per positive root alpha (simple roots first), the integer
    c with <x, alpha^v> in (c, c+1) for every x in the alcove of w.
    Build elements through Weyl.element (or the group operations), never
    directly: Weyl interns one object per normal form, so == and hash are
    the built-in identity ones.  _key keeps the tuple Weyl.sort_key returns.
    It is also the ninth slot: an object of 8 slots spans an even number of
    16-byte allocator blocks, so the identity hashes (address >> 4) of
    elements minted in a row step by an even number and half the slots of
    a small dict keyed by elements go unused; 9 slots span an odd number.
    """

    __slots__ = (
        "weyl", "finite", "translation", "shifts",
        "_len", "_inv", "_word", "_key", "_gl",
    )

    def __init__(self, weyl, finite, translation, shifts):
        self.weyl = weyl
        self.finite = finite
        self.translation = translation
        self.shifts = shifts
        self._len = sum(map(abs, shifts))
        self._inv = None  # cache: Weyl.inverse
        self._word = None
        self._key = None  # cache: Weyl.sort_key
        self._gl = {}  # cache: generator/Pi products on the left

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.weyl.multiply(self, other)

    def inverse(self) -> "GroupElement":
        return self.weyl.inverse(self)

    def length(self) -> int:
        """Number of hyperplanes between A_0 and the alcove of w."""
        return self._len

    def weight_length(self) -> int:
        return self.weyl.weight_length(self)

    def __repr__(self):
        pi, word = self.weyl.reduced_word(self)
        head = f"pi^{pi}*" if pi else ""
        return f"<{head}{list(word)}>"


class Weyl:
    """Group operations, generators, Pi, Bruhat order and enumeration."""

    def __init__(self, ws: WeightSystem):
        self.ws = ws
        n = ws.rank
        zero = (0,) * n
        self._intern = {}
        self.identity = self.element(0, zero)
        self.identity._word = (0, ())

        # Generators indexed by the user labels 0..n.
        gens = [None] * ws.num_gens
        for k in range(n):
            gens[ws.simple_to_gen[k]] = self.element(ws.w0_simple_index[k], zero)
        hcr = ws.highest_coroot_root
        gens[ws.affine_gen] = self.element(ws.w0_index[hcr.reflection_matrix()], hcr.vector)
        self.gens = tuple(gens)

        self._build_box()
        # The left-step table, keyed like the _gl caches: i for s_i, ~k for
        # pi_k.  (key, u) -> (finite part of g w, act(g's translation, u) or
        # None for a finite g, root r or None for pi, delta): for w = (u, lam),
        # g w = (finite, lam + offset) and its shifts are w's with entry r
        # moved by delta; lam only moves the wall between them parallel to
        # itself, so r and delta depend on u alone.
        keyed = [*enumerate(self.gens), *((~k, p) for k, p in enumerate(self.pi_elements))]
        self._left = {key: tuple(self._left_entry(g, u) for u in range(ws.w0_size))
                      for key, g in keyed}
        self.longest_finite = self.finite_element(ws.longest_index)
        self._finite_words = None  # cache: finite_words

    def _left_entry(self, g: GroupElement, u: int) -> tuple:
        """The row of the left-step table for g at u, read off w = (u, 0)
        and the generic product g w: the root shifts they do not share, one
        moved by 1 for a generator and none for pi."""
        w = self.finite_element(u)
        gw = self.multiply(g, w)
        moved = [(r, b - a) for r, (a, b) in enumerate(zip(w.shifts, gw.shifts)) if a != b]
        if len(moved) != g.length() or any(abs(delta) != 1 for _, delta in moved):
            raise AssertionError(f"g w and w must lie across {g.length()} walls, not {moved}")
        r, delta = moved[0] if moved else (None, 0)
        return gw.finite, gw.translation if any(g.translation) else None, r, delta

    # -- raw construction helpers -------------------------------------------

    def _build_box(self):
        """The box B_0 and Pi, the length-zero elements: the stabilizer of
        A_0, isomorphic to P/Q.

        (u, lam) has shift lam_k - eps_k(u) at the simple root alpha_k,
        eps_k(u) = [alpha_k . u^-1 < 0].  B_0 holds one element per u in
        W_0, with lam = b . eps(u): b_k divides lam_k and the shift lies in
        [0, b_k), so this lam is the only one.  Pi is the part of B_0 of
        length zero, sorted by translation, and pi_k^-1 = pi_{pi_inverse[k]}.
        """
        ws = self.ws
        self.box_over = tuple(
            self.element(u, tuple(
                b * (sign < 0) for b, (_, sign) in zip(ws.b, ws.w0_root_action[ws.w0_inv[u]])))
            for u in range(ws.w0_size)
        )
        pis = sorted((g for g in self.box_over if g.length() == 0), key=lambda g: g.translation)
        if len(pis) != ws.pi_order:
            raise AssertionError(
                f"{len(pis)} length-zero elements, but |P/Q| = {ws.pi_order}")
        self.pi_elements = tuple(pis)
        self._pi_by_class = {
            ws.coset_key(g.translation): i for i, g in enumerate(self.pi_elements)
        }
        if len(self._pi_by_class) != ws.pi_order:
            raise AssertionError("two length-zero elements share a class modulo Q")
        self.pi_inverse = tuple(self.pi_index(self.inverse(g)) for g in self.pi_elements)

    # -- group arithmetic ----------------------------------------------------

    def element(self, finite: int, translation) -> GroupElement:
        """The element (finite, translation), interned; a new one is minted
        with its root shifts paired off the normal form."""
        key = (finite, tuple(translation))
        g = self._intern.get(key)
        if g is None:
            ws = self.ws
            signs = ws.w0_root_action[ws.w0_inv[finite]]
            g = self._mint(key, tuple(
                ws.pairing(key[1], r) - (signs[r.index][1] < 0) for r in ws.positive_roots))
        return g

    def _mint(self, key: tuple, shifts: tuple) -> GroupElement:
        """The element (finite, lam) = key with the given root shifts, made
        complete before it is published; setdefault is atomic, so threads
        that miss together share one object."""
        return self._intern.setdefault(key, GroupElement(self, key[0], key[1], shifts))

    def multiply(self, a: GroupElement, b: GroupElement) -> GroupElement:
        if a.weyl is not b.weyl or a.weyl is not self:
            raise ValueError("elements belong to different weight systems")
        ws = self.ws
        u = ws.w0_mult[a.finite][b.finite]
        return self.element(u, tuple(map(add, ws.act(a.translation, b.finite), b.translation)))

    def inverse(self, a: GroupElement) -> GroupElement:
        """a^-1, kept on a and on a^-1 on first use (elements are interned)."""
        inv = a._inv
        if inv is None:
            ws = self.ws
            ui = ws.w0_inv[a.finite]
            inv = a._inv = self.element(ui, tuple(-x for x in ws.act(a.translation, ui)))
            inv._inv = a
        return inv

    def gen_mul_left(self, key: int, w: GroupElement) -> GroupElement:
        """g * w for key i (g = s_i) or ~k (g = pi_elements[k]), through a
        per-element cache (elements are interned).  A new product is read
        off the left-step table at w's finite part and gets w's root shifts,
        entry r moved by delta for s_i, and the reverse link g^-1 (g w) = w,
        written with no lock: threads that race store equal values.  A key
        outside the table raises KeyError."""
        g = w._gl.get(key)
        if g is None:
            if w.weyl is not self:
                raise ValueError("elements belong to different weight systems")
            finite, offset, r, delta = self._left[key][w.finite]
            lam = w.translation
            nf = (finite, lam if offset is None else tuple(map(add, lam, offset)))
            c = w.shifts
            g = self._intern.get(nf) or self._mint(
                nf, c if r is None else c[:r] + (c[r] + delta,) + c[r + 1:])
            g._gl[key if key >= 0 else ~self.pi_inverse[~key]] = w
            w._gl[key] = g
        return g

    def is_left_descent(self, key: int, w: GroupElement) -> bool:
        """l(g w) < l(w) for a left-step key (i for s_i, ~k for pi_k), read
        off its row: the shift s_i moves by delta shrinks; pi moves none (it
        has length 0).  A key outside the table raises KeyError."""
        _, _, r, delta = self._left[key][w.finite]
        return r is not None and abs(w.shifts[r] + delta) < abs(w.shifts[r])

    def translation(self, lam) -> GroupElement:
        """The element p_lam, for lam in the L-weight lattice."""
        return self.element(0, self.ws.check_lattice(lam))

    def finite_element(self, u: int) -> GroupElement:
        return self.element(u, (0,) * self.ws.rank)

    # -- alcove position: weight ------------------------------------------------

    def weight_length(self, w: GroupElement) -> int:
        """L(w): sum of hyperplane weights over all walls crossed.  Per root
        with shift c, the walls between A_0 and w are the levels
        min(c, 0) + 1 .. max(c, 0)."""
        total = 0
        for root, c in zip(self.ws.positive_roots, w.shifts):
            lo, hi = min(c, 0) + 1, max(c, 0)
            evens = hi // 2 - (lo - 1) // 2
            total += evens * root.even_weight + (hi - lo + 1 - evens) * root.odd_weight
        return total

    # -- Pi parts and words ----------------------------------------------------

    def pi_index(self, w: GroupElement) -> int:
        return self._pi_by_class[self.ws.coset_key(w.translation)]

    def reduced_word(self, w: GroupElement):
        """(pi index, word): w = pi * s_{i_1} ... s_{i_k}, lexicographically
        smallest word, k = l(w).  The Pi-part is stripped by the cached
        step gen_mul_left(~pi_inverse[pi index], w), as in Hecke._left_chain.
        Each letter is the first left descent, read off the left-step
        table, so the only products are the steps along the word.  The walk
        stops at the first element whose word is kept, and each element it
        passed keeps the rest of the word, its own smallest word."""
        if w._word is not None:
            return w._word
        pi_idx = self.pi_index(w)
        cur = self.gen_mul_left(~self.pi_inverse[pi_idx], w) if pi_idx else w
        gens = range(self.ws.num_gens)
        path, letters = [], []
        while cur._word is None:
            i = next((i for i in gens if self.is_left_descent(i, cur)), None)
            if i is None:
                raise AssertionError("no descent found below nonzero length")
            path.append(cur)
            letters.append(i)
            cur = self.gen_mul_left(i, cur)
        letters += cur._word[1]
        for j, x in enumerate(path):
            x._word = (0, tuple(letters[j:]))
        w._word = (pi_idx, tuple(letters))
        return w._word

    def from_word(self, pi_idx: int, word) -> GroupElement:
        """pi * s_{i_1} ... s_{i_k}, by left steps from the last letter."""
        g = self.identity
        for i in reversed(word):
            g = self.gen_mul_left(i, g)
        return self.gen_mul_left(~pi_idx, g)

    def finite_words(self) -> tuple:
        """The reduced word of every u in W_0, indexed by u: the word of
        finite_element(u).  Built on first use and kept."""
        words = self._finite_words
        if words is None:
            words = self._finite_words = tuple(
                self.reduced_word(self.finite_element(u))[1] for u in range(self.ws.w0_size))
        return words

    def sort_key(self, w: GroupElement):
        """(length, word, Pi index), read off w's kept word (a reduced word
        has l(w) letters) and kept on w after it, so an element with a key
        has a word.  Like _word, written with no lock: racing threads store
        equal values."""
        key = w._key
        if key is None:
            pi_idx, word = w._word or self.reduced_word(w)
            key = w._key = (len(word), word, pi_idx)
        return key

    # -- Bruhat order ------------------------------------------------------------

    def bruhat_leq(self, x: GroupElement, y: GroupElement) -> bool:
        """Extended Bruhat order: Pi-parts must agree, W_a-parts compare by
        Deodhar's Z-property (1977): for a left descent s of y, x <= y iff
        min(x, s x) <= s y.  So y steps down its first left descent, and x
        with it when that is a descent of x, until x is y or l(x) >= l(y):
        at most l(y) cached left steps."""
        if x.weyl is not self or y.weyl is not self:
            raise ValueError("elements belong to different weight systems")
        pi_idx = self.pi_index(x)
        if pi_idx != self.pi_index(y):
            return False
        k = ~self.pi_inverse[pi_idx]
        x, y = self.gen_mul_left(k, x), self.gen_mul_left(k, y)
        while x is not y and x.length() < y.length():
            i = self.reduced_word(y)[1][0]
            if self.is_left_descent(i, x):
                x = self.gen_mul_left(i, x)
            y = self.gen_mul_left(i, y)
        return x is y

    def bruhat_interval(self, w: GroupElement):
        """All y <= w, via subword products of one reduced word of w, built
        by left steps from its last letter."""
        pi_idx, word = self.reduced_word(w)
        layer = {self.identity}
        for i in reversed(word):
            layer |= {self.gen_mul_left(i, g) for g in layer}
        return {self.gen_mul_left(~pi_idx, g) for g in layer}

    # -- enumeration ---------------------------------------------------------------

    def enumerate_elements(self, bound: int):
        """All w with l(w) <= bound, each once, sorted by (length, word, Pi).
        Only the ascents, read off the left-step table, are multiplied."""
        if bound < 0:
            raise ValueError("bound must be >= 0")
        seen = {self.identity}
        frontier = [self.identity]
        gens = range(self.ws.num_gens)
        for _ in range(bound):
            nxt = []
            for w in frontier:
                for i in gens:
                    if not self.is_left_descent(i, w):
                        g = self.gen_mul_left(i, w)
                        if g not in seen:
                            seen.add(g)
                            nxt.append(g)
            frontier = nxt
        out = [self.gen_mul_left(~k, w) for w in seen for k in range(len(self.pi_elements))]
        out.sort(key=self.sort_key)
        for w in out:
            yield w
