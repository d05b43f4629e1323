"""The lowest two-sided cell: box, coset representatives, factorization,
relative Kazhdan-Lusztig polynomials and the P-elements.

The cell consists of the elements factoring as z . p_tau . w_0 . z'^-1 with
z, z' in the finite box B_0 and tau dominant, all lengths additive.  B_0 is
Weyl.box_over, one element (u, b . eps(u)) per u in W_0 (Pi is its part of
length zero), eps_k(u) = [alpha_k . u^-1 < 0], and X_0 is the set of x
whose alcove lies in the dominant chamber (Bremke 1997).  in_box and
is_in_x0 read the simple-root prefix of the shifts every element is minted
with, so no test makes a pairing; both refuse an element of another group
with ValueError.  Factorization reads z' off the chamber that holds the
alcove of w and splits x = w z' w_0 as z p_tau (_split, which
CellularStructure.phi_inverse also uses), with z read off the finite part
of x; that no other z' of B_0 factors w is checked by the oracle test.
Both results are kept per element, so a repeat makes no group multiply.

Relative KL polynomials live on the module with basis m_x = T_x C_{w_0 y},
x in the minimal coset representatives X_0.  T_s acts by three cases:
m_{sx} + xi_s m_x when sx < x; m_{sx} when sx > x is in X_0; else sx = x t
with t in W_0 and T_t C_{w_0 y} = q^{L(s)} C_{w_0 y}, so q^{L(s)} m_x.  The
P(x) are built along x's chain from P(e) = m_e by the Hecke layer's KL link
(the parabolic descent recursion, Deodhar 1987); act lets any h act on a
module element by the same chain walker, on the chain cache {x: T_x . m}
every module element acted on keeps (Hecke._act).  No C_{w_0 y} is
expanded and no y enters, which makes the y-independence meaningful to test.
"""

from __future__ import annotations

from operator import sub
from typing import NamedTuple

from .hecke import Hecke, HeckeElt
from .laurent import add_scaled
from .weyl import GroupElement


class CellFactorization(NamedTuple):
    """The unique triple (z, tau, z') with w = z . p_tau . w_0 . z'^-1; it is
    the key of the basis element v_z (x) e^tau (x) v_{z'} in CellularElt."""

    z: GroupElement
    tau: tuple
    zprime: GroupElement


class NotInLowestCell(ValueError):
    pass


class BoundExceeded(RuntimeError):
    """Refused by a constant CLI budget (MAX_KL_LENGTH, MAX_WITNESSES) before any work."""


class LowestCell:
    def __init__(self, hecke: Hecke):
        self.hecke = hecke
        weyl = self.weyl = hecke.weyl
        self.ws = hecke.ws
        self._box = tuple(sorted(weyl.box_over, key=weyl.sort_key))
        self._p_cache = {weyl.identity: hecke.unit()}
        self._factor_cache = {}
        self._split_cache = {}
        # the signs (c >= 0) of the root shifts of chamber v -> the z' of
        # every w whose alcove lies in it, the box element over (w_0 v)^-1
        ws = self.ws
        by_w0 = ws.w0_mult[ws.longest_index]
        self._zp_by_chamber = {
            tuple(c >= 0 for c in weyl.finite_element(v).shifts):
                weyl.box_over[ws.w0_inv[by_w0[v]]]
            for v in range(ws.w0_size)
        }

    # -- the box B_0 and the coset representatives X_0 --------------------------

    def box_elements(self):
        """B_0, sorted by sort_key: Weyl.box_over, one element per u in W_0."""
        return self._box

    def in_box(self, z: GroupElement) -> bool:
        """The definition of B_0: 0 < <x, alpha_k^v> < b_k on the alcove of z,
        per simple root k: 0 <= c_k < b_k on the simple-root prefix of z's
        root shifts (zip stops at the rank).  An element of another group
        raises ValueError."""
        if z.weyl is not self.weyl:
            raise ValueError("elements belong to different weight systems")
        return all(0 <= c < b for c, b in zip(z.shifts, self.ws.b))

    def is_in_x0(self, x: GroupElement) -> bool:
        """Minimal-length representative of x W_0: the alcove of x lies in
        the dominant chamber, so no simple-root shift is negative.  An
        element of another group raises ValueError."""
        if x.weyl is not self.weyl:
            raise ValueError("elements belong to different weight systems")
        return min(x.shifts[:self.ws.rank]) >= 0

    # -- membership and factorization ----------------------------------------------

    def _factor(self, w: GroupElement):
        """The CellFactorization of w, or None, kept per element (elements
        are interned), so membership and factorize check w once.  z' is read
        off the chamber that holds the alcove of w, and x = w z' w_0 is
        split as z p_tau; if it splits, w = z p_tau w_0 z'^-1 is the
        factorization.  No length of w needs checking: x in X_0 makes x w_0
        length-additive, and z p_tau w_0 z'^-1 is length-additive for every
        z, z' in B_0 and tau dominant (the description of the lowest cell,
        Shi 1987, Bremke 1997), so l(w) = l(x) + l(w_0) + l(z') follows from
        the split.  An element of another group raises ValueError."""
        cache = self._factor_cache
        if w in cache:
            return cache[w]
        if w.weyl is not self.weyl:
            raise ValueError("elements belong to different weight systems")
        w0 = self.weyl.longest_finite
        zp = self._zp_by_chamber[tuple(c >= 0 for c in w.shifts)]
        x = w * zp * w0
        zt = self._split(x)
        return cache.setdefault(w, None if zt is None else CellFactorization(*zt, zp))

    def _split(self, x: GroupElement):
        """(z, tau) with x = z p_tau length-additively, z in B_0 (read off
        x's finite part) and tau a dominant lattice weight, or None if x is
        not in X_0 or no such pair exists; kept per element.  z p_mu has
        z's finite part and translation z's plus mu, so mu is read off the
        normal forms with no group multiply."""
        cache = self._split_cache
        if x in cache:
            return cache[x]
        weyl, ws = self.weyl, self.ws
        z = weyl.box_over[x.finite]
        mu = tuple(map(sub, x.translation, z.translation))
        ok = self.is_in_x0(x) and ws.in_lattice(mu) and ws.is_dominant(mu) and (
            x.length() == z.length() + weyl.translation(mu).length())
        return cache.setdefault(x, (z, mu) if ok else None)

    def membership(self, w: GroupElement) -> bool:
        return self._factor(w) is not None

    def factorize(self, w: GroupElement) -> CellFactorization:
        """The unique (z, tau, z') with w = z . p_tau . w_0 . z'^-1 additive;
        the same object on every call for w."""
        found = self._factor(w)
        if found is None:
            raise NotInLowestCell(f"{w!r} is not in the lowest two-sided cell")
        return found

    def assemble(self, z: GroupElement, tau, zprime: GroupElement) -> GroupElement:
        weyl = self.weyl
        return z * weyl.translation(tau) * weyl.longest_finite * weyl.inverse(zprime)

    def cell_elements(self, length_bound: int):
        """All cell members with length <= bound (by enumeration + test)."""
        return [
            w for w in self.weyl.enumerate_elements(length_bound) if self.membership(w)
        ]

    # -- relative KL polynomials ------------------------------------------------------

    def relative_kl(self, x: GroupElement) -> dict:
        """The family x' -> p_{x',x} over x' in X_0 making
        T_x C_{w_0 y} + sum p_{x',x} T_{x'} C_{w_0 y} bar-invariant, built on
        the X_0 module, so no y enters.  Strictly lower part only; the
        leading coefficient 1 is implicit."""
        p = self._p_from(x)
        return {y: c for y, c in p.items() if y != x}

    def _module_gen(self, i: int, h: HeckeElt) -> HeckeElt:
        """T_{s_i} h on the X_0 module, h a combination of the m_x.  As in
        Hecke.mul_gen, m_x goes to m_{sx}, or stays at m_x times q^L(s) when
        sx leaves X_0, its coefficient shifted by L(s) (LaurentPoly.shifted);
        no two terms meet, so this fills a plain dict, and the xi_s terms of
        the descents, if any, are then added to it by add_scaled."""
        gen_mul_left = self.weyl.gen_mul_left
        weight = self.ws.params[i]
        rank = self.ws.rank
        d = {}
        down = []
        for x, c in h._d.items():
            sx = x._gl.get(i) or gen_mul_left(i, x)
            if sx._len < x._len:
                d[sx] = c
                down.append((x, c))
            elif min(sx.shifts[:rank]) >= 0:  # sx in X_0
                d[sx] = c
            else:
                d[x] = c.shifted(weight)
        if down:
            add_scaled(d, self.hecke.xi[i], down)
        return h._new(d)

    def act(self, h: HeckeElt, m: HeckeElt) -> HeckeElt:
        """h . m for a module element m, h acting by its T-coordinates: T_x m
        is read off the chain cache {x: T_x . m} m keeps in _mx (stored,
        without a lock, once an action succeeds) and built along x's chain
        by the generator step for every x of h's support not yet cached."""
        return self.hecke._act(h, m, self._module_gen, "_mx")

    # -- the P elements -------------------------------------------------------------

    def p_element(self, z: GroupElement) -> HeckeElt:
        """P(z) = T_z + sum p_{x,z} T_x for z in B_0."""
        if not self.in_box(z):
            raise ValueError(f"{z!r} is not in the box B_0")
        return self._p_from(z)

    def p_element_omega(self, omega) -> HeckeElt:
        """P(omega) for a fundamental L-weight omega."""
        omega = tuple(omega)
        if omega not in self.ws.fundamental_weights:
            raise ValueError(f"{omega} is not a fundamental L-weight")
        return self._p_from(self.weyl.translation(omega))

    def _p_from(self, x: GroupElement) -> HeckeElt:
        """P(x) for x in X_0, built along x's chain and cached."""
        cache = self._p_cache
        hit = cache.get(x)
        if hit is not None:
            return hit
        if not self.is_in_x0(x):
            raise ValueError(f"{x!r} is not a minimal coset representative")
        return self.hecke._left_chain(x, cache, self.hecke._kl_link(self._module_gen, cache))

    def p_element_tau(self, tau) -> HeckeElt:
        """P(tau): ordered product of the P(omega_i), ascending index."""
        tau = tuple(tau)
        if not (self.ws.in_lattice(tau) and self.ws.is_dominant(tau)):
            raise ValueError(f"{tau} is not a dominant L-weight")
        out = self.hecke.unit()
        for i, fw in enumerate(self.ws.fundamental_weights):
            count = tau[i] // self.ws.b[i]
            if count:
                p = self.p_element_omega(fw)
                for _ in range(count):
                    out = self.hecke.mul(out, p)
        return out
