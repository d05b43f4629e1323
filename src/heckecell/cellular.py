"""The affine-cellular layer: the coefficient algebra A[P+], the bilinear
form phi, the isomorphism onto the lowest two-sided ideal, and the
decomposition of the cellular basis in the Kazhdan-Lusztig basis.

phi_inverse expands an element of the lowest ideal in the cellular basis,
and phi_form a product in M_+ in the part of it that spans M_+: the images
Q_tau = P(tau) C_{w_0} of the triples (e, tau, e).  Every other image is
P(z) times one of them times flat P(z').
MonoidAlgebraElt holds elements of A[P+]; their product
e^tau e^sigma = e^(tau + sigma) is taken inline in cellular_mul.

phi, the images and the KL decompositions run on the X_0 coset module of
lowestcell (LowestCell.act), about |W_0| times smaller than the algebra:
C_{x w_0} = P(x) C_{w_0} for x in X_0 (Deodhar 1987).  An image leaves the
module only for its last factor, C_{w_0 z'^-1} = C_{w_0} P(z')^flat, and
records both (Hecke.mul_factored).  That is exact because T_t C_{w_0 z'^-1}
= q^L(t) C_{w_0 z'^-1} for finite t, checked on each right factor, so no
check uses the theorem it tests.  Products of images and phi_iso sums over
one z' stay on the module, so Phi(a)Phi(b) = Phi(ab) is decided by two
module elements whenever they are equal; only elements read for their
T-coordinates are ever expanded.  A KL decomposition is one peel of a
module element against the P(x'): of Q_tau for P(tau).

All universally quantified claims are exposed as bounded sweeps; callers
name the length bound and the sweep is exact within it.

Index conventions.  The product P(tau) C_{w_0} decomposes over the
Kazhdan-Lusztig elements C_{p_tau' w_0} with tau' dominant; profiles are
keyed by -tau', which is what matches the antidominant path model in type
A.  In the per-factor decomposition P(omega) C_{w_0 p_lam} the keys alpha
(from terms C_{p_alpha w_0 p_lam}) satisfy lam - nu(alpha) antidominant;
the involution nu enters because p_alpha w_0 p_lam = p_{alpha - nu(lam)} w_0,
so the term C_{p_tau' w_0} has alpha = tau' + nu(lam).
"""

from __future__ import annotations

from itertools import product

from .hecke import HeckeElt
from .laurent import LaurentCombination, LaurentPoly, add_scaled, peel
from .lowestcell import LowestCell, NotInLowestCell
from .weyl import GroupElement

_ONE = LaurentPoly.one()


class MonoidAlgebraElt(LaurentCombination):
    """Element of A[P+]: finite map from dominant weights to LaurentPoly."""

    __slots__ = ()


class CellularElt(LaurentCombination):
    """Element of the twisted matrix algebra: finite map
    (z, tau, z') -> LaurentPoly over basis v_z (x) e^tau (x) v_{z'}."""

    __slots__ = ()

    @staticmethod
    def basis(z: GroupElement, tau, zprime: GroupElement) -> "CellularElt":
        return CellularElt({(z, tuple(tau), zprime): _ONE})


class CellularStructure:
    def __init__(self, lowest: LowestCell):
        self.lowest = lowest
        self.hecke = lowest.hecke
        self.weyl = lowest.weyl
        self.ws = lowest.ws
        self._phi_cache = {}
        self._phi_image_cache = {}
        # Q_tau (on the X_0 module) by tau, u = P(z) Q_tau by (z, tau),
        # C_{w_0 z'^-1} = flat(C_{z' w_0}) by z' (the right factor of every
        # image, which keeps its own chain cache), and C_{w_0} m_x by module
        # basis element x
        self._q_cache = {(0,) * self.ws.rank: self.hecke.unit()}
        self._u_cache = {}
        self._right = {}
        self._w0_on = {}

    # -- the bilinear form ------------------------------------------------------

    def phi_form(self, z: GroupElement, zprime: GroupElement) -> MonoidAlgebraElt:
        """phi(v_z, v_{z'}): coefficients of C_{w_0 z^-1} C_{z' w_0} in the
        basis {Q_tau} of M_+.  On the X_0 module, P(z)^flat and then C_{w_0}
        act on P(z') (C_{w_0 z^-1} = C_{w_0} P(z)^flat), and the result is
        peeled against the Q_tau, whose tops are the p_tau.  C_{w_0} acts
        term by term, through C_{w_0} m_x kept per module basis element x
        across all pairs.  Both subscripts are length-additive (z^-1 on the
        right of w_0, z' on the left), which keeps the product inside M_+, as
        the composition law needs."""
        key = (z, zprime)
        hit = self._phi_cache.get(key)
        if hit is not None:
            return hit
        hecke, lowest, w0 = self.hecke, self.lowest, self.weyl.longest_finite
        m = lowest.act(hecke.flat(lowest.p_element(z)), lowest.p_element(zprime))
        acc = {}
        for x, c in m.items():
            w0_m = self._w0_on.get(x)
            if w0_m is None:
                w0_m = self._w0_on[x] = lowest.act(hecke.kl_basis(w0), hecke.t(x))
            add_scaled(acc, c, w0_m.items())

        def q_top(x):
            if x.finite != 0:
                raise AssertionError(f"product left M_+ at C_{{{x!r} w_0}}")
            return self._q_tau(x.translation)

        result = MonoidAlgebraElt(
            {x.translation: c for x, c in peel(acc, q_top).items()})
        self._phi_cache[key] = result
        return result

    def _q_tau(self, tau) -> HeckeElt:
        """Q_tau on the X_0 module, cached: the factors P(omega_i) of
        p_element_tau act on m_e, the last first, so Q_tau =
        P(omega_i) Q_{tau - omega_i} for the first i in tau.  A loop walks
        down to the longest cached suffix and builds up from there."""
        cache, ws, lowest = self._q_cache, self.ws, self.lowest
        if tau not in cache and not (ws.in_lattice(tau) and ws.is_dominant(tau)):
            raise ValueError(f"{tau} is not a dominant L-weight")
        todo = []
        while tau not in cache:
            fw = next(fw for fw, t in zip(ws.fundamental_weights, tau) if t)
            todo.append((tau, fw))
            tau = tuple(a - b for a, b in zip(tau, fw))
        hit = cache[tau]
        for tau, fw in reversed(todo):
            hit = cache[tau] = lowest.act(lowest.p_element_omega(fw), hit)
        return hit

    # -- the twisted product and the isomorphism ------------------------------------

    def cellular_mul(self, a: CellularElt, b: CellularElt) -> CellularElt:
        d = {}
        for (zi, tau, zj), ca in a.items():
            for (zk, tau2, zl), cb in b.items():
                add_scaled(d, ca * cb, [
                    ((zi, tuple(x + y + z for x, y, z in zip(tau, sigma, tau2)), zl), cphi)
                    for sigma, cphi in self.phi_form(zj, zk).items()])
        return CellularElt._new(d)

    def phi_image_basis(self, z: GroupElement, tau, zprime: GroupElement) -> HeckeElt:
        """Phi(v_z (x) e^tau (x) v_{z'}) = P(z) Q_tau P(z')^flat: u = P(z) Q_tau
        on the X_0 module, times the right factor C_{w_0 z'^-1}; the image
        records both (Hecke.mul_factored)."""
        key = (z, tuple(tau), zprime)
        hit = self._phi_image_cache.get(key)
        if hit is None:
            hit = self._phi_image_cache[key] = self.hecke.mul_factored(
                self._module_factor(z, key[1]), self._right_factor(zprime), self.lowest)
        return hit

    def _module_factor(self, z: GroupElement, tau) -> HeckeElt:
        """u = P(z) Q_tau on the X_0 module, kept per (z, tau) for every z'."""
        hit = self._u_cache.get((z, tau))
        if hit is None:
            lowest = self.lowest
            hit = self._u_cache[z, tau] = lowest.act(lowest.p_element(z), self._q_tau(tau))
        return hit

    def _right_factor(self, zprime: GroupElement) -> HeckeElt:
        """C_{w_0 z'^-1} = flat(C_{z' w_0}), kept per z' with its chain cache.
        A new one must satisfy T_t C_{w_0 z'^-1} = q^L(t) C_{w_0 z'^-1} for
        every finite generator t, or ValueError keeps nothing."""
        right = self._right.get(zprime)
        if right is None:
            hecke = self.hecke
            if not self.lowest.in_box(zprime):
                raise ValueError(f"{zprime!r} is not in the box B_0")
            right = hecke.flat(hecke.kl_basis(zprime * self.weyl.longest_finite))
            params = self.ws.params
            if any(hecke.mul_gen(i, right)
                   != HeckeElt({w: c.shifted(params[i]) for w, c in right.items()})
                   for i in self.ws.simple_to_gen):
                raise ValueError(f"T_t r is not q^L(t) r for the right factor r of {zprime!r}")
            self._right[zprime] = right
        return right

    def phi_iso(self, a: CellularElt) -> HeckeElt:
        """Phi(a) = sum c Phi(v_z (x) e^tau (x) v_{z'}) over the terms of a.
        A basis element (one term, coefficient 1) gets the cached image
        itself (HeckeElt is immutable).  When every term has one z', the sum
        of the c P(z) Q_tau is taken on the X_0 module and recorded times
        C_{w_0 z'^-1} (Hecke.mul_factored), as every cellular product of two
        basis elements is; any other sum is accumulated in place and records
        no factors."""
        if len(a._d) == 1:
            (key, c), = a._d.items()
            if c == _ONE:
                return self.phi_image_basis(*key)
        d = {}
        zps = {zp for _, _, zp in a._d}
        if len(zps) == 1:
            for (z, tau, _), c in a._d.items():
                add_scaled(d, c, self._module_factor(z, tau)._d.items())
            return self.hecke.mul_factored(HeckeElt._new(d), self._right_factor(*zps), self.lowest)
        for (z, tau, zp), c in a._d.items():
            add_scaled(d, c, self.phi_image_basis(z, tau, zp)._d.items())
        return HeckeElt._new(d)

    def phi_inverse(self, h: HeckeElt) -> CellularElt:
        """Inverse of the isomorphism on elements of the lowest ideal.

        An h recorded as u C_{w_0 z'^-1}, for one of this structure's right
        factors, peels u against the P(z) Q_tau, whose top x = z p_tau is
        split by LowestCell._split.  Any other h peels its T-coordinates:
        each image is T_top plus strictly shorter terms, with (z, tau, z')
        the cell factorization of top, and the residual stays in the ideal,
        whose longest T-terms are cell members.  Raises NotInLowestCell if h
        is not in the span.
        """
        factors = getattr(h, "_factors", None)
        zp = None
        if factors:
            zp = next((zp for zp, r in list(self._right.items()) if r is factors[1]), None)
        keys = {}

        def expand(top):
            if zp is None:
                keys[top] = f = self.lowest.factorize(top)
                return self.phi_image_basis(*f)
            zt = self.lowest._split(top)
            if zt is None:
                raise NotInLowestCell(f"{top!r} is not z p_tau")
            keys[top] = (*zt, zp)
            return self._module_factor(*zt)

        coords = peel(dict((h if zp is None else factors[0]).items()), expand)
        return CellularElt({keys[top]: c for top, c in coords.items()})

    def cell_involution(self, a: CellularElt) -> CellularElt:
        """v (x) b (x) w  |->  w (x) nu(b) (x) v."""
        return CellularElt(
            {(zp, self.ws.nu(tau), z): c for (z, tau, zp), c in a.items()}
        )

    def involution_check(self, a: CellularElt) -> bool:
        """Whether flat(Phi(a)) == Phi(w (x) nu(b) (x) v applied to a)."""
        return self.hecke.flat(self.phi_iso(a)) == self.phi_iso(self.cell_involution(a))

    def basis_triples(self, length_bound: int):
        """All (z, tau, z') with z p_tau w_0 z'^-1 of length <= bound, in that
        element's order; the product is length-additive (Shi 1987, Bremke 1997)."""
        weyl, lowest = self.weyl, self.lowest
        keyed = []
        w0len = weyl.longest_finite.length()
        b0 = lowest.box_elements()
        for z in b0:
            for zp in b0:
                rest = length_bound - w0len - z.length() - zp.length()
                if rest < 0:
                    continue
                for tau in self.dominant_weights_up_to(rest):
                    keyed.append((weyl.sort_key(lowest.assemble(z, tau, zp)), (z, tau, zp)))
        # sort_key is unique per element, so the triples never decide the order
        keyed.sort(key=lambda kt: kt[0])
        return [t for _, t in keyed]

    def dominant_weights_up_to(self, length_budget: int):
        """Dominant lattice weights tau with l(p_tau) <= budget, sorted.  The
        length is linear on the dominant cone: l(p_tau) = sum a_i l(p_{omega_i})
        for tau = sum a_i omega_i, so the a_i run over a box, in lexicographic order."""
        steps = [self.weyl.translation(fw).length() for fw in self.ws.fundamental_weights]
        return [tuple(k * b for k, b in zip(a, self.ws.b))
                for a in product(*(range(length_budget // s + 1) for s in steps))
                if sum(k * s for k, s in zip(a, steps)) <= length_budget]

    # -- decomposition in the KL basis -----------------------------------------------

    def _kl_coordinates(self, m: HeckeElt, lead) -> dict:
        """tau' -> a_tau' with m = sum a_tau' C_{p_tau' w_0}, for m on the
        X_0 module: m is peeled against the P(x'), each standing for
        C_{x' w_0}.  Every top must be a translation p_tau' and every
        coefficient an integer, and the one at tau' = lead must be 1."""
        out = {}
        for x, c in peel(dict(m.items()), self.lowest._p_from).items():
            if x.finite != 0:
                raise AssertionError(f"unexpected KL term C_{{{x!r} w_0}}")
            if not c.is_integer():
                raise AssertionError(f"non-integer coefficient {c} at C_{{{x!r} w_0}}")
            out[x.translation] = c.as_integer()
        if out.get(lead) != 1:
            raise AssertionError(
                f"leading coefficient at C_{{p_{lead} w_0}} is {out.get(lead)}, not 1")
        return out

    def decompose_P_omega(self, omega, lam) -> dict:
        """Coefficients a_alpha of P(omega) C_{w_0 p_lam} over the
        C_{p_alpha w_0 p_lam}; the leading alpha = omega has coefficient 1
        and every coefficient is an integer.

        On the X_0 module: w_0 p_lam = x w_0 with x = w_0 p_lam w_0 =
        p_{-nu(lam)} in X_0, and P(omega) acts on P(x).  Each term
        C_{p_tau' w_0} of the product has alpha = tau' + nu(lam)."""
        ws, weyl, lowest = self.ws, self.weyl, self.lowest
        lam = ws.check_lattice(lam)
        if not ws.is_antidominant(lam):
            raise ValueError(f"{lam} is not antidominant")
        nu = ws.nu(lam)
        lead = tuple(a - b for a, b in zip(omega, nu))
        m = lowest.act(lowest.p_element_omega(omega),
                       lowest._p_from(weyl.translation(tuple(-a for a in nu))))
        return {tuple(a + b for a, b in zip(tp, nu)): c
                for tp, c in self._kl_coordinates(m, lead).items()}

    def decompose_P_tau(self, tau) -> dict:
        """Integer profile of P(tau) C_{w_0} over the KL basis of M_+: the KL
        coordinates of Q_tau, keyed by lam = -tau' for the terms
        C_{p_tau' w_0}; the leading lam = -tau has coefficient 1."""
        ws = self.ws
        tau = ws.check_lattice(tau)
        if not ws.is_dominant(tau):
            raise ValueError(f"{tau} is not dominant")
        return {tuple(-a for a in tp): c
                for tp, c in self._kl_coordinates(self._q_tau(tau), tau).items()}

    # -- interval geometry for the reduction ------------------------------------------

    def m_alpha(self, omega) -> list:
        """Per positive root r: max over x <= p_omega and v in W_0 of the
        deepest level of a hyperplane of direction r separating A_0 from
        x v A_0, in one pass over the interval: root shift c puts the
        alcove past the hyperplanes of levels 1..c (c >= 1) or c+1..0
        (c <= -1), the deepest at max(c, -1 - c)."""
        ws, weyl = self.ws, self.weyl
        best = [0] * len(ws.positive_roots)
        for x in weyl.bruhat_interval(weyl.translation(tuple(omega))):
            for u in range(ws.w0_size):
                for k, c in enumerate((x * weyl.finite_element(u)).shifts):
                    best[k] = max(best[k], c, -1 - c)
        return best

    def reduce_lambda(self, lam, omega) -> tuple:
        """A lattice antidominant lam' in the small box, agreeing with lam
        on every coordinate that is not omega-far from its wall, with
        T_{p_omega} T_{v p_lam} ~ T_{p_omega} T_{v p_lam'} for all v.

        Clamps every simple coordinate at -K b_i with K the max of
        m_alpha(omega) over all positive roots; any root involving a
        clamped coordinate is then far for both weights, and all other
        pairings are unchanged, which is exactly the split the
        wall-crossing comparison needs.
        """
        ws = self.ws
        lam = ws.check_lattice(lam)
        if not ws.is_antidominant(lam):
            raise ValueError(f"{lam} is not antidominant")
        k = max(self.m_alpha(omega))
        return tuple(max(c, -k * b) for c, b in zip(lam, ws.b))
