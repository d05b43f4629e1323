"""Root data, weight functions and L-weight geometry.

Everything is realized in exact integer coordinates over the basis of
classical fundamental weights, so that the pairing of a weight with any
coroot is a dot product with a precomputed integer vector.

Shipped Cartan types: A1, A2, A3 and C2.  Unequal parameters occur for C2
and for A1 (which is the rank-1 member of the C-family); in type A_n with
n >= 2 all generators are conjugate and the parameters must agree.

Convention for the C-family, with params = (L(s_0), ..., L(s_n)) and
L(s_0) >= L(s_n) enforced: the hyperplane family whose even levels pass
through the origin carries the weight L(s_0), the odd levels carry L(s_n),
and the intermediate (axis) families carry the middle parameters.  This is
the orientation in which 0 is always a special point and the lattice of
special points is an index-2 sublattice of the classical weight lattice
when L(s_0) > L(s_n).  Generator index i always has weight params[i]; in
the C-family the generator carrying the affine reflection is the one
indexed n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as _cartesian


class PosRoot:
    """A positive root with its coroot pairing data and hyperplane weights.

    covector holds the coordinates of the coroot in the simple-coroot basis,
    so pairing(lam, root) = sum(lam[i] * covector[i]).  vector holds the root
    itself in fundamental-weight coordinates.  even_weight/odd_weight are the
    weights L_H of the hyperplanes H_{alpha,k} for even and odd k.
    """

    __slots__ = ("index", "vector", "covector", "even_weight", "odd_weight")

    def __init__(self, index, vector, covector, even_weight, odd_weight):
        self.index = index
        self.vector = vector
        self.covector = covector
        self.even_weight = even_weight
        self.odd_weight = odd_weight

    def level_weight(self, k: int) -> int:
        return self.even_weight if k % 2 == 0 else self.odd_weight

    def __repr__(self):
        return f"PosRoot({self.vector})"


def _dot(lam, cov):
    return sum(a * b for a, b in zip(lam, cov))


# Simple root data per type: covectors of positive roots in the simple
# coroot basis, and root coefficients in the simple root basis (these
# differ outside the simply-laced types).  Simple roots come first, in
# the order matching finite generator indices.
_POSROOT_COVECTORS = {
    "A1": [(1,)],
    "A2": [(1, 0), (0, 1), (1, 1)],
    "A3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)],
    # C2 (Bourbaki): alpha_1 = e1-e2 short, alpha_2 = 2e2 long;
    # (e1+e2)^v = a1^v + 2 a2^v, (2e1)^v = a1^v + a2^v.
    "C2": [(1, 0), (0, 1), (1, 2), (1, 1)],
}

_POSROOT_ROOTCOEFFS = {
    "A1": [(1,)],
    "A2": [(1, 0), (0, 1), (1, 1)],
    "A3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)],
    # e1+e2 = a1 + a2, 2e1 = 2 a1 + a2.
    "C2": [(1, 0), (0, 1), (1, 1), (2, 1)],
}

_CARTAN = {
    # cartan[i][j] = <alpha_j, alpha_i^v>
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "C2": [[2, -2], [-1, 2]],
}

# Index (into the positive-root list) of the root alpha_0 whose coroot is
# the highest coroot; its hyperplane at level 1 carries the affine wall.
_HIGHEST_COROOT_ROOT = {"A1": 0, "A2": 2, "A3": 5, "C2": 2}

# Roots whose hyperplane levels alternate in weight in the C-family
# (the "diagonal" families); everything else has a constant family weight.
_PARITY_SPLIT_ROOTS = {"A1": {0}, "C2": {0, 2}}


class WeightSystem:
    """Root system, weight function and all derived L-weight data."""

    def __init__(self, cartan_type: str, rank: int, params):
        key = f"{cartan_type}{rank}"
        if key not in _POSROOT_COVECTORS:
            raise ValueError(f"unsupported Cartan data {cartan_type}_{rank}")
        params = tuple(int(p) for p in params)
        if len(params) != rank + 1:
            raise ValueError(f"need {rank + 1} generator weights, got {len(params)}")
        if any(p < 1 for p in params):
            raise ValueError("generator weights must be positive integers")
        if cartan_type == "A" and rank >= 2 and len(set(params)) != 1:
            raise ValueError("all generators of affine type A_n (n>=2) are conjugate; weights must agree")
        if key in ("A1", "C2") and params[0] < params[rank]:
            raise ValueError("C-family convention requires L(s_0) >= L(s_n)")

        self.cartan_type = cartan_type
        self.rank = rank
        self.key = key
        self.params = params
        self.num_gens = rank + 1
        self.cartan = _CARTAN[key]
        # Generator indices: in the C-family the finite generators are
        # 0..n-1 and the affine one is n (keeping weight L(s_0) on the
        # family through the origin); in type A the affine one is 0.
        if key in ("A1", "C2"):
            self.simple_to_gen = tuple(range(rank))
            self.affine_gen = rank
        else:
            self.simple_to_gen = tuple(range(1, rank + 1))
            self.affine_gen = 0

        self._build_roots()
        self._build_w0()
        self._build_lattices()

    # -- construction ------------------------------------------------------

    def _build_roots(self):
        n = self.rank
        cart = self.cartan
        covs = _POSROOT_COVECTORS[self.key]
        rcs = _POSROOT_ROOTCOEFFS[self.key]
        split = _PARITY_SPLIT_ROOTS.get(self.key, set())
        roots = []
        for idx, cov in enumerate(covs):
            # root vector in weight coordinates: combination of simple-root
            # columns of the Cartan matrix
            rc = rcs[idx]
            vec = tuple(sum(rc[j] * cart[i][j] for j in range(n)) for i in range(n))
            if self.key in ("A1", "C2"):
                if idx in split:
                    even, odd = self.params[0], self.params[n]
                else:
                    even = odd = self.params[1]
            else:
                even = odd = self.params[0]
            roots.append(PosRoot(idx, vec, cov, even, odd))
        self.positive_roots = roots
        self.simple_roots = roots[:n]
        self.highest_coroot_root = roots[_HIGHEST_COROOT_ROOT[self.key]]
        self._root_by_vector = {r.vector: (r, 1) for r in roots}
        self._root_by_vector.update(
            {tuple(-x for x in r.vector): (r, -1) for r in roots}
        )

    def _build_w0(self):
        """Tabulate the finite Weyl group as integer matrices on P."""
        n = self.rank
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

        def refl_matrix(i):
            alpha = self.simple_roots[i].vector
            return tuple(
                tuple((1 if r == c else 0) - (1 if r == i else 0) * alpha[c] for c in range(n))
                for r in range(n)
            )

        def matmul(a, b):
            return tuple(
                tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
                for r in range(n)
            )

        simple_mats = [refl_matrix(i) for i in range(n)]
        mats = [ident]
        index = {ident: 0}
        words = {0: ()}
        frontier = [0]
        while frontier:
            nxt = []
            for ui in frontier:
                for i, sm in enumerate(simple_mats):
                    m = matmul(mats[ui], sm)
                    if m not in index:
                        index[m] = len(mats)
                        words[len(mats)] = words[ui] + (i,)
                        nxt.append(len(mats))
                        mats.append(m)
            frontier = nxt
        size = len(mats)

        self.w0_mats = mats
        self.w0_index = index
        self.w0_size = size
        self.w0_words = words  # a reduced word per element, in simple indices
        self.w0_simple_index = tuple(index[m] for m in simple_mats)
        self.w0_mult = [
            [index[matmul(mats[a], mats[b])] for b in range(size)] for a in range(size)
        ]
        inv = [0] * size
        for a in range(size):
            for b in range(size):
                if self.w0_mult[a][b] == 0:
                    inv[a] = b
                    break
        self.w0_inv = inv

        # Signed action on positive roots: root_action[u][r] = (r', sign)
        # with (positive root r) * u = sign * (positive root r').
        def act(vec, m):
            return tuple(sum(vec[k] * m[k][c] for k in range(n)) for c in range(len(vec)))

        self.w0_root_action = []
        lengths = []
        for m in mats:
            row = []
            neg = 0
            for r in self.positive_roots:
                img = act(r.vector, m)
                tgt, sign = self._root_by_vector[img]
                row.append((tgt.index, sign))
                if sign < 0:
                    neg += 1
            self.w0_root_action.append(row)
            lengths.append(neg)
        self.w0_length = lengths
        self.longest_index = max(range(size), key=lambda u: lengths[u])
        if lengths[self.longest_index] != len(self.positive_roots):
            raise AssertionError("the longest element of W_0 must negate every positive root")

    def _build_lattices(self):
        n = self.rank
        # b per simple root: 2 exactly when the two parallel hyperplane
        # families through levels 0 and 1 have different weights.
        self.b = tuple(
            2 if r.even_weight != r.odd_weight else 1 for r in self.simple_roots
        )
        # Fundamental L-weights: <omega_i, alpha_j^v> = b_j delta_ij.
        self.fundamental_weights = tuple(
            tuple(self.b[i] if j == i else 0 for j in range(n)) for i in range(n)
        )
        # Root lattice basis (rows) in weight coordinates.
        self.q_basis = tuple(r.vector for r in self.simple_roots)
        self._q_inv = _invert(self.q_basis)
        self.pi_order = abs(_det(self.q_basis)) // _lattice_index_p(self.b)
        self.nu_L = sum(r.even_weight for r in self.positive_roots)

    # -- lattice membership and reduction -----------------------------------

    def in_lattice(self, lam) -> bool:
        """Whether lam (weight coordinates) is an L-weight lattice point."""
        return all(c % b == 0 for c, b in zip(lam, self.b))

    def check_lattice(self, lam):
        if not self.in_lattice(lam):
            raise ValueError(f"{lam} is not in the L-weight lattice")
        return tuple(lam)

    def coset_key(self, lam) -> tuple:
        """Canonical representative of lam modulo the root lattice Q."""
        coeffs = [
            sum(Fraction(lam[i]) * self._q_inv[i][j] for i in range(self.rank))
            for j in range(self.rank)
        ]
        out = list(lam)
        for j, c in enumerate(coeffs):
            f = c.numerator // c.denominator  # floor
            if f:
                for i in range(self.rank):
                    out[i] -= f * self.q_basis[j][i]
        return tuple(out)

    # -- pairings and the W_0 action ----------------------------------------

    def pairing(self, lam, root: PosRoot) -> int:
        return _dot(lam, root.covector)

    def act(self, lam, u: int) -> tuple:
        """Right action of W_0 element (by index) on a weight."""
        m = self.w0_mats[u]
        n = self.rank
        return tuple(sum(lam[k] * m[k][c] for k in range(n)) for c in range(n))

    def reflect(self, lam, i: int) -> tuple:
        """Reflection in the simple root alpha_i."""
        c = _dot(lam, self.simple_roots[i].covector)
        vec = self.simple_roots[i].vector
        return tuple(x - c * v for x, v in zip(lam, vec))

    def is_dominant(self, lam) -> bool:
        return all(x >= 0 for x in lam)

    def is_antidominant(self, lam) -> bool:
        return all(x <= 0 for x in lam)

    def orbit(self, lam) -> set:
        """The W_0-orbit of a weight."""
        seen = {tuple(lam)}
        frontier = [tuple(lam)]
        while frontier:
            nxt = []
            for mu in frontier:
                for i in range(self.rank):
                    img = self.reflect(mu, i)
                    if img not in seen:
                        seen.add(img)
                        nxt.append(img)
            frontier = nxt
        return seen

    # -- the involution nu ---------------------------------------------------

    def nu(self, lam) -> tuple:
        """nu(lam) = -(lam . w_0), the diagram involution on weights."""
        img = self.act(lam, self.longest_index)
        return tuple(-x for x in img)

    def nu_on_w0(self, u: int) -> int:
        """Conjugation by w_0, the group side of nu."""
        w0 = self.longest_index
        return self.w0_mult[self.w0_mult[w0][u]][w0]

    # -- L-weights -----------------------------------------------------------

    def point_weight(self, lam) -> int:
        """L_lam: total weight of all hyperplanes through the point lam."""
        total = 0
        for r in self.positive_roots:
            k = self.pairing(lam, r)
            total += r.level_weight(k)
        return total

    def special_points(self, bound: int) -> set:
        """All L-weights lam with |<lam, alpha_i^v>| <= bound per simple root."""
        if bound < 1:
            raise ValueError("bound must be >= 1")
        out = set()
        for lam in _cartesian(range(-bound, bound + 1), repeat=self.rank):
            if self.point_weight(lam) == self.nu_L:
                out.add(lam)
        if (0,) * self.rank not in out:
            raise AssertionError("the origin must be a special point")
        return out

    # -- misc ----------------------------------------------------------------

    def finite_weight(self, u: int) -> int:
        """L(u) for u in W_0, summed over any reduced word."""
        return sum(self.params[self.simple_to_gen[i]] for i in self.w0_words[u])

    @staticmethod
    def from_config(cfg: dict) -> "WeightSystem":
        return WeightSystem(cfg["type"], int(cfg["rank"]), cfg["params"])


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _invert(rows):
    """Inverse of an integer matrix as Fractions (rows of the inverse)."""
    n = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _lattice_index_p(b):
    out = 1
    for x in b:
        out *= x
    return out
