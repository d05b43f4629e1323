"""Root data, weight functions and L-weight geometry.

Everything is realized in exact integer coordinates over the basis of
classical fundamental weights, so that the pairing of a weight with any
coroot is a dot product with a precomputed integer vector.

Each shipped Cartan type (A1, A2, A3 and C2) is one row: its Cartan matrix
and the label of the affine generator.  The walls are the hyperplanes
H_{alpha,k} = {x : <x, alpha^v> = k}, cut out by the coroots, so each row
holds the Cartan matrix of the root system *dual* to the affine group it
produces.  The affine type C~n therefore needs the Bn row (the C3 matrix
gives B~3).  C2 is self-dual, so its row gives C~2 either way, which hides
the duality.  Everything else is derived from the row:

- The positive roots and their coroots, by closing each simple pair
  (alpha_i, alpha_i^v) under the simple reflections, ordered by height and
  then by descending simple-root coefficients.  The root alpha_0 whose
  coroot is the highest coroot carries the affine wall H_{alpha_0,1}.
- The weight L_H of each hyperplane H_{alpha,k}.  L_H is constant on the
  orbits of the affine Weyl group (Bremke 1997), and the orbit of
  H_{alpha,k} is the W_0-orbit of alpha together with k modulo
  g_alpha = gcd_j <alpha_j, alpha^v>, which is 1 or 2.  Each orbit holds a
  wall of A_0 and takes the weight of that wall's generator; two walls in
  one orbit belong to conjugate generators, whose weights must agree.  So
  in type A_n (n >= 2) all weights agree, while in the C-family (C2, and
  A1 as its rank-1 member) the short roots split into even and odd levels.

params = (L(s_0), ..., L(s_n)) by generator label: the affine generator
has label affine_gen and the finite generators take the other labels in
order.  Every root must satisfy even_weight >= odd_weight (in the C-family:
L(s_0) >= L(s_n)).  This is the orientation in which 0 is always a special
point, and the special points form an index-2 sublattice of the classical
weight lattice when the two weights differ.
"""

from __future__ import annotations

import math


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

    def reflection_matrix(self) -> tuple:
        """The reflection in this root as an integer matrix acting on row
        vectors of weight coordinates: lam |-> lam - <lam, alpha^v> alpha."""
        n = len(self.vector)
        return tuple(
            tuple(int(r == c) - self.covector[r] * self.vector[c] for c in range(n))
            for r in range(n)
        )

    def __repr__(self):
        return f"PosRoot({self.vector})"


def _dot(lam, cov):
    return sum(a * b for a, b in zip(lam, cov))


# Per type: the Cartan matrix, cartan[i][j] = <alpha_j, alpha_i^v> (Bourbaki
# numbering: in C2, alpha_1 = e1-e2 is short and alpha_2 = 2e2 long), and the
# label of the affine generator.  The walls are H_{alpha,k} = {<x, alpha^v> = k},
# so each row holds the Cartan matrix of the root system dual to the affine
# group it produces: C~n needs the Bn row.  C2 is self-dual, which hides this.
# The keys are the names the CLI --type and --rank select.
_TYPES = {
    "A1": (((2,),), 1),
    "A2": (((2, -1), (-1, 2)), 0),
    "A3": (((2, -1, 0), (-1, 2, -1), (0, -1, 2)), 0),
    "C2": (((2, -2), (-1, 2)), 2),
}


def _orbit(cartan, i) -> set:
    """The W_0-orbit of (alpha_i, alpha_i^v) as pairs (root, coroot) in the
    simple root and simple coroot bases.  s_j changes coordinate j only: by
    <beta, alpha_j^v> = sum_k beta_k cartan[j][k] for a root beta, and by
    the transpose for a coroot."""
    n = len(cartan)
    unit = tuple(int(k == i) for k in range(n))
    seen = {(unit, unit)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for root, coroot in frontier:
            for j in range(n):
                a = sum(root[k] * cartan[j][k] for k in range(n))
                b = sum(coroot[k] * cartan[k][j] for k in range(n))
                img = (
                    tuple(x - a * (k == j) for k, x in enumerate(root)),
                    tuple(x - b * (k == j) for k, x in enumerate(coroot)),
                )
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


class WeightSystem:
    """Root system, weight function and all derived L-weight data."""

    def __init__(self, cartan_type: str, rank: int, params):
        key = f"{cartan_type}{rank}"
        if key not in _TYPES:
            raise ValueError(f"unsupported Cartan data {cartan_type}_{rank}")
        params = tuple(params)
        if len(params) != rank + 1:
            raise ValueError(f"need {rank + 1} generator weights, got {len(params)}")
        if any(type(p) is not int or p < 1 for p in params):
            raise ValueError("generator weights must be positive integers")

        self.cartan_type = cartan_type
        self.rank = rank
        self.params = params
        self.num_gens = rank + 1
        self.cartan, self.affine_gen = _TYPES[key]
        self.simple_to_gen = tuple(g for g in range(rank + 1) if g != self.affine_gen)

        self._build_roots()
        self._build_w0()
        self._build_lattices()

    # -- construction ------------------------------------------------------

    def _build_roots(self):
        n = self.rank
        cart = self.cartan
        # positive (root, coroot) pairs, each with the first simple root in
        # its W_0-orbit as the orbit's name
        orbit_of = {}
        for i in range(n):
            for pair in _orbit(cart, i):
                if min(pair[0]) >= 0:
                    orbit_of.setdefault(pair, i)
        pairs = sorted(orbit_of, key=lambda p: (sum(p[0]), tuple(-c for c in p[0])))
        # root vectors in weight coordinates: combinations of the
        # simple-root columns of the Cartan matrix
        vecs = [tuple(_dot(rc, cart[i]) for i in range(n)) for rc, _ in pairs]
        # H_{alpha,k} lies in the orbit (orbit of alpha, k mod g_alpha), with
        # g_alpha the gcd of the pairings of the simple roots with alpha^v
        gcds = [math.gcd(*(_dot(vecs[j], cov) for j in range(n))) for _, cov in pairs]
        orbit_class = lambda idx, k: (orbit_of[pairs[idx]], k % gcds[idx])
        top = max(range(len(pairs)), key=lambda idx: sum(pairs[idx][1]))

        walls = [(k, 0, self.simple_to_gen[k]) for k in range(n)]
        walls.append((top, 1, self.affine_gen))
        gen_of = {}
        for idx, level, gen in walls:
            other = gen_of.setdefault(orbit_class(idx, level), gen)
            if self.params[other] != self.params[gen]:
                raise ValueError(
                    f"generators {min(other, gen)} and {max(other, gen)} are conjugate; "
                    "weights must agree")
        roots = []
        for idx, (vec, (_, cov)) in enumerate(zip(vecs, pairs)):
            even, odd = (self.params[gen_of[orbit_class(idx, k)]] for k in (0, 1))
            if even < odd:
                raise ValueError(
                    "the hyperplanes through the origin must not weigh less than "
                    "their odd translates (L(s_0) >= L(s_n) in the C-family)")
            roots.append(PosRoot(idx, vec, cov, even, odd))
        self.positive_roots = roots
        self.simple_roots = roots[:n]
        self.highest_coroot_root = roots[top]
        self._root_by_vector = {r.vector: (r, 1) for r in roots}
        self._root_by_vector.update(
            {tuple(-x for x in r.vector): (r, -1) for r in roots}
        )

    def _build_w0(self):
        """Tabulate the finite Weyl group as integer matrices on P.

        The breadth-first search over words visits the elements in index
        order and records each step u -> u s_i (one matrix product) and the
        parent and last letter of each new element; Weyl.finite_words keeps
        the words.  The multiplication table is filled from the steps,
        a b = (a parent(b)) s_last(b): one lookup per entry, no matrix product."""
        n = self.rank
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

        def matmul(a, b):
            return tuple(
                tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
                for r in range(n)
            )

        simple_mats = [r.reflection_matrix() for r in self.simple_roots]
        mats = [ident]
        index = {ident: 0}
        steps = []  # steps[u][i]: the index of u s_i
        came = []  # (parent, last letter) of elements 1, 2, ...
        frontier = [0]
        while frontier:
            nxt = []
            for ui in frontier:
                row = []
                for i, sm in enumerate(simple_mats):
                    m = matmul(mats[ui], sm)
                    if m not in index:
                        index[m] = len(mats)
                        came.append((ui, i))
                        nxt.append(len(mats))
                        mats.append(m)
                    row.append(index[m])
                steps.append(row)
            frontier = nxt
        size = len(mats)

        self.w0_mats = mats
        self.w0_index = index
        self.w0_size = size
        self.w0_simple_index = tuple(steps[0])
        self.w0_mult = []
        for a in range(size):
            row = [a]
            for p, i in came:
                row.append(steps[row[p]][i])
            self.w0_mult.append(row)
        self.w0_inv = [row.index(0) for row in self.w0_mult]

        # Signed action on positive roots: root_action[u][r] = (r', sign)
        # with (positive root r) * u = sign * (positive root r').
        self.w0_root_action = [
            [(tgt.index, sign) for tgt, sign in
             (self._root_by_vector[self.act(r.vector, u)] for r in self.positive_roots)]
            for u in range(size)
        ]
        lengths = [sum(sign < 0 for _, sign in row) for row in self.w0_root_action]
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
        self._q_index = abs(_det(self.q_basis))
        self._q_cofactors = _cofactors(self.q_basis)
        self.pi_order = self._q_index // math.prod(self.b)

    # -- lattice membership and reduction -----------------------------------

    def in_lattice(self, lam) -> bool:
        """Whether lam (weight coordinates) is an L-weight lattice point."""
        return all(c % b == 0 for c, b in zip(lam, self.b))

    def check_lattice(self, lam):
        if not self.in_lattice(lam):
            raise ValueError(f"{lam} is not in the L-weight lattice")
        return tuple(lam)

    def coset_key(self, lam) -> tuple:
        """The class of lam modulo the root lattice Q, as lam.adj(Q) mod
        |det Q|: its simple-root coordinates times det Q, which are
        integers, and are multiples of det Q exactly when lam is in Q."""
        return tuple(_dot(lam, row) % self._q_index for row in self._q_cofactors)

    # -- pairings and the W_0 action ----------------------------------------

    def pairing(self, lam, root: PosRoot) -> int:
        return _dot(lam, root.covector)

    def act(self, lam, u: int) -> tuple:
        """Right action of W_0 element (by index) on a weight."""
        m = self.w0_mats[u]
        n = self.rank
        return tuple(sum(lam[k] * m[k][c] for k in range(n)) for c in range(n))

    def is_dominant(self, lam) -> bool:
        return all(x >= 0 for x in lam)

    def is_antidominant(self, lam) -> bool:
        return all(x <= 0 for x in lam)

    def orbit(self, lam) -> set:
        """The W_0-orbit of a weight, read off the tabulated W_0."""
        return {self.act(lam, u) for u in range(self.w0_size)}

    # -- the involution nu ---------------------------------------------------

    def nu(self, lam) -> tuple:
        """nu(lam) = -(lam . w_0), the diagram involution on weights."""
        return tuple(-x for x in self.act(lam, self.longest_index))


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
    )


def _cofactors(rows):
    """The cofactor matrix: entry (j, i) is (-1)^(i+j) times the minor that
    drops row j and column i, so row j is column j of adj(rows)."""
    n = len(rows)
    return tuple(
        tuple(
            (-1) ** (i + j) * _det([r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j])
            for i in range(n)
        )
        for j in range(n)
    )
