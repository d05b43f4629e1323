"""Acceptance sweep drivers.

Each suite returns an ordered list of Check records; the CLI `verify`
subcommand and the acceptance test module both run these and print report,
so there is one definition of every bound, tolerance and report line.  All
comparisons are exact.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .cellular import CellularElt, CellularStructure
from .hecke import Hecke
from .laurent import LaurentPoly
from .lowestcell import LowestCell
from .rootdata import WeightSystem
from .weyl import Weyl
from . import paths


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@functools.cache
def stack(cfg):
    ws = WeightSystem(*cfg)
    weyl = Weyl(ws)
    hecke = Hecke(weyl)
    lowest = LowestCell(hecke)
    return ws, weyl, hecke, lowest, CellularStructure(lowest)


KL_AXIOM_CONFIGS = (
    (("A", 2, (1, 1, 1)), 6),
    (("A", 1, (1, 1)), 8),
    (("C", 2, (2, 1, 1)), 6),
    (("C", 2, (1, 1, 1)), 6),
    (("C", 2, (3, 2, 1)), 6),
)


def kl_axioms_suite():
    out = []
    for cfg, bound in KL_AXIOM_CONFIGS:
        ws, weyl, hecke, _, _ = stack(cfg)
        bad = []
        for w in weyl.enumerate_elements(bound):
            cw = hecke.kl_basis(w)
            if hecke.bar(cw) != cw:
                bad.append(("bar", w))
            low = cw - hecke.t(w)
            if not all(p.in_strictly_negative() for _, p in low.items()):
                bad.append(("filtration", w))
            cwi = hecke.kl_basis(w.inverse())
            if hecke.flat(cw) != cwi:
                bad.append(("flat", w))
            if any(cwi.coeff(y.inverse()) != p for y, p in cw.items()):
                bad.append(("P-symmetry", w))
        out.append(Check(
            f"kl-axioms {cfg} l<={bound}",
            not bad,
            f"{len(bad)} failures" if bad else "bar/filtration/flat/P-symmetry exact",
        ))
    return out


DEGREE_CONFIGS = (
    ("A", 2, (1, 1, 1)),
    ("A", 1, (2, 1)),
    ("C", 2, (2, 1, 1)),
    ("C", 2, (3, 2, 1)),
)
DEGREE_PAIRS = 200  # sampled (x, y) pairs per configuration


def degree_bounds_suite(seed: int = 0):
    out = []
    for cfg in DEGREE_CONFIGS:
        ws, weyl, hecke, lowest, _ = stack(cfg)
        rng = random.Random(seed + 11)
        pool = [w for w in weyl.enumerate_elements(5)]
        bad = []
        for _ in range(DEGREE_PAIRS):
            x, y = rng.choice(pool), rng.choice(pool)
            bound = hecke.degree_bound(x, y)
            for z, f in hecke.f_constants(x, y).items():
                if f.degree() > bound:
                    bad.append((x, y, z))
        out.append(Check(
            f"degree-bound deg(f) <= c_(x,y) {cfg} ({DEGREE_PAIRS} pairs)",
            not bad, f"{len(bad)} violations" if bad else "exact",
        ))

        # Strict bound for x in B_0.  At v = w_0 both sides vanish (length
        # additivity empties H_{x,w_0 y}), which is the degenerate case the
        # congruence argument replaces by exactness; strictness is the
        # claim for v != w_0.
        w0 = weyl.longest_finite
        lw0 = w0.weight_length()
        strict_bad = []
        x0_pool = [y for y in weyl.enumerate_elements(4) if lowest.is_in_x0(y.inverse())]
        for _ in range(DEGREE_PAIRS // 4):
            x = rng.choice(lowest.box_elements())
            v = weyl.finite_element(rng.randrange(ws.w0_size))
            y = v * rng.choice(x0_pool)
            c = hecke.degree_bound(x, y)
            if v == w0:
                if c != 0:
                    strict_bad.append((x, y))
            elif not c < lw0 - v.weight_length():
                strict_bad.append((x, y))
        out.append(Check(
            f"degree-bound strict c_(x,vy) < L(w_0)-L(v), x in B_0, v != w_0 {cfg}",
            not strict_bad, f"{len(strict_bad)} violations" if strict_bad else "exact",
        ))
    return out


LOWEST_CELL_CONFIGS = (
    ("A", 2, (1, 1, 1)),
    ("A", 1, (2, 1)),
    ("C", 2, (2, 1, 1)),
    ("A", 3, (1, 1, 1, 1)),
)


def lowest_cell_suite():
    out = []
    for cfg in LOWEST_CELL_CONFIGS:
        ws, weyl, hecke, lowest, cs = stack(cfg)
        w0 = weyl.longest_finite
        bound = w0.length() + 6
        cell = lowest.cell_elements(bound)
        seen = set()
        bad = 0
        for w in cell:
            f = lowest.factorize(w)
            if lowest.assemble(*f) != w:
                bad += 1
            seen.add(f)
        regenerated = set(cs.basis_triples(bound))
        bijective = seen == regenerated and len(seen) == len(cell) and bad == 0
        out.append(Check(
            f"lowest-cell factorization bijective {cfg} l<={bound}",
            bijective,
            f"{len(cell)} members <-> {len(regenerated)} parameter triples",
        ))

        ok = True
        b0 = lowest.box_elements()
        for z in b0:
            pz = lowest.p_element(z)
            for zp in b0:
                y = zp.inverse()
                if hecke.mul(pz, hecke.kl_basis(w0 * y)) != hecke.kl_basis(z * w0 * y):
                    ok = False
        out.append(Check(
            f"lowest-cell P(z)C_(w_0 y) = C_(z w_0 y) {cfg}", ok,
            f"all {len(b0)}x{len(b0)} pairs" if ok else "failure",
        ))
    return out


CELLULAR_BOUNDS = (
    (("A", 1, (1, 1)), 12), (("A", 2, (1, 1, 1)), 10),
    (("A", 1, (2, 1)), 20), (("C", 2, (2, 1, 1)), 14), (("C", 2, (3, 2, 1)), 14),
)


def cellular_suite():
    out = []
    for cfg, bound in CELLULAR_BOUNDS:
        ws, weyl, hecke, lowest, cs = stack(cfg)
        triples = cs.basis_triples(bound)
        images = {t: cs.phi_iso(CellularElt.basis(*t)) for t in triples}
        lens = {t: lowest.assemble(*t).length() for t in triples}
        hom_bad = 0
        pair_count = 0
        for b in triples:
            for a in triples:
                if lens[a] + lens[b] > bound:
                    continue
                pair_count += 1
                prod = hecke.mul(images[a], images[b])
                cell = cs.cellular_mul(CellularElt.basis(*a), CellularElt.basis(*b))
                if prod != cs.phi_iso(cell):
                    hom_bad += 1
        out.append(Check(
            f"cellular Phi homomorphism {cfg} total l<={bound}",
            hom_bad == 0, f"{pair_count} pairs" if not hom_bad else f"{hom_bad} failures",
        ))

        inv_bad = sum(not cs.involution_check(CellularElt.basis(*t)) for t in triples)
        out.append(Check(
            f"cellular involution Phi(v@b@w)^flat = Phi(w@nu(b)@v) {cfg}",
            inv_bad == 0, f"{len(triples)} triples" if not inv_bad else f"{inv_bad} failures",
        ))

        tri_bad = 0
        for t in triples:
            top = lowest.assemble(*t)
            coords = hecke.kl_expand(images[t])
            if coords.get(top) != LaurentPoly.one() or not all(
                    w == top or weyl.bruhat_leq(w, top) for w in coords):
                tri_bad += 1
        out.append(Check(
            f"cellular unitriangularity of Phi {cfg}",
            tri_bad == 0, f"{len(triples)} triples" if not tri_bad else f"{tri_bad} failures",
        ))
    return out


TRANSLATION_CASES = {
    ("A", 2, (1, 1, 1)): [
        ((1, 0), (-5, -5), None),
        ((1, 0), (-3, -2), None),
        ((0, 1), (-4, -1), None),
        ((0, 1), (-2, -6), (-2, -1)),
        ((1, 0), (-1, -4), (-1, -2)),
    ],
    ("C", 2, (2, 1, 1)): [
        ((0, 1), (-2, -3), None),
        ((0, 1), (-4, -1), (-2, -1)),
        ((0, 1), (-2, -4), (-2, -2)),
        ((2, 0), (-4, -1), (-2, -1)),
        ((2, 0), (-4, -3), (-4, -2)),
    ],
}


def translation_invariance_suite():
    out = []
    for cfg, cases in TRANSLATION_CASES.items():
        ws, weyl, hecke, lowest, cs = stack(cfg)
        bad = []
        for omega, lam, lam2 in cases:
            if lam2 is None:
                lam2 = cs.reduce_lambda(lam, omega)
            fam1 = cs.decompose_P_omega(omega, lam)
            fam2 = cs.decompose_P_omega(omega, lam2)
            ok, why = _families_aligned(ws, fam1, lam, fam2, lam2)
            if not ok:
                bad.append((omega, lam, lam2, why))
        out.append(Check(
            f"translation-invariance {cfg} ({len(cases)} pairs)",
            not bad, "integer families coincide" if not bad else f"failures: {bad}",
        ))
    return out


def _families_aligned(ws, fam1, lam1, fam2, lam2):
    """The two expansions share one integer family under the constraint
    lam - nu(alpha) antidominant."""
    for alpha in set(fam1) | set(fam2):
        na = ws.nu(alpha)
        in1 = ws.is_antidominant(tuple(x - y for x, y in zip(lam1, na)))
        in2 = ws.is_antidominant(tuple(x - y for x, y in zip(lam2, na)))
        if alpha in fam1 and not in1:
            return False, ("unconstrained key in first family", alpha)
        if alpha in fam2 and not in2:
            return False, ("unconstrained key in second family", alpha)
        if in1 and in2 and fam1.get(alpha, 0) != fam2.get(alpha, 0):
            return False, ("coefficient mismatch", alpha)
    return True, None


FLAGSHIP_EXPECTED = {
    (-2, -2): 1, (-3, 0): 1, (0, -3): 1, (-1, -1): 4, (0, 0): 2,
}


def type_a_paths_suite():
    out = []
    _, _, _, _, cs2 = stack(("A", 2, (1, 1, 1)))
    prof = cs2.decompose_P_tau((2, 2))
    out.append(Check(
        "A2 flagship decompose_P_tau(2w1+2w2)",
        prof == FLAGSHIP_EXPECTED, f"profile {sorted(prof.items())}",
    ))

    bad = [(a1, a2) for a1 in range(5) for a2 in range(5 - a1)
           if not paths.cross_check(cs2, (a1, a2))]
    out.append(Check(
        "A2 path-Hecke cross-check a1+a2<=4",
        not bad, "exact profile equality" if not bad else f"failures {bad}",
    ))

    _, _, _, _, cs1 = stack(("A", 1, (1, 1)))
    bad1 = [k for k in range(5) if not paths.cross_check(cs1, (k,))]
    out.append(Check(
        "A1 path-Hecke cross-check k<=4",
        not bad1, "exact profile equality" if not bad1 else f"failures {bad1}",
    ))

    _, _, _, _, cs3 = stack(("A", 3, (1, 1, 1, 1)))
    taus3 = [(a1, a2, a3) for a1 in range(4) for a2 in range(4 - a1) for a3 in range(4 - a1 - a2)]
    bad3 = [t for t in taus3 if not paths.cross_check(cs3, t)]
    out.append(Check(
        "A3 path-Hecke cross-check a1+a2+a3<=3",
        not bad3, f"exact profile equality, {len(taus3)} tau" if not bad3 else f"failures {bad3}",
    ))
    return out


SUITES = {
    "kl-axioms": kl_axioms_suite,
    "degree-bounds": degree_bounds_suite,
    "lowest-cell": lowest_cell_suite,
    "cellular": lambda: cellular_suite() + translation_invariance_suite(),
    "type-a-paths": type_a_paths_suite,
}

# The suites that sample their checks and so take a seed.
SEEDED_SUITES = {"degree-bounds"}


def run_suite(name: str, seed=None):
    """Run a suite, passing seed on when given: only SEEDED_SUITES take one."""
    return SUITES[name]() if seed is None else SUITES[name](seed=seed)


def report(checks) -> str:
    """The text `heckecell verify` prints: one PASS/FAIL line per check,
    then the count of checks passed."""
    lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.name}  [{c.detail}]" for c in checks]
    return "\n".join(lines + [f"{sum(c.passed for c in checks)}/{len(checks)} checks passed"])
