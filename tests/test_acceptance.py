"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints one PASS/FAIL line per named check (run pytest -s to see
them); the same drivers back the `heckecell verify` subcommand.
"""

import pytest

from heckecell import verification


def report(checks):
    failed = [c for c in checks if not c.passed]
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.name}  [{c.detail}]")
    assert not failed, f"{len(failed)} checks failed: {[c.name for c in failed]}"


def test_criterion_1_a2_flagship():
    # exact integer equality of decompose_P_tau(2w1 + 2w2) with the known
    # five-term profile, KL caching, length bound <= 14
    checks = verification.type_a_paths_suite()
    report([checks[0]])


def test_criterion_2_path_hecke_equivalence():
    # all tau with a1 + a2 <= 4 in A2, tau = k w1, k <= 4 in A1 and the
    # 20 tau with a1 + a2 + a3 <= 3 in A3
    checks = verification.type_a_paths_suite()
    report(checks[1:])


def test_criterion_3_kl_axioms():
    # l <= 6 in A2, l <= 8 in A1 (parameters all 1), and C2 with
    # (2,1,1), (1,1,1), (3,2,1) up to l <= 6; all comparisons exact
    report(verification.kl_axioms_suite())


def test_criterion_4_degree_bounds():
    # deg f_{x,y,z} <= c_{x,y} on 200 random pairs per configuration, and
    # the strict bound for x in B_0 (v != w_0; both sides vanish at v = w_0)
    report(verification.degree_bounds_suite())


@pytest.fixture(scope="module")
def lowest_cell_checks():
    """One run of the lowest-cell suite, shared by criteria 5 and 8."""
    return verification.lowest_cell_suite()


def test_criterion_5_lowest_cell(lowest_cell_checks):
    # factorization bijective on all cell members with l <= l(w_0) + 6 in
    # A2, A1 (2,1), C2 (2,1,1) and A3 (1,152 members at l <= 12), and
    # P(z) C_{w_0 y} = C_{z w_0 y} over the full box (24 x 24 pairs in A3)
    report(lowest_cell_checks)


def test_criterion_6_cellular():
    # Phi homomorphism over all basis-triple pairs with total reassembled
    # length <= 12 (A1) / <= 10 (A2) at equal parameters, and at unequal
    # ones <= 20 (A1 (2,1)) / <= 14 (C2 (2,1,1) and (3,2,1)); involution
    # identity and unitriangularity on the same triples
    report(verification.cellular_suite())


def test_criterion_7_translation_invariance():
    # five (lambda, lambda') pairs per configuration in A2 and C2 (2,1,1):
    # integer coefficient families coincide under the index correspondence
    report(verification.translation_invariance_suite())


def test_criterion_8_bounded_substitutes_documented(lowest_cell_checks):
    # the isomorphism statement quantifies over the infinite algebra;
    # criteria 5-7 are its bounded substitutes with every bound named
    names = [c.name for c in lowest_cell_checks[:1]]
    assert any("l<=" in n for n in names)
    print("PASS  criterion-8: bounded substitutes stand in for the "
          "infinite-rank claims (bounds named per suite)")
