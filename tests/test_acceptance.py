"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints the `heckecell verify` report of its checks, one PASS/FAIL
line per named check (run pytest -s to see them); the same drivers and the
same report back the `heckecell verify` subcommand.  Each suite runs once
per module, and its report is compared byte for byte with the `heckecell
verify` golden in tests/golden_verify.
"""

import pathlib

import pytest

from heckecell import verification

GOLDEN_VERIFY = pathlib.Path(__file__).with_name("golden_verify")


def report(checks):
    failed = [c for c in checks if not c.passed]
    print(verification.report(checks))
    assert not failed, f"{len(failed)} checks failed: {[c.name for c in failed]}"


@pytest.fixture(scope="module")
def paths_checks():
    return verification.type_a_paths_suite()


@pytest.fixture(scope="module")
def kl_axioms_checks():
    return verification.kl_axioms_suite()


@pytest.fixture(scope="module")
def degree_checks():
    return verification.degree_bounds_suite()


@pytest.fixture(scope="module")
def lowest_cell_checks():
    """One run of the lowest-cell suite, shared by criteria 5 and 8."""
    return verification.lowest_cell_suite()


@pytest.fixture(scope="module")
def cellular_checks():
    """The `cellular` suite: the cellular checks, then translation invariance."""
    return verification.cellular_suite() + verification.translation_invariance_suite()


def test_criterion_1_a2_flagship(paths_checks):
    # exact integer equality of decompose_P_tau(2w1 + 2w2) with the known
    # five-term profile, KL caching, length bound <= 14
    report(paths_checks[:1])


def test_criterion_2_path_hecke_equivalence(paths_checks):
    # all tau with a1 + a2 <= 4 in A2, tau = k w1, k <= 4 in A1 and the
    # 20 tau with a1 + a2 + a3 <= 3 in A3
    report(paths_checks[1:])


def test_criterion_3_kl_axioms(kl_axioms_checks):
    # l <= 6 in A2, l <= 8 in A1 (parameters all 1), and C2 with
    # (2,1,1), (1,1,1), (3,2,1) up to l <= 6; all comparisons exact
    report(kl_axioms_checks)


def test_criterion_4_degree_bounds(degree_checks):
    # deg f_{x,y,z} <= c_{x,y} on 200 random pairs per configuration, and
    # the strict bound for x in B_0 (v != w_0; both sides vanish at v = w_0)
    report(degree_checks)


def test_criterion_5_lowest_cell(lowest_cell_checks):
    # factorization bijective on all cell members with l <= l(w_0) + 6 in
    # A2, A1 (2,1), C2 (2,1,1) and A3 (1,152 members at l <= 12), and
    # P(z) C_{w_0 y} = C_{z w_0 y} over the full box (24 x 24 pairs in A3)
    report(lowest_cell_checks)


def test_criterion_6_cellular(cellular_checks):
    # Phi homomorphism over all basis-triple pairs with total reassembled
    # length <= 12 (A1) / <= 10 (A2) at equal parameters, and at unequal
    # ones <= 20 (A1 (2,1)) / <= 14 (C2 (2,1,1) and (3,2,1)); involution
    # identity and unitriangularity on the same triples
    report([c for c in cellular_checks if c.name.startswith("cellular ")])


def test_criterion_7_translation_invariance(cellular_checks):
    # five (lambda, lambda') pairs per configuration in A2 and C2 (2,1,1):
    # integer coefficient families coincide under the index correspondence
    report([c for c in cellular_checks if c.name.startswith("translation-invariance ")])


def test_criterion_8_bounded_substitutes_documented(lowest_cell_checks):
    # the isomorphism statement quantifies over the infinite algebra;
    # criteria 5-7 are its bounded substitutes with every bound named
    names = [c.name for c in lowest_cell_checks[:1]]
    assert any("l<=" in n for n in names)
    print("PASS  criterion-8: bounded substitutes stand in for the "
          "infinite-rank claims (bounds named per suite)")


@pytest.mark.parametrize("suite,fixture", [
    ("type-a-paths", "paths_checks"),
    ("kl-axioms", "kl_axioms_checks"),
    ("degree-bounds", "degree_checks"),
    ("lowest-cell", "lowest_cell_checks"),
    ("cellular", "cellular_checks"),
])
def test_report_matches_the_verify_golden(suite, fixture, request):
    # the report `heckecell verify --suite <suite>` prints (verification.report
    # and the newline print adds): one line per check, then the count of
    # checks passed
    checks = request.getfixturevalue(fixture)
    text = verification.report(checks) + "\n"
    assert text == (GOLDEN_VERIFY / f"{suite}.txt").read_text()
