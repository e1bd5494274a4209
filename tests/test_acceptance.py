"""Acceptance criteria, one test per criterion.

Each test runs its battery at the stated exhaustive bound, asserts the
result exactly (all arithmetic is integer arithmetic), enforces the stated
runtime budget, and prints one PASS/FAIL line.  Run with ``pytest -v`` (add
``-s`` to see the lines even on success).
"""

import time

from blockperm import verify
from blockperm.perms import max_shuffle, shuffles, weak_leq


class _Budget:
    def __init__(self, number, title, seconds):
        self.number = number
        self.title = title
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(
            f"ACCEPTANCE {self.number:02d} {status} "
            f"({elapsed:.1f}s of {self.seconds}s budget): {self.title}"
        )
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)"
            )
        return False


def _require(*checks):
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"


def test_criterion_01_counting():
    with _Budget(1, "counts by formula, recursion, enumeration, closure", 30):
        _require(
            verify.check_counts_closed_forms(6),
            verify.check_counts_enumeration(5),
        )


def test_criterion_02_type_counts():
    with _Budget(2, "set-partition counts by type", 5):
        _require(verify.check_type_counts(6))


def test_criterion_03_presentation():
    with _Budget(3, "monoid presentation relations", 10):
        _require(verify.check_presentation_relations(5))


def test_criterion_04_inverse_monoid():
    with _Budget(4, "inverse-monoid identities and idempotents", 60):
        _require(verify.check_inverse_monoid(4))


def test_criterion_05_domain_sum_ideal():
    with _Budget(5, "domain-class sums: absorption, merge rule, right ideal", 60):
        _require(verify.check_ideal_lemma(4), verify.check_right_ideal(4))


def test_criterion_06_hopf_axioms():
    with _Budget(6, "Hopf axioms, exhaustive to total degree 4", 300):
        _require(
            verify.check_hopf_associativity(4),
            verify.check_hopf_coassociativity(5),
            verify.check_counit_axiom(4),
            verify.check_bialgebra_compatibility(4),
            verify.check_antipode_axioms(4),
        )


def test_criterion_07_self_duality():
    with _Budget(7, "self-duality pairing adjunction to degree 4", 120):
        _require(verify.check_pairing_basics(4), verify.check_duality_adjunction(4))


def test_criterion_08_weak_order():
    with _Budget(8, "weak order: partial order, lower ideals, maxima, components", 30):
        _require(
            verify.check_weak_order_poset(5),
            verify.check_shuffle_posets(5),
            verify.check_coset_decomposition(5),
            verify.check_component_decomposition(5),
            verify.check_hasse_components(4),
        )
        # the maximum-shuffle claim holds one degree further out
        for p in range(7):
            q = 6 - p
            top = max_shuffle(p, q)
            assert all(weak_leq(xi, top) for xi in shuffles(p, q))


def test_criterion_09_triangular_bases():
    with _Budget(9, "triangular basis round trips and product rules", 120):
        _require(
            verify.check_lower_basis_roundtrip(4),
            verify.check_upper_basis_roundtrip(4),
            verify.check_lower_basis_product(4),
            verify.check_upper_basis_product(4),
            verify.check_upper_basis_domain_sums(4),
        )


def test_criterion_10_series():
    with _Budget(10, "primitive dimensions by series inversion", 1):
        _require(verify.check_series(6))


def test_criterion_11_permutation_subalgebra():
    with _Budget(11, "permutation subalgebra and word-shuffle product", 30):
        _require(verify.check_permutation_subalgebra(4))


def test_criterion_12_ncsym():
    with _Budget(12, "noncommutative power sums: oracles and transport", 120):
        _require(
            verify.check_p_product_oracle(5),
            verify.check_p_coproduct_oracle(4),
            verify.check_p_coproduct_display(None),
            verify.check_transport(4),
        )


def test_criterion_13_tensor_actions():
    with _Budget(13, "tensor actions: commutation, ranks, convolution", 300):
        _require(
            verify.check_commutation(8),
            verify.check_span_ranks(3),
            verify.check_convolution(4),
        )


def test_criterion_14_primitives():
    with _Budget(14, "expected primitive elements", 1):
        _require(verify.check_primitives(None))
