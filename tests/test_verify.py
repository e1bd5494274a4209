"""Each verify check that compares two computations fails when one of them
is broken on purpose."""

import pytest

from blockperm import hopf, schurweyl, verify
from blockperm.hopf import Element, TensorElement
from blockperm.monoid import identity, merge_generator, transposition_generator


def test_dropped_coproduct_term_is_caught(monkeypatch):
    coproduct = hopf.coproduct

    def lossy(x):
        delta = coproduct(x)
        if x.degrees() != {3}:
            return delta
        key = min(delta.terms)
        return delta - TensorElement.basis(key, delta.coeff(key))

    monkeypatch.setattr(hopf, "coproduct", lossy)
    assert verify.check_duality_adjunction(3).passed is False
    assert verify.check_hopf_coassociativity(3).passed is False


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_stray_basis_term_is_caught(monkeypatch, side):
    expand = getattr(hopf, f"from_{side}_basis")
    stray = Element.basis(identity(2))
    monkeypatch.setattr(
        hopf,
        f"from_{side}_basis",
        lambda x: expand(x) + stray if 2 in x.degrees() else expand(x),
    )
    assert getattr(verify, f"check_{side}_basis_roundtrip")(3).passed is False
    assert getattr(verify, f"check_{side}_basis_product")(3).passed is False


def test_broken_absorption_is_caught_on_diagrams(monkeypatch):
    b1, s1 = merge_generator(2, 1), transposition_generator(2, 1)
    compose = verify.compose
    monkeypatch.setattr(
        verify, "compose", lambda g, f: f if (g, f) == (b1, s1) else compose(g, f)
    )
    check = verify.check_presentation_relations(2)
    assert check.passed is False
    assert check.detail == "n=2: b_1 s_1 = s_1 b_1 = b_1 fails"


def test_broken_absorption_is_caught_on_matrices(monkeypatch):
    # b_1 acting as the identity keeps b_1^2 = b_1 but breaks b_1 s_1 = b_1.
    b1 = merge_generator(2, 1)
    action = schurweyl.ubp_action_matrix
    monkeypatch.setattr(
        schurweyl,
        "ubp_action_matrix",
        lambda f, m: schurweyl.ActionMatrix.identity(m**f.n) if f == b1 else action(f, m),
    )
    check = verify.check_generator_matrix_relations(2)
    assert check.passed is False
    assert check.detail == "n=2, m=2: b_1 s_1 = s_1 b_1 = b_1 fails"


def test_wrong_root_exponent_is_caught_mod_r(monkeypatch):
    # Word 1 is (1, ..., 1, 2), which s_{n-1} moves; one more root power on
    # it breaks commutation for every r >= 2 and is invisible mod 1.
    group_map = schurweyl._group_map

    def off_by_one(g, words, m):
        targets, exponents = group_map(g, words, m)
        if len(exponents) > 1:
            exponents[1] += 1
        return targets, exponents

    monkeypatch.setattr(schurweyl, "_group_map", off_by_one)
    check = verify.check_commutation()
    assert check.passed is False
    assert check.detail == "fails at (n,m,r)=(2,2,2)"
    for n in range(1, 9):
        for m in range(1, 17):
            if m**n > 256:
                break
            assert schurweyl.commutation_check(n, m, 1), (n, m)


def test_extra_killed_word_is_caught(monkeypatch):
    # Every diagram keeps the constant word (1, ..., 1).  Killing it shows
    # at the first case with a letter swap, which moves that word.
    diagram_targets = schurweyl._diagram_targets

    def lossy(f, words, m):
        targets = diagram_targets(f, words, m)
        targets[0] = -1
        return targets

    monkeypatch.setattr(schurweyl, "_diagram_targets", lossy)
    check = verify.check_commutation()
    assert check.passed is False
    assert check.detail == "fails at (n,m,r)=(2,2,1)"
