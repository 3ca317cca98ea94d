import random
from fractions import Fraction

import pytest

from almin.arith import REAL, FinitePrime, is_rational_square, squarefree_part
from almin.algebra import (
    Degenerate,
    DegenerateTower,
    InfeasibleSign,
    NotSymmetric,
    QuatForm,
    QuatSecondKindForm,
    QuaternionAlgebra,
    b2_realization,
    common_orthogonal_pure,
    find_splitting_quadratic,
    is_division,
    is_ramified_at_infinity,
    ramification_set,
    second_kind_involution,
    skew_restriction,
)
from almin.numfield import QuadraticField, verify_subfield
from almin.quadform import is_isotropic, witt_index


def test_ramification_sets():
    assert ramification_set(QuaternionAlgebra(2, 3)) == frozenset(
        {FinitePrime(2), FinitePrime(3)}
    )
    assert ramification_set(QuaternionAlgebra(-1, -1)) == frozenset(
        {FinitePrime(2), REAL}
    )
    assert ramification_set(QuaternionAlgebra(1, 5)) == frozenset()


def test_is_division():
    assert is_division(QuaternionAlgebra(2, 3))
    assert is_division(QuaternionAlgebra(-1, -1))
    assert not is_division(QuaternionAlgebra(1, 1))
    assert not is_division(QuaternionAlgebra(2, -1))  # norm form of Q(i) splits it
    assert is_ramified_at_infinity(QuaternionAlgebra(-1, -1))
    assert not is_ramified_at_infinity(QuaternionAlgebra(2, 3))


def test_quaternion_arithmetic():
    d = QuaternionAlgebra(2, 3)
    i, j = d.gen_i(), d.gen_j()
    assert i * i == d.element(2)
    assert j * j == d.element(3)
    assert i * j == -(j * i)
    x = d.element(1, 2, 0, 1)
    assert x * x.inverse() == d.one()
    assert x.nrd() == (x * x.conj()).t
    assert x.trd() == (x + x.conj()).t


def test_find_splitting_quadratic():
    d = QuaternionAlgebra(2, 3)
    s = find_splitting_quadratic(d)
    c1, c2, c3 = s.witness
    # the witness exhibits sqrt(value) inside d, so Q(sqrt e) embeds and splits
    assert 2 * c1 * c1 + 3 * c2 * c2 - 6 * c3 * c3 == s.value
    assert squarefree_part(s.value) == s.field.d
    assert not is_rational_square(s.value)
    neg = find_splitting_quadratic(d, sign_constraint="negative")
    assert neg.value < 0
    with pytest.raises(InfeasibleSign):
        find_splitting_quadratic(QuaternionAlgebra(-1, -1), sign_constraint="positive")


def test_b2_realization_shape_and_split_case():
    d = QuaternionAlgebra(2, 3)
    h = QuatForm(d, "hermitian", (d.element(1), d.element(-1)))
    q = b2_realization(d, h)
    assert q.dim == 5
    # a split input algebra gives the split 5-dimensional form: witt index 2
    split = QuaternionAlgebra(1, 1)
    hs = QuatForm(split, "hermitian", (split.element(1), split.element(-1)))
    qs = b2_realization(split, hs)
    assert witt_index(qs) == 2
    with pytest.raises(ValueError):
        b2_realization(d, QuatForm(d, "hermitian", (d.element(1),)))


def test_common_orthogonal_pure():
    d = QuaternionAlgebra(2, 3)
    a3 = d.gen_i()
    a4 = d.element(0, 1, 1, 0)
    alpha = common_orthogonal_pure(a3, a4)
    assert alpha.is_pure() and not alpha.is_zero()
    assert (alpha * a3 + a3 * alpha).is_zero()
    assert (alpha * a4 + a4 * alpha).is_zero()
    with pytest.raises(ValueError):
        common_orthogonal_pure(d.one(), a3)


def test_skew_restriction_biquadratic():
    d = QuaternionAlgebra(-1, -1)
    form = QuatForm(
        d, "skew_hermitian", (d.gen_i(), d.gen_j()), hyperbolic_count=1
    )
    r = skew_restriction(form, 0, 1)
    assert (r.alpha * form.diagonal[0] + form.diagonal[0] * r.alpha).is_zero()
    # alpha^2 must generate F'
    assert squarefree_part(-Fraction(r.alpha.nrd())) == r.fprime.d
    assert r.k_cert.degree == 4
    for cert in r.k_cert.subfields:
        assert verify_subfield(r.k_cert, cert)


def test_skew_restriction_rejects_commuting_entries():
    d = QuaternionAlgebra(-1, -1)
    form = QuatForm(d, "skew_hermitian", (d.gen_i(), d.element(0, -1, 0, 0)))
    # c = a3^{-1} a4 = -1, so -c = 1 is a square and no tower exists
    with pytest.raises((DegenerateTower, Degenerate)):
        skew_restriction(form, 0, 1)


def test_second_kind_involution_fixes_unit_and_diagonal():
    L = QuadraticField(17)
    d = QuaternionAlgebra(2, 3)
    form = QuatSecondKindForm(
        L, d, d.one(), (d.element(1), d.element(-1)), hyperbolic_count=0
    )
    for e in form.diagonal:
        assert second_kind_involution(form, e) == e
    x = d.element(1, 1, 0, 0)
    tx = second_kind_involution(form, x)
    # involution property: applying twice is the identity
    assert second_kind_involution(form, tx) == x
    with pytest.raises(NotSymmetric):
        QuatSecondKindForm(L, d, d.one(), (d.gen_i(),))


def test_quat_form_validation():
    d = QuaternionAlgebra(2, 3)
    with pytest.raises(NotSymmetric):
        QuatForm(d, "hermitian", (d.gen_i(),))
    with pytest.raises(NotSymmetric):
        QuatForm(d, "skew_hermitian", (d.element(1),))
    with pytest.raises(Degenerate):
        QuatForm(d, "hermitian", (d.element(0),))
    with pytest.raises(ValueError):
        QuatForm(d, "sesquilinear", (d.element(1),))


def test_splitting_field_of_a_division_second_kind_algebra_is_not_l():
    # the compositum witness of Unitary2Quat takes E from the first pick of
    # find_splitting_quadratic; it must differ from L, which holds because
    # D' tensor L division means L does not split D'
    from almin.qgroup import _second_kind_is_division

    rng = random.Random(10)
    classes = [c for c in range(-40, 41) if c not in (0, 1) and squarefree_part(c) == c]
    checked = 0
    for _ in range(400):
        dp = QuaternionAlgebra(rng.choice(classes), rng.choice(classes))
        L = QuadraticField(rng.choice(classes))
        if not _second_kind_is_division(QuatSecondKindForm(L, dp, dp.one(), ())):
            continue
        for sign in ("positive", "negative", "any"):
            try:
                sp = find_splitting_quadratic(dp, sign)
            except InfeasibleSign:
                continue
            assert sp.field.d != L.d, (dp, L.d, sign)
            checked += 1
    assert checked > 500
