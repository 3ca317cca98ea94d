from fractions import Fraction

import pytest

from almin.algebra import (
    HermForm,
    QuatForm,
    QuatSecondKindForm,
    QuaternionAlgebra,
)
from almin.numfield import QuadraticField
from almin.quadform import QuadForm, is_isotropic, witt_index
from almin.qgroup import (
    ConvertibleTo,
    InvalidSpec,
    Orthogonal,
    RankProfile,
    ResSL2,
    ResSU3,
    SpecialLinear,
    Symplectic,
    TailNotCertified,
    Unitary1,
    Unitary2,
    Unitary2Quat,
    Unsupported,
    certify_skew_tail_anisotropic,
    diagonalize_hermitian,
    hermitian_signature,
    hermitian_trace_form,
    hermitian_witt_index,
    is_absolutely_almost_simple,
    q_rank,
    quat_hermitian_tail_isotropic,
    rank_profile,
    real_rank,
)
from almin.numfield import field_cert, quadratic_field_cert
from oracles import oracle_solvable


def test_special_linear_ranks():
    assert rank_profile(SpecialLinear(3)) == RankProfile(2, 2)
    d = QuaternionAlgebra(2, 3)  # division, split at infinity
    assert rank_profile(SpecialLinear(2, d)) == RankProfile(1, 3)
    h = QuaternionAlgebra(-1, -1)  # division, ramified at infinity
    assert rank_profile(SpecialLinear(2, h)) == RankProfile(1, 1)
    split = QuaternionAlgebra(1, 1)  # SL_2(M_2(Q)) = SL_4(Q)
    assert rank_profile(SpecialLinear(2, split)) == RankProfile(3, 3)


def test_symplectic_ranks():
    assert rank_profile(Symplectic(2)) == RankProfile(2, 2)
    assert rank_profile(Symplectic(3)) == RankProfile(3, 3)


def test_orthogonal_rank_with_independent_local_check():
    # <1,-1,-1,3,5>: one hyperbolic plane splits off and the ternary tail
    # <-1,3,5> is anisotropic at 3, so q_rank is exactly 1
    g = Orthogonal(QuadForm.diagonal([1, -1, -1, 3, 5]))
    assert q_rank(g) == 1
    assert real_rank(g) == 2
    # independent route: <-1,3,5> isotropic iff z^2 = (1/5)x^2 - (3/5)y^2
    # is solvable; the residue oracle refutes it at p = 3
    assert not oracle_solvable(Fraction(1, 5), Fraction(-3, 5), 3)
    assert not is_isotropic(QuadForm.diagonal([-1, 3, 5]), "global")


def test_orthogonal_more_ranks():
    assert rank_profile(Orthogonal(QuadForm.diagonal([1, -1, 1, -1, 1, -1]))) == (
        RankProfile(3, 3)
    )
    assert rank_profile(Orthogonal(QuadForm.diagonal([1, 2, 3, 4, 5]))) == (
        RankProfile(0, 0)
    )


def test_orthogonal_rank_two_from_invariants():
    # <12,-6,6,-5,5> = H + H + <12>; the first isotropic vector a search
    # finds leaves the complement <102, 90/17, -5>, whose own isotropic
    # vector lies far out
    assert q_rank(Orthogonal(QuadForm.diagonal([12, -6, 6, -5, 5]))) == 2


def test_hermitian_machinery():
    L = QuadraticField(2)
    h = HermForm.diagonal(L, [1, -1, 3])
    cs = diagonalize_hermitian(h)
    assert len(cs) == 3
    assert hermitian_signature(h) == (2, 1)
    tf = hermitian_trace_form(h)
    assert tf.dim == 6
    assert hermitian_witt_index(h) == 1
    # nondiagonal input: hyperbolic hermitian plane
    zero, one = L.element(0), L.element(1)
    hyp = HermForm(L, ((zero, one), (one, zero)))
    assert hermitian_witt_index(hyp) == 1
    assert hermitian_signature(hyp) == (1, 1)


def test_unitary2_ranks():
    L = QuadraticField(2)
    g = Unitary2(HermForm.diagonal(L, [1, -1, -1]))
    assert q_rank(g) == 1
    assert real_rank(g) == 2  # real L: the group is a form of SL_3(R)
    Li = QuadraticField(-1)
    gi = Unitary2(HermForm.diagonal(Li, [1, 1, -1]))
    assert real_rank(gi) == 1  # SU(2,1)
    assert q_rank(gi) == 1


def test_unitary1_hermitian_ranks():
    d = QuaternionAlgebra(-1, -1)
    f = QuatForm(d, "hermitian", (d.element(1), d.element(1)), hyperbolic_count=1)
    g = Unitary1(f)
    assert q_rank(g) == 1
    assert real_rank(g) == 1  # signature (3, 1) over the ramified algebra
    split = QuaternionAlgebra(2, 3)
    f2 = QuatForm(split, "hermitian", (split.element(5),), hyperbolic_count=1)
    assert real_rank(Unitary1(f2)) == 3  # split at infinity: full rank


def test_unitary1_rejects_isotropic_declared_tail():
    d = QuaternionAlgebra(-1, -1)
    # <1, -1> over any algebra is isotropic, so it may not be declared a tail
    f = QuatForm(d, "hermitian", (d.element(1), d.element(-1)))
    with pytest.raises(InvalidSpec):
        q_rank(Unitary1(f))


def test_quat_hermitian_tail_isotropy():
    d = QuaternionAlgebra(-1, -1)
    assert quat_hermitian_tail_isotropic(d, [d.element(1), d.element(-1)])
    assert not quat_hermitian_tail_isotropic(d, [d.element(1), d.element(1)])


def test_skew_tail_certification():
    d = QuaternionAlgebra(-1, -1)
    one_entry = QuatForm(d, "skew_hermitian", (d.gen_i(),))
    assert certify_skew_tail_anisotropic(one_entry) is True
    g = Unitary1(
        QuatForm(d, "skew_hermitian", (d.gen_i(), d.gen_j()), hyperbolic_count=1),
        assume_tail_anisotropic=True,
    )
    assert q_rank(g) == 1
    g_uncond = Unitary1(
        QuatForm(d, "skew_hermitian", (d.gen_i(), d.gen_j()), hyperbolic_count=1)
    )
    result = certify_skew_tail_anisotropic(g_uncond.form)
    if result is None:
        with pytest.raises(TailNotCertified):
            q_rank(g_uncond)


def test_unitary2quat_ranks():
    L = QuadraticField(17)
    d = QuaternionAlgebra(2, 3)
    f = QuatSecondKindForm(L, d, d.one(), (d.element(1),), hyperbolic_count=1)
    g = Unitary2Quat(f)
    assert q_rank(g) == 1
    assert real_rank(g) >= 2


def test_unitary2quat_morita_unsupported():
    # D' = (-1,-1) splits over L = Q(sqrt(-5)) relative analysis: unsupported
    L = QuadraticField(-5)
    d = QuaternionAlgebra(-1, -1)
    f = QuatSecondKindForm(L, d, d.one(), (d.element(1),), hyperbolic_count=1)
    with pytest.raises(Unsupported):
        q_rank(Unitary2Quat(f))


def test_res_sl2_ranks():
    g = ResSL2(quadratic_field_cert(2))
    assert q_rank(g) == 1 and real_rank(g) == 2
    gauss = ResSL2(quadratic_field_cert(-1))
    assert q_rank(gauss) == 1 and real_rank(gauss) == 1
    cubic = ResSL2(field_cert([-2, 0, 0, 1]))  # x^3 - 2: signature (1, 1)
    assert real_rank(cubic) == 2


def test_res_su3_ranks():
    k = QuadraticField(-1)
    l4 = field_cert([1, 0, 0, 0, 1])  # x^4 + 1 contains Q(i), totally imaginary
    g = ResSU3(k, l4)
    assert q_rank(g) == 1 and real_rank(g) == 2
    with pytest.raises(InvalidSpec):
        ResSU3(QuadraticField(2), l4)  # real k_field rejected for analysis


def test_conversions():
    assert is_absolutely_almost_simple(SpecialLinear(3)) is True
    assert is_absolutely_almost_simple(Symplectic(2)) is True
    # quaternary square-discriminant orthogonal groups are not almost simple
    from almin.qgroup import NotAlmostSimple

    with pytest.raises(NotAlmostSimple):
        is_absolutely_almost_simple(Orthogonal(QuadForm.diagonal([1, -1, 1, -1])))
    # isotropic SO4 with nonsquare discriminant converts to a restriction
    # of scalars of SL2 over the discriminant field
    conv = is_absolutely_almost_simple(Orthogonal(QuadForm.diagonal([1, -1, -1, 2])))
    assert isinstance(conv, ConvertibleTo)
    assert isinstance(conv.spec, ResSL2)
    assert conv.spec.field.defining_poly[0] == -2
    # anisotropic quaternary forms are outside the model
    with pytest.raises(Unsupported):
        is_absolutely_almost_simple(Orthogonal(QuadForm.diagonal([1, 1, 1, 2])))


def test_rank_profile_consistency():
    with pytest.raises(InvalidSpec):
        RankProfile(3, 2)
    assert RankProfile(1, 2).s_g_nonempty
    assert not RankProfile(1, 1).s_g_nonempty
