import math
import random
from fractions import Fraction

import pytest

from almin import numfield, polys
from almin.arith import REAL, FinitePrime, is_rational_square, rational_sqrt, squarefree_part
from almin.algebra import (
    Degenerate,
    DegenerateTower,
    InfeasibleSign,
    NotSymmetric,
    QuatElement,
    QuatForm,
    QuatSecondKindForm,
    QuaternionAlgebra,
    _integral_quartic_cert,
    b2_realization,
    common_orthogonal_pure,
    find_splitting_quadratic,
    is_division,
    is_ramified_at_infinity,
    ramification_set,
    re_trd_pairing,
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
    # the least of a, b, -ab that has the sign and is not a square
    cases = [
        (2, 3, "positive", 2, (1, 0, 0)),
        (2, 3, "negative", -6, (0, 0, 1)),
        (2, 3, "any", -6, (0, 0, 1)),
        (-1, -1, "any", -1, (1, 0, 0)),
        (-1, 3, "positive", 3, (0, 1, 0)),
        (-2, -5, "negative", -10, (0, 0, 1)),
        (1, 5, "positive", 5, (0, 1, 0)),
    ]
    for a, b, sign, value, coords in cases:
        d = QuaternionAlgebra(a, b)
        s = find_splitting_quadratic(d, sign)
        assert (s.value, s.witness) == (value, coords), (a, b, sign)
        assert squarefree_part(s.value) == s.field.d
        # xi = c1 i + c2 j + c3 ij squares to the value, so Q(sqrt e) embeds
        xi = d.element(0, *s.witness)
        assert xi * xi == d.element(s.value)
    with pytest.raises(InfeasibleSign):
        find_splitting_quadratic(QuaternionAlgebra(-1, -1), sign_constraint="positive")
    with pytest.raises(InfeasibleSign):
        find_splitting_quadratic(QuaternionAlgebra(1, 4), sign_constraint="positive")


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


def _b2_gram_by_products(d, h):
    """The reference Gram of b2_realization: (Trd(uv) + Trd(vu)) / 2 over an
    explicit basis of h-symmetric trace-zero 2 x 2 quaternion matrices, by
    quaternion matrix products."""
    h1, h2 = (Fraction(e.t) for e in h.diagonal)
    zero, one = d.element(0), d.one()

    def make(m11, m21):
        # m12 = h1^{-1} conj(m21) h2 = (h2/h1) conj(m21) for rational h_i
        return ((m11, (h2 / h1) * m21.conj()), (m21, -m11))

    basis = [make(one, zero)] + [
        make(zero, g) for g in (one, d.gen_i(), d.gen_j(), d.gen_k())
    ]

    def trd2(p, q):  # the trace of the reduced traces on the diagonal of pq
        return sum(
            Fraction((p[i][0] * q[0][i] + p[i][1] * q[1][i]).trd()) for i in range(2)
        )

    return tuple(tuple((trd2(u, v) + trd2(v, u)) / 2 for v in basis) for u in basis)


def test_b2_realization_matches_quaternion_products():
    rng = random.Random(1101)

    def nonzero():
        while True:
            q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            if q:
                return q

    draws = 0
    while draws < 30:
        d = QuaternionAlgebra(nonzero(), nonzero())
        h = QuatForm(d, "hermitian", (d.element(nonzero()), d.element(nonzero())))
        if all(x.denominator == 1 for x in (d.a, d.b, h.diagonal[0].t, h.diagonal[1].t)):
            continue  # keep every draw non-integral somewhere
        assert b2_realization(d, h).gram == _b2_gram_by_products(d, h), (d, h)
        draws += 1


def test_re_trd_pairing_matches_the_product():
    rng = random.Random(1102)

    def coeff(L):
        return L.element(
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
            Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
        )

    for _ in range(60):
        L = QuadraticField(rng.choice([-7, -3, -1, 2, 5]))
        d = QuaternionAlgebra(
            Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 2)),
            Fraction(rng.choice([-2, -1, 3, 7]), rng.randint(1, 2)),
        )
        x, y = (QuatElement(d, *(coeff(L) for _ in range(4))) for _ in range(2))
        assert re_trd_pairing(x, y) == (x * y).trd().x
        # a rational quaternion on one side, as a rational diagonal entry is
        r = d.element(*(rng.randint(-4, 4) for _ in range(4)))
        assert re_trd_pairing(r, y) == (r * y).trd().x
        assert re_trd_pairing(y, r) == (y * r).trd().x
    with pytest.raises(ValueError):
        re_trd_pairing(QuaternionAlgebra(2, 3).one(), QuaternionAlgebra(-1, -1).one())


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


def _tower_root_scale(r):
    """The rational s with y^2 = -c s a root of the tower quartic
    y^4 + B y^2 + C over F', or None.  Such a root exists iff the quartic is
    (y^2 + c s)(y^2 + conj(c) s), that is B = s Tr(c) and C = s^2 N(c)."""
    g = r.k_cert.defining_poly
    assert g[1] == g[3] == 0, g
    B, C, c = Fraction(g[2]), Fraction(g[0]), r.c
    if c.x != 0:
        s = B / c.trace()
    elif B == 0 and is_rational_square(C / c.norm()):
        s = rational_sqrt(C / c.norm())
    else:
        return None
    y2 = -c * s
    return s if (y2 * y2 + y2 * B + C).is_zero() else None


def test_skew_tower_quartic_has_the_root_sqrt_minus_c():
    """K = F'(sqrt(-c)): some root y of the certified quartic satisfies
    y^2 = -c m^2 in F' with m rational.  A tower built as F'(sqrt(c)) has
    y^2 = c m^2 instead, which fails here whenever c is not pure."""
    rng = random.Random(1103)
    algebras = [QuaternionAlgebra(2, 3), QuaternionAlgebra(-1, -1), QuaternionAlgebra(-1, -3),
                QuaternionAlgebra(3, 5), QuaternionAlgebra(-2, 5)]
    checked = impure = 0
    while checked < 25:
        d = rng.choice(algebras)
        a3, a4 = (d.element(0, *(rng.randint(-3, 3) for _ in range(3))) for _ in range(2))
        if a3.is_zero() or a4.is_zero():
            continue
        try:
            r = skew_restriction(QuatForm(d, "skew_hermitian", (a3, a4), 1), 0, 1)
        except (Degenerate, DegenerateTower):
            continue
        if r.k_is_biquadratic:
            continue
        s = _tower_root_scale(r)
        assert s is not None and s > 0 and is_rational_square(s), (d, a3, a4, r.k_cert)
        checked += 1
        impure += r.c.x != 0
    assert impure >= 10


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


def test_integral_quartic_scale_matches_the_scan(monkeypatch):
    # the least m with c2 m^2 and c0 m^4 integral, computed from the
    # denominators, against the unbounded scan over m it replaced
    def scan(c0, c2):
        m = 1
        while (c0 * m**4).denominator != 1 or (c2 * m**2).denominator != 1:
            m += 1
        return [int(c0 * m**4), 0, int(c2 * m**2), 0, 1]

    monkeypatch.setattr(numfield, "field_cert", list)
    rng = random.Random(29)

    def den():
        return math.prod(rng.choice((2, 3, 5, 7)) ** rng.randint(0, 5) for _ in range(2))

    for _ in range(300):
        c0 = Fraction(rng.randint(-99, 99) or 1, den())
        c2 = Fraction(rng.randint(-99, 99), den())
        raw = polys.poly([c0, 0, c2, 0, 1])
        assert _integral_quartic_cert(raw) == scan(c0, c2), (c0, c2)
