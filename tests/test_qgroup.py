import itertools
import math
import random
from fractions import Fraction

import pytest

from almin import algebra as alg
from almin.algebra import (
    HermForm,
    QuatElement,
    QuatForm,
    QuatSecondKindForm,
    QuaternionAlgebra,
    second_kind_involution,
)
from almin.numfield import QuadraticField
from almin.quadform import QuadForm, is_isotropic, signature
from almin.qgroup import (
    ConvertibleTo,
    _skew_split_real_signature,
    InvalidSpec,
    Orthogonal,
    RankProfile,
    ResSL2,
    ResSU3,
    SpecialLinear,
    Symplectic,
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
    quat_hermitian_witt_index,
    rank_profile,
    real_rank,
    skew_pair_isotropy,
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
    cs, basis = diagonalize_hermitian(h)
    assert len(cs) == len(basis) == 3
    assert hermitian_signature(h) == (2, 1)
    tf = hermitian_trace_form(h)
    assert tf.dim == 6
    assert hermitian_witt_index(h) == 1
    # nondiagonal input: hyperbolic hermitian plane
    zero, one = L.element(0), L.element(1)
    hyp = HermForm(L, ((zero, one), (one, zero)))
    assert hermitian_witt_index(hyp) == 1
    assert hermitian_signature(hyp) == (1, 1)


def _herm_value(m, x, y):
    """The sesquilinear sum of conj(x_k) m[k][l] y_l."""
    total = m[0][0].fld.element(0)
    for k, xk in enumerate(x):
        for l, yl in enumerate(y):
            total = total + xk.conj() * m[k][l] * yl
    return total


def _sheared(rng, form):
    """P^H M P for a random upper unitriangular P over Z[sqrt(d)]."""
    L, n = form.field, form.dim
    p = [
        [
            L.element(1 if i == j else 0)
            if i >= j
            else L.element(rng.randint(-2, 2), rng.randint(-1, 1))
            for j in range(n)
        ]
        for i in range(n)
    ]
    cols = [tuple(p[i][j] for i in range(n)) for j in range(n)]
    return HermForm(
        L, tuple(tuple(_herm_value(form.matrix, x, y) for y in cols) for x in cols)
    )


def test_diagonalize_hermitian_returns_an_orthogonal_basis():
    rng = random.Random(14)
    forms = []
    for _ in range(40):
        L = QuadraticField(rng.choice([-1, -2, -3, -5, 2, 3, 5, 6]))
        n = rng.randint(2, 5)
        cs = [rng.choice([-1, 1]) * rng.randint(1, 6) for _ in range(n)]
        forms.append(HermForm.diagonal(L, cs))
        forms.append(_sheared(rng, forms[-1]))
    # zero diagonals force the repairs by 1 and by sqrt(d)
    for d in (-5, 3):
        L = QuadraticField(d)
        z, one, s = L.element(0), L.element(1), L.sqrt_gen()
        for off in (one, s):
            plane = HermForm(L, ((z, off), (off.conj(), z)))
            forms += [plane, _sheared(rng, plane)]
        block = HermForm(
            L, ((z, s, z), (-s, z, z), (z, z, L.element(-2)))
        )
        forms += [block, _sheared(rng, block)]
    sheared = 0
    for f in forms:
        m, n = f.matrix, f.dim
        sheared += any(
            not m[i][j].is_zero() for i in range(n) for j in range(n) if i != j
        )
        coeffs, basis = diagonalize_hermitian(f)
        assert len(coeffs) == len(basis) == n
        for k in range(n):
            for l in range(n):
                want = coeffs[k] if k == l else 0
                assert _herm_value(m, basis[k], basis[l]) == want, (f, k, l)
    assert sheared >= 40


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


def test_unitary1_ranks_an_isotropic_tail():
    d = QuaternionAlgebra(-1, -1)
    # <1, -1> is a hyperbolic plane over any algebra, written as a tail
    g = Unitary1(QuatForm(d, "hermitian", (d.element(1), d.element(-1))))
    assert (q_rank(g), real_rank(g)) == (1, 1)
    # over M_2(Q) the group is Sp_6, whatever the entries
    split = QuaternionAlgebra(1, 1)
    g2 = Unitary1(QuatForm(split, "hermitian", (split.element(5),), hyperbolic_count=1))
    assert (q_rank(g2), real_rank(g2)) == (3, 3)


def test_empty_quaternionic_forms_are_invalid_specs():
    d = QuaternionAlgebra(-1, -1)
    for kind in ("hermitian", "skew_hermitian"):
        with pytest.raises(InvalidSpec, match="empty"):
            Unitary1(QuatForm(d, kind, ()))
    for l_d in (2, -1):
        with pytest.raises(InvalidSpec, match="empty"):
            Unitary2Quat(QuatSecondKindForm(QuadraticField(l_d), d, d.one(), ()))


def test_quat_hermitian_tail_isotropy():
    d = QuaternionAlgebra(-1, -1)
    one, minus_one = d.element(1), d.element(-1)
    assert quat_hermitian_witt_index(QuatForm(d, "hermitian", (one, minus_one))) == 1
    assert quat_hermitian_witt_index(QuatForm(d, "hermitian", (one, one))) == 0
    # over (2, 3), split at infinity, <1, -1, 1, -1> is two planes, and a
    # tail of two entries is indefinite of dimension 8, so isotropic
    e = QuaternionAlgebra(2, 3)
    ones = (e.element(1), e.element(-1), e.element(1), e.element(-1))
    assert quat_hermitian_witt_index(QuatForm(e, "hermitian", ones, 1)) == 3
    assert quat_hermitian_witt_index(QuatForm(e, "hermitian", (e.element(5), e.element(7)))) == 1
    assert quat_hermitian_witt_index(QuatForm(e, "hermitian", (e.element(5),), 2)) == 2


def test_skew_tail_certification():
    d = QuaternionAlgebra(-1, -1)
    i, j, k = d.gen_i(), d.gen_j(), d.gen_k()
    assert certify_skew_tail_anisotropic(QuatForm(d, "skew_hermitian", (i,))) is True
    # <i, j> is isotropic: x = (1 - i + j - k)/2 gives conj(x) j x = -i, so
    # the pair is a hyperbolic plane
    isotropic = QuatForm(d, "skew_hermitian", (i, j), hyperbolic_count=1)
    assert certify_skew_tail_anisotropic(isotropic) is False
    assert q_rank(Unitary1(isotropic)) == 2
    # <i, j + k>: the norm ratio nrd(i)/nrd(j + k) = 1/2 is not a square
    g = Unitary1(QuatForm(d, "skew_hermitian", (i, j + k), hyperbolic_count=1))
    assert certify_skew_tail_anisotropic(g.form) is True
    assert q_rank(g) == 1


def test_skew_pair_hand_cases():
    d = QuaternionAlgebra(-1, -1)
    i, j, k = d.gen_i(), d.gen_j(), d.gen_k()
    x = (d.one() - i + j - k) * Fraction(1, 2)
    assert x.conj() * j * x == -i
    assert skew_pair_isotropy(i, j) is not None
    assert skew_pair_isotropy(i, j + k) is None
    # a square ratio is not enough: conj(j) i j = -i, so x = j u with u in
    # Q(i) solves conj(x) (m i) x = -i iff nrd(u) = 1/m, a sum of two squares
    y = j * (d.one() + i) * Fraction(1, 2)
    assert y.conj() * (i * 2) * y == -i
    assert skew_pair_isotropy(i, i * 2) is not None
    assert skew_pair_isotropy(i, i * 3) is None  # 1/3 is no sum of two squares


def test_rank2_skew_over_a_division_algebra_is_not_converted():
    # the norm ratio (-40)/(-13) is not a square, so the form is anisotropic
    # and the group is not Res SL2 (which has Q-rank 1) over Q(sqrt(130))
    d = QuaternionAlgebra(-5, 3)
    g = Unitary1(
        QuatForm(d, "skew_hermitian", (d.element(0, -2, 0, -2), d.element(0, 1, 1, 1)))
    )
    assert certify_skew_tail_anisotropic(g.form) is True
    assert q_rank(g) == 0 and real_rank(g) == 2
    with pytest.raises(Unsupported, match="nonsplit quaternion algebra"):
        is_absolutely_almost_simple(g)


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


# ---------------------------------------------------------------------------
# Rank-2 skew tails against a bounded search, in quaternion arithmetic of the
# test's own on integer 4-tuples (t, x, y, z) of (a, b)


def _qmul(u, v, a, b):
    t1, x1, y1, z1 = u
    t2, x2, y2, z2 = v
    return (
        t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
        t1 * x2 + x1 * t2 - b * y1 * z2 + b * z1 * y2,
        t1 * y2 + y1 * t2 + a * x1 * z2 - a * z1 * x2,
        t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2,
    )


def _qconj(u):
    return (u[0], -u[1], -u[2], -u[3])


def _qnrd(u, a, b):
    t, x, y, z = u
    return t * t - a * x * x - b * y * y + a * b * z * z


def _is_square(q):
    q = Fraction(q)
    return q >= 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def _primes(n):
    n, p, out = abs(n), 2, set()
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    return out | ({n} if n > 1 else set())


def _search_pair(a, b, e1, e2, bound=2):
    """Some x with conj(x) e2 x = -e1, or None: every integer X with
    coordinates in [-bound, bound] is tried as x = X/m, m rational, which
    needs conj(X) e2 X = -m^2 e1."""
    r = next(n for n in range(1, 4) if e1[n])
    for big_x in itertools.product(range(-bound, bound + 1), repeat=4):
        if not any(big_x):
            continue
        p = _qmul(_qmul(_qconj(big_x), e2, a, b), big_x, a, b)
        lam = Fraction(p[r], e1[r])
        if all(p[n] == lam * e1[n] for n in range(4)) and _is_square(-lam):
            return big_x
    return None


def _norm_test(a, b, e1, e2, s, c):
    """Is t = s c / nrd(y) a norm from Q(e1), for a kernel vector y of
    y -> e2 y - y w, w = -e1/(s c)?  Gaussian elimination for y, and the
    independent Hilbert-symbol oracle at every place that can obstruct."""
    w = tuple(Fraction(-v, s * c) for v in e1)
    units = [tuple(int(n == m) for n in range(4)) for m in range(4)]
    cols = []
    for u in units:
        lhs, rhs = _qmul(e2, u, a, b), _qmul(u, w, a, b)
        cols.append([lhs[n] - rhs[n] for n in range(4)])
    rows = [[Fraction(cols[m][n]) for m in range(4)] for n in range(4)]
    pivots, r = [], 0
    for col in range(4):
        piv = next((i for i in range(r, 4) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i in range(4):
            if i != r and rows[i][col]:
                rows[i] = [vi - rows[i][col] * vr for vi, vr in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    free = next(col for col in range(4) if col not in pivots)
    y = [Fraction(0)] * 4
    y[free] = Fraction(1)
    for i, col in enumerate(pivots):
        y[col] = -rows[i][free]
    assert all(
        lv == rv for lv, rv in zip(_qmul(e2, y, a, b), _qmul(y, w, a, b))
    ), "y solves e2 y = y w"
    delta = -Fraction(_qnrd(e1, a, b))
    t = s * c / _qnrd(y, a, b)
    places = {0, 2}
    for q in (delta, t):
        places |= _primes(q.numerator) | _primes(q.denominator)
    return all(oracle_solvable(delta, t, p) for p in places)


def _random_quat(rng, pure):
    while True:
        e = tuple(0 if pure and n == 0 else rng.randint(-2, 2) for n in range(4))
        if any(e):
            return e


def test_skew_pair_isotropy_against_search():
    rng = random.Random(20261018)
    nonzero = [n for n in range(-7, 8) if n]
    tally = {"found": 0, "built": 0, "square_anisotropic": 0, "ratio": 0}
    while tally["found"] < 60 or tally["square_anisotropic"] < 15:
        a, b = rng.choice(nonzero), rng.choice(nonzero)
        if all(oracle_solvable(a, b, p) for p in (0, 2, 3, 5, 7)):
            continue  # (a, b) splits; its places all divide 2ab or are real
        e2 = _random_quat(rng, pure=True)
        mode = rng.randrange(3)
        if mode == 0:
            e1 = _random_quat(rng, pure=True)
        else:
            # e1 = -lam conj(x) e2 x: isotropic when lam = 1, square ratio always
            x = _random_quat(rng, pure=False)
            lam = 1 if mode == 1 else rng.choice([-1, 2, 3, -2, 5])
            e1 = tuple(-lam * v for v in _qmul(_qmul(_qconj(x), e2, a, b), x, a, b))
        d = QuaternionAlgebra(a, b)
        decision = skew_pair_isotropy(d.element(*e1), d.element(*e2))
        form = QuatForm(d, "skew_hermitian", (d.element(*e1), d.element(*e2)))
        assert certify_skew_tail_anisotropic(form) is (decision is None)
        if mode == 1:
            tally["built"] += 1
            assert decision is not None, (a, b, e1, e2)
        if _search_pair(a, b, e1, e2) is not None:
            tally["found"] += 1
            assert decision is not None, (a, b, e1, e2)
        ratio = Fraction(_qnrd(e1, a, b), _qnrd(e2, a, b))
        if not _is_square(ratio):
            assert decision is None
            tally["ratio"] += 1
            continue
        c = Fraction(math.isqrt(ratio.numerator), math.isqrt(ratio.denominator))
        if decision is None:
            assert not any(_norm_test(a, b, e1, e2, s, c) for s in (1, -1)), (a, b, e1, e2)
            tally["square_anisotropic"] += 1
        else:
            assert _norm_test(a, b, e1, e2, decision[0], c), (a, b, e1, e2)
    assert tally["ratio"] > 20 and tally["built"] > 20, tally


# ---------------------------------------------------------------------------
# Real signatures from rational signs, against the explicit real models they
# replaced


def _skew_signature_by_trivialisation(a, b, entries, hyperbolic_count):
    """Signature of the Morita transfer of <p_1, ..., p_k> + H^h over (a, b)
    split at infinity, from an explicit trivialisation of D tensor R:
    i -> diag(s, -s), j -> [[0, 1], [b, 0]] with s = sqrt(a) (i and j swap
    when a < 0).  The entry xi + yj + zk becomes the symmetric block
    [[b(y - zs), -xs], [-xs, -(y + zs)]] of determinant Nrd(p); the sign of
    its corner is taken in floating point."""
    swap = a < 0
    if swap:
        a, b = b, a
    s = math.sqrt(a)
    pos = neg = 2 * hyperbolic_count
    for x, y, z in entries:
        norm = _qnrd((0, x, y, z), *((b, a) if swap else (a, b)))
        if swap:
            x, y, z = y, x, -z
        if norm < 0:
            pos, neg = pos + 1, neg + 1
        elif b * (y - z * s) > 0:
            pos += 2
        else:
            neg += 2
    return pos, neg


def test_skew_split_signature_against_trivialisation():
    rng = random.Random(7001)
    nonzero = [n for n in range(-10, 11) if n]
    checked = 0
    while checked < 1200:
        a, b = rng.choice(nonzero), rng.choice(nonzero)
        if a < 0 and b < 0:
            continue  # ramified at infinity
        d = QuaternionAlgebra(a, b)
        entries = []
        while len(entries) < rng.randint(1, 4):
            e = tuple(rng.randint(-3, 3) for _ in range(3))
            if _qnrd((0, *e), a, b) != 0:
                entries.append(e)
        hyp = rng.randint(0, 2)
        form = QuatForm(d, "skew_hermitian", tuple(d.element(0, *e) for e in entries), hyp)
        want = _skew_signature_by_trivialisation(a, b, entries, hyp)
        assert _skew_split_real_signature(form) in (want, want[::-1]), (a, b, entries, hyp)
        assert real_rank(Unitary1(form)) == min(want)
        checked += 1


def test_skew_split_signature_hand_cases():
    d = QuaternionAlgebra(1, 1)  # M_2(Q); Nrd(xi + yj + zk) = -x^2 - y^2 + z^2
    i, j, k = d.gen_i(), d.gen_j(), d.gen_k()
    assert _skew_split_real_signature(QuatForm(d, "skew_hermitian", (i, j))) == (2, 2)
    # k and -k lie on opposite sheets, k and 2k + i on the same one
    assert _skew_split_real_signature(QuatForm(d, "skew_hermitian", (k, -k))) == (2, 2)
    assert _skew_split_real_signature(QuatForm(d, "skew_hermitian", (k, k * 2 + i))) == (4, 0)
    with pytest.raises(alg.Degenerate, match="nonzero reduced norm"):
        QuatForm(d, "skew_hermitian", (i + k,))


def _second_kind_trace_form(f):
    """The full rational Gram of x -> Trd(f(x, x)) on the 8n-dimensional
    Q-space underneath D^n, with a 16 x 16 block per hyperbolic plane."""
    L, dp = f.l_field, f.inner_algebra
    basis = []
    for s in (L.element(1), L.sqrt_gen()):
        for g in range(4):
            coeffs = [L.element(0)] * 4
            coeffs[g] = s
            basis.append(QuatElement(dp, *coeffs))

    def tr_pair(z1, z2):
        t = z1.trd() + z2.trd()
        assert t.y == 0, "symmetrized trace escaped Q"
        return t.x / 2

    taus = [second_kind_involution(f, x) for x in basis]

    def entry_block(entry):
        blk = [[Fraction(0)] * 8 for _ in range(8)]
        for i in range(8):
            left = taus[i] * entry
            for j in range(i, 8):
                blk[i][j] = blk[j][i] = tr_pair(left * basis[j], taus[j] * entry * basis[i])
        return blk

    blocks = [entry_block(e) for e in f.diagonal]
    for _ in range(f.hyperbolic_count):
        blk = [[Fraction(0)] * 16 for _ in range(16)]
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                blk[i][8 + j] = blk[8 + j][i] = tr_pair(taus[i] * v, taus[j] * u)
        blocks.append(blk)
    n = sum(len(b) for b in blocks)
    gram = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            gram[off + i][off : off + len(b)] = row
        off += len(b)
    return QuadForm.from_rows(gram)


def _positive_trace_signature(f):
    """A quarter of the signature of the 8n trace form of f, read after f is
    carried to a positive involution.  The trace form of a hermitian form
    carries its signature times that of the involution, so it is hyperbolic
    under a non-positive tau_u; tau_w is positive for the first w in
    (1, sqrt(d) i, sqrt(d) j, sqrt(d) ij) whose trace form of <1> is
    definite, and e -> w u^-1 e carries f to a tau_w-hermitian form with the
    same group."""
    L, d = f.l_field, f.inner_algebra
    zero, one = L.element(0), L.element(1)
    candidates = [QuatElement(d, one, zero, zero, zero)]
    for slot in range(1, 4):
        coeffs = [zero] * 4
        coeffs[slot] = L.sqrt_gen()
        candidates.append(QuatElement(d, *coeffs))
    for w in candidates:
        p, q = signature(_second_kind_trace_form(QuatSecondKindForm(L, d, w, (candidates[0],))))
        if p == 0 or q == 0:
            break
    else:
        raise AssertionError("no positive involution among the candidates")
    m = w * f.unit_inverse
    twisted = QuatSecondKindForm(L, d, w, tuple(m * e for e in f.diagonal), f.hyperbolic_count)
    p, q = signature(_second_kind_trace_form(twisted))
    assert p % 4 == 0 and q % 4 == 0
    return p // 4, q // 4


def test_second_kind_real_rank_against_trace_form():
    rng = random.Random(7002)
    # (tail entries, hyperbolic planes), two forms of each shape and one of three entries
    shapes = [(1, 0), (2, 0), (0, 1), (1, 1), (2, 1)] * 2 + [(3, 0)]
    signatures = set()
    nonpositive = 0
    while shapes:
        L = QuadraticField(rng.choice([-1, -2, -3, -5, -7]))
        d = QuaternionAlgebra(rng.choice([-3, -1, 2, 5]), rng.choice([-2, -1, 3]))
        # the unit is fixed by conj_D' tensor conj_L: t + sqrt(d) * pure
        unit = QuatElement(
            d, L.element(rng.randint(-2, 2)), *(L.element(0, rng.randint(-2, 2)) for _ in range(3))
        ) if rng.randrange(2) else QuatElement(d, L.element(1), *[L.element(0)] * 3)
        if unit.nrd().is_zero():
            continue
        base = QuatSecondKindForm(L, d, unit, ())
        n_entries, hyp = shapes[-1]
        entries = []
        while len(entries) < n_entries:
            # a rational entry, or a symmetrized z + tau(z)
            z = QuatElement(d, *(L.element(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)))
            e = d.element(rng.choice([-3, -1, 1, 2])) if rng.randrange(2) else z + second_kind_involution(base, z)
            if e.nrd() != 0:
                entries.append(e)
        f = QuatSecondKindForm(L, d, unit, tuple(entries), hyp)
        p, q = _positive_trace_signature(f)
        assert real_rank(Unitary2Quat(f)) == min(p, q), (L.d, d, unit, entries, hyp)
        signatures.add((p, q))
        if entries:
            # tau_u is not positive when the trace form of <1> is hyperbolic
            p1, q1 = signature(_second_kind_trace_form(QuatSecondKindForm(L, d, unit, (d.one(),))))
            nonpositive += p1 == q1
        shapes.pop()
    assert any(p != q for p, q in signatures), signatures  # some definite entries
    assert nonpositive, "no draw has a non-positive involution"


def test_second_kind_real_rank_hand_cases():
    # (1, 1) = M_2(Q) is split at infinity, so tau_1 is not positive; the
    # entry sqrt(-1) ij has Nrd -1 and is definite, and two of them have
    # real rank 0 (the 8-dim trace form is hyperbolic and would give 2)
    L = QuadraticField(-1)
    d = QuaternionAlgebra(1, 1)
    zero = L.element(0)
    e = QuatElement(d, zero, zero, zero, L.sqrt_gen())
    assert real_rank(Unitary2Quat(QuatSecondKindForm(L, d, d.one(), (e, e)))) == 0
    # 1 +- 2 sqrt(-1) ij have Nrd -3, so both are definite, and of opposite
    # signs (those of Trd(sqrt(-1) ij e) = +-4), though both have Trd(e) = 2
    pair = [QuatElement(d, L.element(1), zero, zero, L.element(0, c)) for c in (2, -2)]
    assert real_rank(Unitary2Quat(QuatSecondKindForm(L, d, d.one(), tuple(pair)))) == 2
    # (2, 3) over Q(sqrt(-2)): Nrd(-1 - sqrt(-2)(i + j + ij)) = 1 + 2(2 + 3 - 6) < 0,
    # so the entry adds (1, 1) and one plane (2, 2)
    L = QuadraticField(-2)
    d = QuaternionAlgebra(2, 3)
    s = L.sqrt_gen()
    e = QuatElement(d, L.element(-1), -s, -s, -s)
    assert real_rank(Unitary2Quat(QuatSecondKindForm(L, d, d.one(), (e,), 1))) == 2
    # over H the involution tau_1 is positive: the sign of Trd(e) decides
    h = QuaternionAlgebra(-1, -1)
    L = QuadraticField(-5)
    signs = [h.element(1), h.element(2), h.element(-3)]
    assert real_rank(Unitary2Quat(QuatSecondKindForm(L, h, h.one(), tuple(signs)))) == 2
    # an entry of reduced norm 0 makes the form singular
    L = QuadraticField(-1)
    d = QuaternionAlgebra(1, 1)
    singular = QuatElement(d, L.element(1), zero, zero, L.sqrt_gen())
    with pytest.raises(alg.Degenerate, match="reduced norm"):
        QuatSecondKindForm(L, d, d.one(), (singular,))


def test_quaternionic_grams_form_few_quaternion_products(monkeypatch, corpus_docs):
    """A deterministic guard on the cost of the quaternionic transfer Grams:
    b2_realization forms no quaternion product, and the second-kind real
    rank forms one, m = w u^-1, however many entries the form has."""
    from almin import serde
    from almin.algebra import b2_realization
    from almin.qgroup import _second_kind_real_rank

    L = QuadraticField(-3)
    d = QuaternionAlgebra(2, 3)
    unit = QuatElement(d, L.element(1), L.element(0, 1), L.element(0), L.element(0))
    forms = [
        serde.group_from_doc(corpus_docs["su2quat_morita"]).form,
        QuatSecondKindForm(L, d, unit, (d.element(1), d.element(-2)), 1),
    ]
    h = QuatForm(d, "hermitian", (d.element(Fraction(1, 2)), d.element(-3)))
    calls = 0
    product = QuatElement.__mul__

    def counting(self, o):
        nonlocal calls
        calls += 1
        return product(self, o)

    monkeypatch.setattr(QuatElement, "__mul__", counting)
    b2_realization(d, h)
    assert calls == 0
    for f in forms:
        assert not f.l_field.is_real
        calls = 0
        _second_kind_real_rank(f)
        assert calls <= 1, (f, calls)


def test_conversions_keep_both_ranks(corpus_docs):
    """A conversion to Res SL2 keeps the real rank, and the Q-rank wherever
    the source's Q-rank is decided."""
    from almin import serde
    from almin.qgroup import NotAlmostSimple

    def converted(g):
        try:
            conv = is_absolutely_almost_simple(g)
        except (NotAlmostSimple, Unsupported):
            return None
        return conv.spec if isinstance(conv, ConvertibleTo) and conv.spec is not g else None

    sources = [serde.group_from_doc(doc) for name, doc in corpus_docs.items() if name != "malformed"]
    sources = [g for g in sources if converted(g)]
    assert sources, "the corpus converts so4_res_sl2"
    rng = random.Random(7003)
    nonzero = [n for n in range(-12, 13) if n]
    # isotropic quaternary forms with non-square discriminant
    forms = 0
    while forms < 200:
        f = QuadForm.diagonal([rng.choice(nonzero) for _ in range(4)])
        if _is_square(f.determinant()) or not is_isotropic(f, "global"):
            continue
        sources.append(Orthogonal(f))
        forms += 1
    # rank-2 skew forms over split algebras whose real ranks agree with Res SL2
    skew = 0
    while skew < 40:
        d = QuaternionAlgebra(rng.choice(nonzero), rng.choice(nonzero))
        if alg.is_division(d):
            continue
        entries = [_random_quat(rng, pure=True) for _ in range(2)]
        if any(_qnrd(e, d.a, d.b) == 0 for e in entries):
            continue
        g = Unitary1(QuatForm(d, "skew_hermitian", tuple(d.element(*e) for e in entries)))
        if converted(g):
            sources.append(g)
            skew += 1
    decided = 0
    for g in sources:
        target = converted(g)
        assert isinstance(target, ResSL2)
        assert real_rank(g) == real_rank(target), g
        try:
            q = q_rank(g)
        except Unsupported:
            assert isinstance(g, Unitary1)  # a skew tail over a split algebra
            continue
        assert q == q_rank(target), g
        decided += 1
    assert decided >= 201
