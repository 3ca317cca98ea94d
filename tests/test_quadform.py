import json
import math
import pathlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almin.arith import (
    REAL,
    FinitePrime,
    factorize,
    is_rational_square,
    relevant_places,
    squarefree_part,
)
from almin.quadform import (
    Degenerate,
    DiagForm,
    QuadForm,
    SearchExhausted,
    WittDecomposition,
    _ternary,
    diagonalize,
    find_isotropic_vector,
    is_isotropic,
    represent_constrained,
    restrict,
    signature,
    witt_decompose,
    witt_index,
)
from oracles import oracle_isotropic, oracle_solvable

COEFF = st.integers(min_value=-10, max_value=10).filter(lambda n: n != 0)
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def test_diagonalize_congruence():
    f = QuadForm.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, -3]])
    d = diagonalize(f)
    # the recorded basis (columns) must reproduce the diagonal coefficients
    n = f.dim
    basis = [tuple(d.basis_change[i][j] for i in range(n)) for j in range(n)]
    for j, c in enumerate(d.coeffs):
        assert f.value(basis[j]) == c
    for i in range(n):
        for j in range(i + 1, n):
            assert f.bilinear(basis[i], basis[j]) == 0


def test_signature():
    assert signature(QuadForm.diagonal([1, -1, -1, 3, 5])) == (3, 2)
    assert signature(QuadForm.diagonal([-1, -2])) == (0, 2)


@settings(max_examples=150, deadline=None)
@given(st.lists(COEFF, min_size=3, max_size=3))
def test_ternary_isotropy_matches_independent_oracle(coeffs):
    # <a, b, c> isotropic iff z^2 = (-a/c) x^2 + (-b/c) y^2 solvable, at
    # every place; the oracle decides solvability by exhaustive residues
    a, b, c = coeffs
    f = QuadForm.diagonal(coeffs)
    for p in [0, 2, 3, 5, 7, 11]:
        place = REAL if p == 0 else FinitePrime(p)
        got = is_isotropic(f, place)
        want = oracle_solvable(Fraction(-a, c), Fraction(-b, c), p)
        assert got == want, (coeffs, p)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-60, max_value=60).filter(lambda n: n != 0), min_size=2, max_size=5))
def test_local_isotropy_matches_independent_oracle(coeffs):
    # binary to quinary diagonals: the oracle splits off <c_1, c_2> over
    # every square class of Q_p and decides each ternary by residues
    f = QuadForm.diagonal(coeffs)
    for p in [2, 3, 5, 7, 11]:
        assert is_isotropic(f, FinitePrime(p)) == oracle_isotropic(coeffs, p), (coeffs, p)


def test_global_isotropy_examples():
    assert is_isotropic(QuadForm.diagonal([1, -1]), "global")
    assert not is_isotropic(QuadForm.diagonal([1, 1]), "global")
    assert not is_isotropic(QuadForm.diagonal([1, 2, 3, 5, 7]), "global")
    assert is_isotropic(QuadForm.diagonal([1, -1, -1, 3, 5]), "global")
    # 6 is a sum of three rational squares, 7 is not (7 = 8*0 + 7)
    assert is_isotropic(QuadForm.diagonal([1, 1, 1, -6]), "global")
    assert not is_isotropic(QuadForm.diagonal([1, 1, 1, -7]), "global")


def test_global_isotropy_matches_local_criteria_random():
    # the global test reads the invariants once, at the primes of the
    # coefficients only and with its own rule for n = 2; the local one reads
    # them per place and is checked against the residue oracles above
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(1, 6)
        coeffs = [rng.choice([c for c in range(-30, 31) if c != 0]) for _ in range(n)]
        f = QuadForm.diagonal(coeffs)
        local = all(is_isotropic(f, v) for v in relevant_places(coeffs))
        assert is_isotropic(f, "global") == local, coeffs


def test_find_isotropic_vector_is_a_zero():
    f = QuadForm.diagonal([1, -1, -1, 3, 5])
    v = find_isotropic_vector(f)
    assert v is not None and any(x != 0 for x in v)
    assert f.value(v) == 0


def _assert_primitive_zero(f, v):
    assert f.value(v) == 0 and any(x != 0 for x in v)
    assert all(x.denominator == 1 for x in v)
    assert math.gcd(*(int(x) for x in v)) == 1


BIG_PRIMES = [10007, 65537, 999983, 1000003, 1000000007, 2**31 - 1]


def test_find_isotropic_vector_matches_is_isotropic_random():
    # diagonal forms of dimension 2-10, entries up to 10^4 and about one in
    # seven a large prime, and sheared Gram forms of dimension 2-4: a
    # primitive integer zero exactly when the invariants say isotropic
    rng = random.Random(20261018)
    found = 0
    for k in range(240):
        sheared = k % 5 == 4
        n = rng.randint(2, 4 if sheared else 10)
        coeffs = []
        for _ in range(n):
            sign = rng.choice([-1, 1])
            big = rng.random() < 0.15 and not sheared
            coeffs.append(sign * (rng.choice(BIG_PRIMES) if big else rng.randint(1, 10**4)))
        f = QuadForm.diagonal(coeffs)
        if sheared:
            t = _random_unimodular(n, rng)
            f = QuadForm.from_rows(
                [
                    [sum(t[i][m] * coeffs[m] * t[j][m] for m in range(n)) for j in range(n)]
                    for i in range(n)
                ]
            )
        v = find_isotropic_vector(f)
        if is_isotropic(f, "global"):
            _assert_primitive_zero(f, v)
            found += 1
        else:
            assert v is None, coeffs
    assert found > 120


def test_find_isotropic_vector_hand_cases():
    # a pair c, -c is taken as it stands (the first two coordinates here)
    assert find_isotropic_vector(QuadForm.diagonal([1, -1, 3, 7])) == (1, 1, 0, 0)
    # no isotropic subform on four of the coordinates, so the splitting
    # value t is needed
    f = QuadForm.diagonal([1, 1, 1, 1, -7])
    for i in range(5):
        rest = [c for j, c in enumerate([1, 1, 1, 1, -7]) if j != i]
        assert not is_isotropic(QuadForm.diagonal(rest), "global")
    _assert_primitive_zero(f, find_isotropic_vector(f))
    # every splitting value of <1, 1> + <1, -3> is even, though 2 divides
    # no coefficient
    f = QuadForm.diagonal([1, 1, 1, -3])
    _assert_primitive_zero(f, find_isotropic_vector(f))
    # a ternary with a ten-digit prime: Legendre descent, no search
    t0 = time.perf_counter()
    f = QuadForm.diagonal([1, 1, -1000000009])
    _assert_primitive_zero(f, find_isotropic_vector(f))
    assert time.perf_counter() - t0 < 1
    assert find_isotropic_vector(QuadForm.diagonal([1, 1, -1000000007])) is None


def test_find_isotropic_vector_matches_golden():
    # 120 seeded diagonals of dimension 4-7 pin the constructed vectors, so
    # a change in how a splitting value or a descent is chosen shows here
    rng = random.Random(11)
    got = []
    for _ in range(120):
        n = rng.randint(4, 7)
        cs = [rng.choice((-1, 1)) * rng.randint(1, 3000) for _ in range(n)]
        v = find_isotropic_vector(QuadForm.diagonal(cs))
        got.append({"coeffs": cs, "vector": None if v is None else [str(x) for x in v]})
    golden = json.loads((GOLDEN / "isotropic_vectors.json").read_text(encoding="utf-8"))
    assert got == golden


def test_slow_splitting_values_are_found_fast():
    # the four-dimensional form splits at t = -112,497 and the quaternary
    # half of the six-dimensional one at t = 42,793, both with f = 1, so k
    # runs that far; each candidate is looked up against local classes
    # computed once per split
    cases = [
        (
            [65, 5403402997, -113977878001895, 42235001863347],
            (32191330808708599222, -2275644905308529, 28928677039110, 1024368086727),
        ),
        (
            [-859330872, -667482186, -143854036, -649779681, 250732367, 794515346],
            (0, 0, 109053497307502, -84092112120527, -107808887991439, -65334954003971),
        ),
    ]
    for cs, want in cases:
        t0 = time.perf_counter()
        v = find_isotropic_vector(QuadForm.diagonal(cs))
        assert time.perf_counter() - t0 < 5, cs
        assert v == want, cs


def test_split_value_budget(monkeypatch):
    import almin.quadform as quadform

    # <1, 1> + <1, 1, -7> with <1, 1, -7> anisotropic: the first splitting
    # value is t = 5, the fifth k tried
    f = QuadForm.diagonal([1, 1, 1, 1, -7])
    monkeypatch.setattr(quadform, "SPLIT_VALUE_BUDGET", 4)
    with pytest.raises(SearchExhausted, match="SPLIT_VALUE_BUDGET = 4"):
        find_isotropic_vector(f)
    monkeypatch.setattr(quadform, "SPLIT_VALUE_BUDGET", 5)
    _assert_primitive_zero(f, find_isotropic_vector(f))


def test_ternary_solution_within_holzer_bound():
    # Holzer: |x| <= sqrt|bc|, |y| <= sqrt|ca|, |z| <= sqrt|ab| for pairwise
    # coprime squarefree a, b, c
    rng = random.Random(3)
    checked = 0
    while checked < 150:
        a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 3000) for _ in range(3))
        if any(squarefree_part(x) != x for x in (a, b, c)):
            continue
        if math.gcd(a, b) != 1 or math.gcd(b, c) != 1 or math.gcd(a, c) != 1:
            continue
        if not is_isotropic(QuadForm.diagonal([a, b, c]), "global"):
            continue
        x, y, z = _ternary(a, b, c, set(factorize(a * b * c)))
        assert a * x * x + b * y * y + c * z * z == 0 and (x, y, z) != (0, 0, 0)
        assert x * x <= abs(b * c) and y * y <= abs(a * c) and z * z <= abs(a * b), (a, b, c)
        checked += 1


def test_witt_decompose_structure():
    f = QuadForm.diagonal([1, -1, -1, 3, 5])
    w = witt_decompose(f)
    assert len(w.hyperbolic_pairs) == 1
    assert len(w.anisotropic_coeffs) == 3
    for u, v in w.hyperbolic_pairs:
        assert f.value(u) == 0 and f.value(v) == 0
        assert f.bilinear(u, v) != 0
    tail = QuadForm.diagonal(w.anisotropic_coeffs)
    assert not is_isotropic(tail, "global")


def test_witt_index_examples():
    assert witt_index(QuadForm.diagonal([1, -1, 1, -1])) == 2
    assert witt_index(QuadForm.diagonal([1, 2, 3])) == 0
    assert witt_index(QuadForm.diagonal([1, -1, -1, 2])) == 1


def _random_unimodular(n, rng):
    # product of elementary shears: determinant 1, integer entries
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def test_witt_index_basis_invariant_random():
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.randint(2, 5)
        coeffs = [rng.choice([c for c in range(-6, 7) if c != 0]) for _ in range(n)]
        f = QuadForm.diagonal(coeffs)
        t = _random_unimodular(n, rng)
        g_rows = [
            [
                sum(
                    t[i][k] * f.gram[k][l] * t[j][l]
                    for k in range(n)
                    for l in range(n)
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        g = QuadForm.from_rows(g_rows)
        assert witt_index(f) == witt_index(g), (coeffs, t)


def test_degenerate_rejected():
    with pytest.raises(Degenerate):
        witt_decompose(QuadForm.diagonal([1, 0, -1]))


def test_represent_constrained():
    f = Fraction
    # 1. the least positive nonsquare entry, the last one on ties
    rep = represent_constrained([f(5), f(-2), f(3), f(4), f(3)])
    assert (rep.value, rep.vector) == (3, (0, 0, 0, 0, 1))
    assert represent_constrained([f(1, 2), f(2)]).vector == (1, 0)
    # 2. two positive squares give 2 at (1/s, 1/r)
    rep = represent_constrained([f(9), f(-7), f(1, 4)])
    assert (rep.value, rep.vector) == (2, (f(1, 3), 0, 2))
    # 3. one positive square s^2 and the negative -p/q of least pq give
    # k^2 - pq at x_i = k/s, x_j = q with k = pq + 1
    rep = represent_constrained([f(-7), f(4), f(-2, 3)])
    assert (rep.value, rep.vector) == (43, (0, f(7, 2), 3))
    with pytest.raises(ValueError):
        represent_constrained([f(-1), f(-2)])
    with pytest.raises(ValueError):
        represent_constrained([f(4)])


def test_represent_constrained_random():
    rng = random.Random(17)
    squares = [f * f for f in (Fraction(1), Fraction(2), Fraction(3, 5))]
    for _ in range(500):
        n = rng.randint(1, 6)
        cs = [
            rng.choice(squares) * rng.choice((1, 1, -1))
            if rng.random() < 0.5
            else Fraction(rng.randint(-60, 60) or 1, rng.randint(1, 9))
            for _ in range(n)
        ]
        try:
            rep = represent_constrained(cs)
        except ValueError:
            pos = [c for c in cs if c > 0]
            assert not pos or (
                len(pos) == 1 and is_rational_square(pos[0])
                and all(c >= 0 for c in cs)
            ), cs
            continue
        assert rep.value > 0 and not is_rational_square(rep.value), cs
        assert rep.value == sum(c * x * x for c, x in zip(cs, rep.vector)), cs


# The Fraction double sums that QuadForm.bilinear, restrict and
# DiagForm.check evaluated before forms were evaluated over the integers;
# kept as the reference for the integral kernel.


def _ref_bilinear(f, u, v):
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    return sum(f.gram[i][j] * u[i] * v[j] for i in range(f.dim) for j in range(f.dim))


def _ref_restrict(f, vectors):
    return [[_ref_bilinear(f, u, v) for v in vectors] for u in vectors]


def _ref_diag_check(d):
    n = len(d.coeffs)
    b, g = d.basis_change, d.source.gram
    for i in range(n):
        for j in range(n):
            want = d.coeffs[i] if i == j else Fraction(0)
            got = sum(b[k][i] * g[k][l] * b[l][j] for k in range(n) for l in range(n))
            if got != want:
                return False
    return True


def _random_gram(n, rng):
    # symmetric, about a third of the entries zero, denominators up to 12
    g = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            if rng.random() > 0.35:
                g[i][j] = g[j][i] = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 12]))
    return QuadForm.from_rows(g)


def _random_vector(n, rng):
    # coordinates given as Fraction, int and str, about a third of them zero
    out = []
    for _ in range(n):
        x = Fraction(rng.randint(-7, 7), rng.choice([1, 2, 5, 6])) if rng.random() > 0.3 else 0
        out.append(rng.choice([x, str(x)]) if x.denominator > 1 else rng.choice([x, int(x), str(x)]))
    return tuple(out)


def test_integral_evaluation_matches_fraction_double_sums():
    rng = random.Random(20261019)
    checks = 0
    for k in range(320):
        n = k % 8
        f = _random_gram(n, rng)
        vecs = [_random_vector(n, rng) for _ in range(rng.randint(0, n + 1))]
        for u in vecs:
            assert f.value(u) == _ref_bilinear(f, u, u), (f, u)
            for v in vecs:
                got = f.bilinear(u, v)
                assert isinstance(got, Fraction) and got == _ref_bilinear(f, u, v), (f, u, v)
        g = restrict(f, vecs).gram
        assert [list(row) for row in g] == _ref_restrict(f, vecs), (f, vecs)
        assert all(isinstance(x, Fraction) for row in g for x in row)
        try:
            d = diagonalize(f)
        except Degenerate:
            continue
        assert d.check() and _ref_diag_check(d)
        if n:
            # a scaled column or a perturbed coefficient fails both checks
            b = [list(row) for row in d.basis_change]
            j = rng.randrange(n)
            for row in b:
                row[j] *= 2
            bad = DiagForm(d.coeffs, tuple(map(tuple, b)), f)
            assert not bad.check() and not _ref_diag_check(bad)
            cs = list(d.coeffs)
            cs[j] += 1
            bad = DiagForm(tuple(cs), d.basis_change, f)
            assert not bad.check() and not _ref_diag_check(bad)
            checks += 1
    assert checks > 100


def test_altered_witt_basis_fails_the_check():
    rng = random.Random(7)
    altered = 0
    for _ in range(40):
        n = rng.randint(3, 6)
        coeffs = [rng.choice([c for c in range(-9, 10) if c]) for _ in range(n)]
        t = _random_unimodular(n, rng)
        f = QuadForm.from_rows(
            [[sum(t[i][m] * coeffs[m] * t[j][m] for m in range(n)) for j in range(n)] for i in range(n)]
        )
        w = witt_decompose(f)
        assert w.check()
        if not w.hyperbolic_pairs:
            continue
        (u, v), *rest = w.hyperbolic_pairs
        # B(2u, v) = 2
        doubled = tuple(2 * x for x in u)
        bad = WittDecomposition(f, ((doubled, v), *rest), w.anisotropic_basis, w.anisotropic_coeffs)
        assert not bad.check()
        if w.anisotropic_basis:
            # B(v, w + u) = 1: the tail is no longer orthogonal to the plane
            w0, *tail = w.anisotropic_basis
            moved = tuple(a + b for a, b in zip(w0, u))
            bad = WittDecomposition(f, w.hyperbolic_pairs, (moved, *tail), w.anisotropic_coeffs)
            assert not bad.check()
            # a tail coefficient moved to another square class
            cs = (-w.anisotropic_coeffs[0],) + w.anisotropic_coeffs[1:]
            bad = WittDecomposition(f, w.hyperbolic_pairs, w.anisotropic_basis, cs)
            assert not bad.check()
            # the same square class, but not the recorded diagonalization
            cs = (4 * w.anisotropic_coeffs[0],) + w.anisotropic_coeffs[1:]
            bad = WittDecomposition(f, w.hyperbolic_pairs, w.anisotropic_basis, cs)
            assert not bad.check()
        altered += 1
    assert altered > 15


def test_bilinear_constructs_one_fraction_and_caches_the_integral_gram():
    # the Fraction double sum made 33 Fractions for one bilinear of dimension 3
    f = QuadForm.from_rows([[1, Fraction(1, 2), 0], [Fraction(1, 2), -3, 2], [0, 2, Fraction(5, 3)]])
    u = (Fraction(1, 2), Fraction(-3), Fraction(2, 7))
    v = (Fraction(4), Fraction(0), Fraction(-1, 3))
    new, integral = Fraction.__dict__["__new__"], QuadForm.__dict__["integral"]
    made, computed = [], []
    func = integral.func

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new.__func__(cls, *args, **kwargs)

    def counting_integral(form):
        computed.append(form)
        return func(form)

    Fraction.__new__ = staticmethod(counting_new)
    integral.func = counting_integral
    try:
        first = f.bilinear(u, v)
        assert len(made) <= 1, made
        made.clear()
        second = f.value(u)
        assert len(made) <= 1, made
        made.clear()
        g = restrict(f, [u, v, u])
        assert len(made) <= 6, made
    finally:
        Fraction.__new__ = new
        integral.func = func
    assert len(computed) == 1
    assert first == _ref_bilinear(f, u, v) and second == _ref_bilinear(f, u, u)
    assert [list(row) for row in g.gram] == _ref_restrict(f, [u, v, u])
