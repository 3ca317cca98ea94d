import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almin.arith import REAL, FinitePrime, factorize, relevant_places, squarefree_part
from almin.quadform import (
    Degenerate,
    REPRESENT_HEIGHT_BOUND,
    QuadForm,
    SearchExhausted,
    _ternary,
    diagonalize,
    find_isotropic_vector,
    is_isotropic,
    represent_constrained,
    signature,
    witt_decompose,
    witt_index,
)
from oracles import oracle_solvable

COEFF = st.integers(min_value=-10, max_value=10).filter(lambda n: n != 0)


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


def test_global_isotropy_examples():
    assert is_isotropic(QuadForm.diagonal([1, -1]), "global")
    assert not is_isotropic(QuadForm.diagonal([1, 1]), "global")
    assert not is_isotropic(QuadForm.diagonal([1, 2, 3, 5, 7]), "global")
    assert is_isotropic(QuadForm.diagonal([1, -1, -1, 3, 5]), "global")
    # 6 is a sum of three rational squares, 7 is not (7 = 8*0 + 7)
    assert is_isotropic(QuadForm.diagonal([1, 1, 1, -6]), "global")
    assert not is_isotropic(QuadForm.diagonal([1, 1, 1, -7]), "global")


def test_global_isotropy_matches_local_criteria_random():
    # the global test reads the invariants once; the local one diagonalizes
    # per place and is checked against the residue oracle above
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
    rep = represent_constrained([Fraction(3), Fraction(5)], want_positive=True)
    assert rep.value > 0
    assert rep.value == 3 * rep.vector[0] ** 2 + 5 * rep.vector[1] ** 2
    rep2 = represent_constrained(
        [Fraction(1), Fraction(1)], want_positive=True, forbid_square=True
    )
    assert rep2.square_class != 1
    with pytest.raises(SearchExhausted):
        represent_constrained([Fraction(-1), Fraction(-2)], want_positive=True)
    # x^2 represents only squares: every shell up to the bound is searched
    with pytest.raises(SearchExhausted, match=f"height {REPRESENT_HEIGHT_BOUND};"):
        represent_constrained([Fraction(1)], want_positive=True, forbid_square=True)
    rep3 = represent_constrained(
        [Fraction(2), Fraction(3)],
        want_positive=True,
        forbid_classes=frozenset({2, 3, 5}),
    )
    assert rep3.square_class not in {1, 2, 3, 5}
