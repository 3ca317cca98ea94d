import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almin.arith import REAL, FinitePrime, relevant_places
from almin.quadform import (
    Degenerate,
    REPRESENT_HEIGHT_BOUND,
    QuadForm,
    SearchExhausted,
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
