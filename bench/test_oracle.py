"""Tests of the benchmark's invariant oracle: hand-known forms and
brute-force vector search on small forms.  Run: python3 -m pytest bench"""

import itertools
import math
import random
from fractions import Fraction

import oracle
from oracle import REAL, hilbert, invariants, predict_so, witt_index


def _index(coeffs):
    return witt_index(invariants([oracle.square_class(Fraction(c)) for c in coeffs]))


def _diag(coeffs):
    return [[Fraction(coeffs[i]) if i == j else Fraction(0) for j in range(len(coeffs))] for i in range(len(coeffs))]


def test_hand_known_witt_indices():
    assert _index([1, -1, 1, -1]) == 2
    assert _index([1, 2, 3]) == 0
    assert _index([1, -1, -1, 3, 5]) == 1
    assert _index([1, 1, 1, -7]) == 0  # x^2 + y^2 + z^2 = 7 w^2 has no 2-adic zero
    assert _index([1, -1, 1, -1, 1, -1]) == 3
    assert _index([1, 1, -2]) == 1


def test_hilbert_table_and_product_formula():
    table = [
        (-1, -1, 2, -1), (-1, -1, REAL, -1), (-1, -1, 3, 1), (2, 3, 2, -1),
        (2, 3, 3, -1), (2, 3, 5, 1), (-1, 3, 3, -1), (-1, 7, 7, -1),
        (5, 5, 5, 1), (2, 2, 2, 1), (3, 3, 3, -1), (-2, -5, REAL, -1),
    ]
    for a, b, p, want in table:
        assert hilbert(a, b, p) == want, (a, b, p)
    for a in range(-15, 16):
        for b in range(-15, 16):
            if a == 0 or b == 0:
                continue
            places = {REAL, 2} | set(oracle.prime_factors(a)) | set(oracle.prime_factors(b))
            prod = 1
            for p in places:
                prod *= hilbert(a, b, p)
            assert prod == 1, (a, b)


def test_pivots_repair_zero_diagonal():
    # <x, y> hyperbolic plane plus <-3>: pivots 2, -1/2, -3 up to squares
    g = [[0, 1, 0], [1, 0, 0], [0, 0, -3]]
    classes = [oracle.square_class(p) for p in oracle.pivots(g)]
    assert sorted(classes) == [-3, -2, 2]
    assert predict_so(g).q_rank == 1


def _isotropic_in_box(coeffs, h):
    for v in itertools.product(range(-h, h + 1), repeat=len(coeffs)):
        if any(v) and sum(c * x * x for c, x in zip(coeffs, v)) == 0:
            return True
    return False


def test_isotropy_matches_brute_force_search():
    rng = random.Random(7)
    forms = set()
    while len(forms) < 120:
        n = rng.choice([2, 3, 3, 4])
        forms.add(tuple(rng.choice([-1, 1]) * rng.randint(1, 5) for _ in range(n)))
    for coeffs in sorted(forms):
        found = _isotropic_in_box(coeffs, 6 if len(coeffs) < 4 else 4)
        assert (_index(coeffs) >= 1) == found, coeffs


def _primitive_isotropic(coeffs, h):
    """Isotropic primitive vectors in the box |x_i| <= h, one of each +-pair."""
    out = []
    for v in itertools.product(range(-h, h + 1), repeat=len(coeffs)):
        first = next((x for x in v if x), 0)
        if first > 0 and math.gcd(*v) == 1 and sum(c * x * x for c, x in zip(coeffs, v)) == 0:
            out.append(v)
    return out


def test_witt_index_two_matches_brute_force_plane_search():
    """Witt index >= 2 iff a totally isotropic plane has a small basis."""
    rng = random.Random(11)
    forms = set()
    while len(forms) < 25:
        forms.add(tuple(rng.choice([-1, 1]) * rng.randint(1, 3) for _ in range(rng.choice([4, 5]))))
    for coeffs in sorted(forms):
        iso = _primitive_isotropic(coeffs, 2)
        plane = any(
            sum(c * a * b for c, a, b in zip(coeffs, u, v)) == 0
            for u, v in itertools.combinations(iso, 2)
        )
        w = _index(coeffs)
        assert (w >= 2) == plane, (coeffs, w)


def test_predictions_on_corpus_shapes():
    assert predict_so(_diag([1, -1, -1, 2])).verdict == "minimal"
    assert predict_so(_diag([1, -1, 1, -1])).verdict == "not_applicable"
    assert predict_so(_diag([1, 1, 1, 2])).verdict == "unsupported"
    assert predict_so(_diag([1, 2, 3, 5, 7])).verdict == "not_applicable"
    p = predict_so(_diag([1, -1, -1, 3, 5]))
    assert (p.q_rank, p.real_rank, p.verdict) == (1, 2, "not_minimal")
