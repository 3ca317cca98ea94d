import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almin import arith
from almin.arith import (
    REAL,
    FactorizationExceeded,
    FinitePrime,
    NotPrime,
    ZeroInput,
    factorize,
    finite_prime,
    hilbert_symbol,
    is_prime,
    is_rational_square,
    relevant_places,
    squarefree_part,
)
from almin.quadform import _invariants
from oracles import PRIMES_LE_50, oracle_solvable

NONZERO = st.integers(min_value=-200, max_value=200).filter(lambda n: n != 0)


def test_factorize_known():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(-97) == {97: 1}
    assert factorize(1) == {}
    with pytest.raises(ZeroInput):
        factorize(0)
    # trial division stops once its divisor passes sqrt of the cofactor
    rng = random.Random(5)
    for n in [999983, 999983**2, 2 * 1000003] + [rng.randint(2, 10**13) for _ in range(200)]:
        f = factorize(n)
        assert math.prod(p**e for p, e in f.items()) == n and all(is_prime(p) for p in f), n


def test_pollard_rho_budget(monkeypatch):
    import almin.arith as arith

    n = 1000003 * 1000033  # both factors beyond a trial-division bound of 100
    monkeypatch.setattr(arith, "TRIAL_DIVISION_BOUND", 100)
    assert factorize(n) == {1000003: 1, 1000033: 1}
    monkeypatch.setattr(arith, "RHO_ITERATION_BUDGET", 10)
    with pytest.raises(FactorizationExceeded, match="RHO_ITERATION_BUDGET"):
        factorize(n)


def test_is_prime_small():
    primes = [p for p in range(2, 100) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                      53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


@given(NONZERO)
def test_squarefree_part_is_squarefree_and_same_class(n):
    s = squarefree_part(n)
    assert squarefree_part(s) == s
    # n / s is a positive rational square
    assert is_rational_square(Fraction(n, s))


def test_squarefree_part_rationals():
    assert squarefree_part(Fraction(8, 9)) == 2
    assert squarefree_part(Fraction(-1, 2)) == -2
    assert squarefree_part(Fraction(49, 4)) == 1


def test_is_rational_square():
    assert is_rational_square(Fraction(9, 4))
    assert not is_rational_square(Fraction(8, 4))
    assert not is_rational_square(-4)
    assert is_rational_square(0)


def test_hilbert_symbol_known_values():
    assert hilbert_symbol(-1, -1, FinitePrime(2)) == -1
    assert hilbert_symbol(-1, -1, REAL) == -1
    assert hilbert_symbol(-1, -1, FinitePrime(5)) == 1
    assert hilbert_symbol(2, 3, FinitePrime(3)) == -1
    assert hilbert_symbol(1, 7, FinitePrime(7)) == 1


def test_hilbert_symbol_matches_oracle_sample():
    for a in range(-12, 13):
        for b in range(-12, 13):
            if a == 0 or b == 0:
                continue
            for p in [0, 2, 3, 5, 7]:
                v = REAL if p == 0 else FinitePrime(p)
                assert hilbert_symbol(a, b, v) == (
                    1 if oracle_solvable(a, b, p) else -1
                ), (a, b, p)


@settings(max_examples=300, deadline=None)
@given(NONZERO, NONZERO)
def test_hilbert_product_formula(a, b):
    prod = 1
    for v in relevant_places([a, b]):
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


@settings(max_examples=200, deadline=None)
@given(NONZERO, NONZERO, NONZERO)
def test_hilbert_bimultiplicative(a, b, c):
    for p in [2, 3, 5]:
        v = FinitePrime(p)
        assert hilbert_symbol(a * c, b, v) == hilbert_symbol(
            a, b, v
        ) * hilbert_symbol(c, b, v)


def test_hilbert_symbol_reads_ints_and_fractions_alike():
    places = [REAL] + [FinitePrime(p) for p in PRIMES_LE_50[:6]]
    for a in range(-12, 13):
        for b in range(-12, 13):
            if a == 0 or b == 0:
                continue
            for v in places:
                want = hilbert_symbol(a, b, v)
                assert hilbert_symbol(Fraction(a), b, v) == want
                assert hilbert_symbol(a, Fraction(b), v) == want
                assert hilbert_symbol(Fraction(a), Fraction(b), v) == want


def test_hilbert_symbol_matches_oracle_on_rationals_with_denominators():
    rng = random.Random(24)
    for _ in range(300):
        a, b = (
            Fraction(rng.choice([n for n in range(-40, 41) if n]), rng.randint(2, 40))
            for _ in range(2)
        )
        for p in [0] + PRIMES_LE_50[:6]:
            v = REAL if p == 0 else FinitePrime(p)
            assert hilbert_symbol(a, b, v) == (1 if oracle_solvable(a, b, p) else -1), (a, b, p)


@pytest.mark.parametrize("zero", [0, Fraction(0)])
def test_hilbert_symbol_refuses_zero_in_either_argument(zero):
    for v in (REAL, FinitePrime(2), FinitePrime(3)):
        with pytest.raises(ZeroInput):
            hilbert_symbol(zero, 3, v)
        with pytest.raises(ZeroInput):
            hilbert_symbol(Fraction(-2, 5), zero, v)


def test_relevant_places_read_ints_and_fractions_alike():
    want = [REAL] + [FinitePrime(p) for p in (2, 3, 5, 7, 11)]
    assert relevant_places([15, Fraction(-7, 11), 0]) == want
    assert relevant_places([Fraction(15), Fraction(-7, 11), Fraction(0)]) == want
    rng = random.Random(25)
    for _ in range(100):
        xs = [Fraction(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(3)]
        mixed = [int(x) if x.denominator == 1 else x for x in xs]
        assert relevant_places(mixed) == relevant_places(xs)


def test_relevant_places_cover_ramification():
    places = relevant_places([-1, -1])
    assert REAL in places and FinitePrime(2) in places


def test_each_prime_has_one_place(monkeypatch):
    want = [REAL] + [FinitePrime(p) for p in (2, 3, 5, 7, 11)]
    proofs = []
    monkeypatch.setattr(arith, "is_prime", lambda n: proofs.append(n) or is_prime(n))
    finite_prime.cache_clear()
    places = relevant_places([Fraction(15, 7), 22])
    assert places == want
    assert all(v is finite_prime(v.p) for v in places[1:])
    _, _, _, eps = _invariants([Fraction(15, 7), 22, -1])
    assert all(v is finite_prime(v.p) for v in eps)
    assert relevant_places([15, -77])[1:] == places[1:] and sorted(proofs) == [2, 3, 5, 7, 11]
    for p in (4, 1, 0):
        with pytest.raises(NotPrime):
            finite_prime(p)
        with pytest.raises(NotPrime):
            FinitePrime(p)
    assert finite_prime.cache_info().currsize == 5  # a composite is not kept
