import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almin import polys

SMALL_POLY = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=6
).map(polys.poly)


def test_poly_normalizes_leading_zeros():
    assert polys.degree(polys.poly([1, 2, 0, 0])) == 1
    assert polys.is_zero(polys.poly([0, 0]))


@settings(max_examples=200)
@given(SMALL_POLY, SMALL_POLY)
def test_divmod_identity(f, g):
    if polys.is_zero(g):
        return
    q, r = polys.divmod_poly(f, g)
    assert polys.sub(polys.add(polys.mul(q, g), r), f) == polys.poly([0])
    assert polys.degree(r) < polys.degree(g) or polys.is_zero(r)


@settings(max_examples=200)
@given(SMALL_POLY, SMALL_POLY)
def test_gcd_divides_both(f, g):
    if polys.is_zero(f) or polys.is_zero(g):
        return
    d = polys.gcd(f, g)
    _, r1 = polys.divmod_poly(f, d)
    _, r2 = polys.divmod_poly(g, d)
    assert polys.is_zero(r1) and polys.is_zero(r2)


def test_count_real_roots():
    def count(coeffs):
        return polys.real_roots_of_chain(polys.sturm_chain(polys.poly(coeffs)))

    assert count([-2, 0, 1]) == 2  # x^2 - 2
    assert count([1, 0, 1]) == 0  # x^2 + 1
    assert count([-2, 0, 0, 1]) == 1  # x^3 - 2
    assert count([2, 0, -2, 0, 1]) == 0
    assert count([-2, 0, 0, 0, 1]) == 2  # x^4 - 2


def test_rational_roots():
    # (x - 1)(x + 2)(x - 1/2) = x^3 + 3/2 x^2 - 3/2 x + ... compute directly
    f = polys.mul(
        polys.mul(polys.poly([-1, 1]), polys.poly([2, 1])),
        polys.poly([Fraction(-1, 2), 1]),
    )
    assert sorted(polys.rational_roots(f)) == [-2, Fraction(1, 2), 1]
    assert polys.rational_roots(polys.poly([1, 0, 1])) == []


def test_irreducible():
    P = polys.poly
    assert polys.is_irreducible(P([-2, 0, 1]))
    assert polys.is_irreducible(P([1, 0, 0, 0, 1]))  # x^4 + 1
    assert not polys.is_irreducible(P([-1, 0, 1]))  # x^2 - 1
    assert not polys.is_irreducible(P([-4, 0, 1]))
    # Sophie Germain: x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2), no rational root
    assert polys.rational_roots(P([4, 0, 0, 0, 1])) == []
    assert not polys.is_irreducible(P([4, 0, 0, 0, 1]))
    assert polys.is_irreducible(P([2, 0, -2, 0, 1]))  # x^4 - 2x^2 + 2
    assert not polys.is_irreducible(polys.mul(P([1, 0, 2]), P([-5, 0, 3])))
    assert not polys.is_irreducible(
        polys.scale(polys.mul(P([Fraction(1, 2), 1]), P([1, 0, 1])), Fraction(-2, 3))
    )
    assert polys.is_irreducible(P([1, 0, 0, 1, 0, 0, 1]))  # x^6 + x^3 + 1
    # degree >= 5 without a rational root: reducible, but only the degree
    # patterns are tried, and they leave degree 2 open
    with pytest.raises(polys.IrreducibilityUnproven, match="degree-5"):
        polys.is_irreducible(polys.mul(P([1, 0, 1]), P([1, 0, 1, 1])))
    # a repeated factor proves reducibility at any degree: (x^2+1)^2 (x^3+x+1)
    assert not polys.is_irreducible(polys.mul(polys.mul(P([1, 0, 1]), P([1, 0, 1])), P([1, 1, 0, 1])))
    assert polys.is_irreducible(P([0, 1]))
    assert not polys.is_irreducible(P([3]))
    # Q(sqrt 2, sqrt 3, sqrt 5): every unramified prime splits it into factors
    # of one degree 1 or 2, so the degree patterns never exclude degree 2.
    with pytest.raises(polys.IrreducibilityUnproven, match="degree-8"):
        polys.is_irreducible(P([576, 0, -960, 0, 352, 0, -40, 0, 1]))


def test_degree_pattern_proof():
    # x^6 + 108: Galois group S3 acting regularly; the factor degrees modulo
    # primes are 1^6, 2^3 and 3^2, whose subset sums meet only in {0, 6}.
    f = [108, 0, 0, 0, 0, 0, 1]
    assert polys.rational_roots(polys.poly(f)) == []
    assert polys._degree_patterns_exclude_factors(f)
    assert polys.is_irreducible(polys.poly(f))
    patterns = {
        tuple(sorted(polys._fp_factor_degrees(polys._fp_monic([c % p for c in f], p), p)))
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)
    }
    assert patterns == {(1,) * 6, (2, 2, 2), (3, 3)}


def _random_factor(rng, deg):
    lead = rng.choice([c for c in range(-5, 6) if c])
    return polys.poly([rng.randint(-9, 9) for _ in range(deg)] + [lead])


def test_is_irreducible_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(20261018)
    counts = {"high": 0, "high_irreducible": 0, "unproven_irreducible": 0, "unproven_reducible": 0}
    for _ in range(2000):
        target = rng.randint(1, 6)
        if rng.random() < 0.5:
            f = _random_factor(rng, target)
        else:  # a product of random factors of degree 1-3
            f = polys.poly([1])
            while polys.degree(f) < target:
                f = polys.mul(f, _random_factor(rng, rng.randint(1, min(3, target - polys.degree(f)))))
        if rng.random() < 0.3:
            f = polys.scale(f, Fraction(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 7)))
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(f))
        factors = sympy.factor_list(sympy.Poly(expr, x, domain="QQ"))[1]
        want = len(factors) == 1 and factors[0][1] == 1
        n = polys.degree(f)
        counts["high"] += n >= 5
        counts["high_irreducible"] += n >= 5 and want
        try:
            got = polys.is_irreducible(f)
        except polys.IrreducibilityUnproven:
            assert n >= 5 and not polys.rational_roots(f), f
            counts["unproven_irreducible" if want else "unproven_reducible"] += 1
            continue
        assert got == want, f
    # The degree patterns prove (almost) every irreducible input; a reducible
    # input of degree >= 5 with neither a rational root nor a repeated factor
    # has no proof of either kind and is reported unproven.
    print(
        f"degree >= 5: {counts['high']} inputs, unproven"
        f" {counts['unproven_irreducible']}/{counts['high_irreducible']} irreducible,"
        f" {counts['unproven_reducible']}/{counts['high'] - counts['high_irreducible']} reducible"
    )
    assert counts["unproven_irreducible"] <= counts["high_irreducible"] // 100


def test_compose_and_mod():
    f = polys.poly([-2, 0, 1])  # x^2 - 2
    g = polys.poly([1, 1])  # x + 1
    h = polys.compose(f, g)  # (x+1)^2 - 2 = x^2 + 2x - 1
    assert h == polys.poly([-1, 2, 1])
    assert polys.mod(h, polys.poly([0, 1])) == polys.poly([-1])


def test_sturm_chain_endpoints():
    chain = polys.sturm_chain(polys.poly([-2, 0, 1]))
    assert polys.degree(chain[0]) == 2
    assert polys.degree(chain[1]) == 1


def _fraction_sturm_chain(f):
    """The Sturm sequence by exact remainders over Q."""
    chain = [f, polys.derivative(f)]
    while polys.degree(chain[-1]) > 0:
        r = polys.mod(chain[-2], chain[-1])
        if polys.is_zero(r):
            break
        chain.append(polys.neg(r))
    return chain


def test_integer_sturm_chain_against_fraction_chain():
    """The integer chain is the rational Sturm sequence up to positive
    factors: same length, and each member a positive multiple of the
    rational one; so it counts the same real roots, and its last member
    has the degree of gcd(f, f')."""
    rng = random.Random(8101)
    for trial in range(600):
        factors = [
            polys.poly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 4))])
            for _ in range(rng.randint(1, 3))
        ]
        if trial % 3 == 0:
            factors.append(factors[0])  # a repeated factor
        f = polys.poly([1])
        for g in factors:
            f = polys.mul(f, g)
        if polys.degree(f) < 1:
            continue
        want, got = _fraction_sturm_chain(f), polys.sturm_chain(f)
        assert len(got) == len(want), f
        for a, b in zip(got, want):
            assert polys.degree(a) == polys.degree(b), f
            ratio = a[polys.degree(a)] / b[polys.degree(b)] if polys.degree(b) >= 0 else 1
            assert ratio > 0 and polys.scale(b, ratio) == a, f
        assert polys.degree(got[-1]) == polys.degree(polys.gcd(f, polys.derivative(f)))
        assert polys.real_roots_of_chain(got) == polys.real_roots_of_chain(want)
