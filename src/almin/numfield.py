"""Number fields by certificate: quadratic fields with exact arithmetic,
and general fields given by a monic integer defining polynomial, its
signature (always counted by Sturm) and a list of certified subfields.

A listed subfield is a claim that verify_subfield checks; the list itself
is never believed to be exhaustive.  Completeness is read off the
certificate (`NumberFieldCert.subfields_complete`): a field of prime degree
has no proper subfield but Q, and a quartic listing three distinct quadratic
subfields lists the most a quartic has.  The complete list of a quartic
comes from its resolvent cubic (quadratic_subfields_of_quartic); no larger
field has a computed list.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import polys
from .arith import is_prime, is_rational_square, rational_sqrt, squarefree_part
from .polys import Poly
from .value import Value


class NotSquarefree(ValueError):
    pass


class SameField(ValueError):
    pass


class InvalidCertificate(ValueError):
    pass


class QuadraticField(Value):
    """The field Q(sqrt(d)) for a squarefree integer d not in {0, 1}."""

    d: int

    def __post_init__(self):
        if self.d in (0, 1) or squarefree_part(self.d) != self.d:
            raise InvalidCertificate(f"d = {self.d} must be squarefree and != 0, 1")

    @property
    def is_real(self) -> bool:
        return self.d > 0

    def element(self, x, y=0) -> "QuadElement":
        return QuadElement(self, Fraction(x), Fraction(y))

    def sqrt_gen(self) -> "QuadElement":
        return QuadElement(self, Fraction(0), Fraction(1))


class QuadElement(Value):
    """x + y*sqrt(d) in a quadratic field."""

    fld: QuadraticField
    x: Fraction
    y: Fraction

    def _check(self, other: "QuadElement"):
        if self.fld != other.fld:
            raise ValueError("mixed quadratic fields")

    def __add__(self, o):
        o = self._coerce(o)
        return QuadElement(self.fld, self.x + o.x, self.y + o.y)

    def __sub__(self, o):
        o = self._coerce(o)
        return QuadElement(self.fld, self.x - o.x, self.y - o.y)

    def __neg__(self):
        return QuadElement(self.fld, -self.x, -self.y)

    def __mul__(self, o):
        o = self._coerce(o)
        d = self.fld.d
        return QuadElement(
            self.fld, self.x * o.x + d * self.y * o.y, self.x * o.y + self.y * o.x
        )

    def __rmul__(self, o):
        return self * o

    def __radd__(self, o):
        return self + o

    def __rsub__(self, o):
        return (-self) + o

    def _coerce(self, o) -> "QuadElement":
        if isinstance(o, QuadElement):
            self._check(o)
            return o
        return QuadElement(self.fld, Fraction(o), Fraction(0))

    def conj(self) -> "QuadElement":
        return QuadElement(self.fld, self.x, -self.y)

    def norm(self) -> Fraction:
        return self.x * self.x - self.fld.d * self.y * self.y

    def trace(self) -> Fraction:
        return 2 * self.x

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def is_rational(self) -> bool:
        return self.y == 0

    def inverse(self) -> "QuadElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element")
        return QuadElement(self.fld, self.x / n, -self.y / n)

    def __truediv__(self, o):
        o = self._coerce(o)
        return self * o.inverse()

    def __eq__(self, o):
        if isinstance(o, (int, Fraction)):
            return self.y == 0 and self.x == o
        return isinstance(o, QuadElement) and self.fld == o.fld and self.x == o.x and self.y == o.y

    def __hash__(self):
        return hash((self.fld, self.x, self.y))

    def __repr__(self):
        return f"({self.x} + {self.y}*sqrt({self.fld.d}))"


def is_square_in_quadfield(e: QuadElement) -> bool:
    """Whether e is a square in Q(sqrt(d)).

    (u + v sqrt d)^2 = x + y sqrt d forces N(e) = s^2 rational and
    u^2 = (x + s)/2 or (x - s)/2; then v = y/(2u) works automatically.
    """
    if e.is_zero():
        return True
    n = e.norm()
    if not is_rational_square(n):
        return False
    s = rational_sqrt(n)
    if e.y == 0:
        # e = x: a square iff x or x/d is a rational square (u=0 case gives v^2 d)
        return is_rational_square(e.x) or is_rational_square(e.x / e.fld.d)
    for sgn in (1, -1):
        u2 = (e.x + sgn * s) / 2
        if u2 != 0 and is_rational_square(u2):
            return True
    return False


class SubfieldCert(Value):
    """A proper subfield given by its defining polynomial and an embedding:
    a polynomial expression of a root of sub_poly in the parent power basis."""

    sub_poly: Poly
    embedding: Poly

    @staticmethod
    def make(sub_poly, embedding) -> "SubfieldCert":
        return SubfieldCert(polys.poly(sub_poly), polys.poly(embedding))


class NumberFieldCert(Value):
    defining_poly: Poly
    degree: int
    signature: tuple[int, int]
    subfields: tuple[SubfieldCert, ...] = ()

    def __post_init__(self):
        f = self.defining_poly
        d = polys.degree(f)
        if d != self.degree or d < 1:
            raise InvalidCertificate("degree does not match defining polynomial")
        if f[d] != 1:
            raise InvalidCertificate("defining polynomial must be monic")
        if any(c.denominator != 1 for c in f):
            raise InvalidCertificate("defining polynomial must have integer coefficients")
        if not polys.is_irreducible(f):
            raise InvalidCertificate("defining polynomial must be irreducible")
        r1, r2 = self.signature
        if r1 + 2 * r2 != d:
            raise InvalidCertificate("signature must satisfy r1 + 2*r2 = degree")

    @property
    def subfields_complete(self) -> bool:
        """Whether the listed subfields are all proper subfields other than
        Q, granted that each listed one verifies: at prime degree there are
        none, and a quartic has at most three quadratic subfields."""
        if is_prime(self.degree):
            return True
        if self.degree != 4:
            return False
        classes = set()
        for cert in self.subfields:
            if polys.degree(cert.sub_poly) == 2:
                b, c = cert.sub_poly[1], cert.sub_poly[0]
                if not is_rational_square(b * b - 4 * c):
                    classes.add(squarefree_part(b * b - 4 * c))
        return len(classes) == 3


def sturm_signature(f: Poly) -> tuple[int, int]:
    """(r1, r2) of a monic squarefree polynomial, by Sturm sequences."""
    f = polys.poly(f)
    chain = polys.sturm_chain(f)
    if polys.degree(chain[-1]) > 0:  # gcd(f, f') is not constant
        raise NotSquarefree("polynomial has repeated roots")
    r1 = polys.real_roots_of_chain(chain)
    return r1, (polys.degree(f) - r1) // 2


def field_cert(coeffs, subfields=()) -> NumberFieldCert:
    """Build a NumberFieldCert from integer coefficients (low degree first),
    computing the signature by Sturm.  A quartic listing no subfield gets
    the quadratic subfields of its resolvent cubic."""
    f = polys.poly(coeffs)
    deg = polys.degree(f)
    sig = sturm_signature(f)
    subs = tuple(subfields)
    if deg == 4 and not subs:
        subs = tuple(quadratic_subfields_of_quartic(f).values())
    return NumberFieldCert(f, deg, sig, subs)


def verify_subfield(parent: NumberFieldCert, cert: SubfieldCert) -> bool:
    """True iff sub_poly(embedding) == 0 modulo the defining polynomial and
    the degree divisibility constraints hold.  Never raises."""
    try:
        ds = polys.degree(cert.sub_poly)
        if ds in (0, -1) or ds == 1 or ds >= parent.degree or parent.degree % ds != 0:
            return False
        if cert.sub_poly[ds] != 1 or any(c.denominator != 1 for c in cert.sub_poly):
            return False
        if not polys.is_irreducible(cert.sub_poly):
            return False
        value = polys.mod(
            polys.compose(cert.sub_poly, cert.embedding), parent.defining_poly
        )
        return polys.is_zero(value)
    except Exception:
        return False


def _depress_quartic(f: Poly) -> tuple[Poly, Fraction]:
    """Substitute x -> x - c3/4 in a monic quartic; returns (depressed, shift)
    with root relation theta_depressed = theta + shift."""
    c3 = f[3]
    shift = c3 / 4
    g = polys.compose(f, polys.poly([-shift, 1]))
    return g, shift


def quadratic_subfields_of_quartic(f) -> dict[int, SubfieldCert]:
    """All squarefree d with Q(sqrt(d)) inside the quartic field Q[x]/(f),
    each with an embedding certificate, found via rational roots of the
    resolvent cubic y^3 - p y^2 - 4 r y + (4 p r - q^2).  Memoized on the
    polynomial: parsing a quartic and analyzing it both ask."""
    return dict(_quadratic_subfields(polys.poly(f)))


@functools.lru_cache(maxsize=256)
def _quadratic_subfields(f: Poly) -> tuple[tuple[int, SubfieldCert], ...]:
    if polys.degree(f) != 4 or f[4] != 1:
        raise InvalidCertificate("need a monic quartic")
    if not polys.is_irreducible(f):
        raise InvalidCertificate("quartic must be irreducible")
    g, shift = _depress_quartic(f)
    p, q, r = g[2], g[1], g[0]
    resolvent = polys.poly([4 * p * r - q * q, -4 * r, -p, 1])
    out: dict[int, SubfieldCert] = {}
    theta = polys.poly([shift, 1])  # depressed generator in the original power basis
    for y0 in polys.rational_roots(resolvent):
        z = y0 - p
        if z == 0:
            if q != 0:
                continue
            disc = p * p - 4 * r
            if disc == 0 or is_rational_square(disc):
                continue
            d = squarefree_part(disc)
            w = rational_sqrt(disc / d)
            # sqrt(disc) = 2 theta^2 + p, so sqrt(d) = (2 theta^2 + p)/w
            emb = polys.scale(
                polys.add(polys.scale(polys.mulmod(theta, theta, f), 2), polys.poly([p])),
                Fraction(1) / w,
            )
        else:
            if is_rational_square(z):
                continue  # would make the quartic reducible
            d = squarefree_part(z)
            w = rational_sqrt(z / d)
            # s = theta1 + theta2 satisfies s^2 = z and
            # s = (2 z theta - q) / (2 theta^2 + p + z) in the field.
            numer = polys.sub(polys.scale(theta, 2 * z), polys.poly([q]))
            denom = polys.add(
                polys.scale(polys.mulmod(theta, theta, f), 2), polys.poly([p + z])
            )
            s = polys.mulmod(numer, polys.xgcd_mod(denom, f), f)
            emb = polys.scale(s, Fraction(1) / w)
        cert = SubfieldCert(polys.poly([-d, 0, 1]), polys.mod(emb, f))
        out[d] = cert
    return tuple(out.items())


def compositum_quadratic(e: QuadraticField, l: QuadraticField) -> NumberFieldCert:
    """Degree-4 certificate for the biquadratic field Q(sqrt(e.d), sqrt(l.d)),
    with all three quadratic subfields certified."""
    if e.d == l.d:
        raise SameField("compositum of a field with itself is itself")
    d1, d2 = e.d, l.d
    # minimal polynomial of sqrt(d1) + sqrt(d2)
    f = polys.poly([(d1 - d2) ** 2, 0, -2 * (d1 + d2), 0, 1])
    theta = polys.poly([0, 1])
    t3 = polys.poly([0, 0, 0, 1])
    # sqrt(d1) = (theta^3 - (3 d1 + d2) theta) / (2 (d2 - d1)), symmetrically for d2
    emb1 = polys.scale(
        polys.sub(t3, polys.scale(theta, 3 * d1 + d2)), Fraction(1, 2 * (d2 - d1))
    )
    emb2 = polys.scale(
        polys.sub(t3, polys.scale(theta, 3 * d2 + d1)), Fraction(1, 2 * (d1 - d2))
    )
    d3 = squarefree_part(d1 * d2)
    w = rational_sqrt(Fraction(d1 * d2, d3))
    emb3 = polys.scale(polys.poly([-(d1 + d2), 0, 1]), Fraction(1, 2) / w)
    subs = (
        SubfieldCert(polys.poly([-d1, 0, 1]), polys.mod(emb1, f)),
        SubfieldCert(polys.poly([-d2, 0, 1]), polys.mod(emb2, f)),
        SubfieldCert(polys.poly([-d3, 0, 1]), polys.mod(emb3, f)),
    )
    return NumberFieldCert(f, 4, sturm_signature(f), subs)


def quadratic_field_cert(d: int) -> NumberFieldCert:
    """NumberFieldCert x^2 - d for Q(sqrt(d)), d any integer that is not a
    square: the discriminant proves it irreducible, so d is not factored."""
    return NumberFieldCert(polys.poly([-d, 0, 1]), 2, (2, 0) if d > 0 else (0, 1))
