from fractions import Fraction

import pytest

from almin import polys
from almin.numfield import (
    InvalidCertificate,
    NotSquarefree,
    QuadraticField,
    SameField,
    SubfieldCert,
    compositum_quadratic,
    field_cert,
    is_square_in_quadfield,
    quadratic_field_cert,
    quadratic_subfields_of_quartic,
    sturm_signature,
    verify_subfield,
)


def test_quadratic_field_validation():
    QuadraticField(2)
    QuadraticField(-1)
    with pytest.raises(InvalidCertificate):
        QuadraticField(4)
    with pytest.raises(InvalidCertificate):
        QuadraticField(1)


def test_quad_element_arithmetic():
    F = QuadraticField(2)
    x = F.element(1, 1)  # 1 + sqrt(2)
    assert (x * x) == F.element(3, 2)
    assert (x * x.conj()) == F.element(-1)
    inv = x.inverse()
    assert x * inv == F.element(1)


def test_is_square_in_quadfield():
    F = QuadraticField(2)
    # 3 + 2*sqrt(2) = (1 + sqrt(2))^2
    assert is_square_in_quadfield(F.element(3, 2))
    assert is_square_in_quadfield(F.element(2, 0))  # 2 = (sqrt 2)^2
    assert not is_square_in_quadfield(F.element(3, 0))
    G = QuadraticField(-1)
    assert is_square_in_quadfield(G.element(0, 2))  # 2i = (1+i)^2
    assert not is_square_in_quadfield(G.element(3, 0))


def test_signatures():
    assert sturm_signature(polys.poly([-2, 0, 1])) == (2, 0)
    assert sturm_signature(polys.poly([1, 0, 1])) == (0, 1)
    assert sturm_signature(polys.poly([-2, 0, 0, 1])) == (1, 1)
    assert sturm_signature(polys.poly([-2, 0, 0, 0, 1])) == (2, 1)
    assert sturm_signature(polys.poly([2, 0, -2, 0, 1])) == (0, 2)


def test_field_cert_prime_degree_complete():
    c = field_cert([-2, 0, 0, 1])
    assert c.degree == 3 and c.subfields == () and c.subfields_complete


def test_quartic_subfields():
    subs = quadratic_subfields_of_quartic(polys.poly([1, 0, 0, 0, 1]))
    assert set(subs) == {-1, 2, -2}  # the eighth-cyclotomic field
    subs2 = quadratic_subfields_of_quartic(polys.poly([2, 0, -2, 0, 1]))
    assert set(subs2) == {-1}
    subs3 = quadratic_subfields_of_quartic(polys.poly([-2, 0, 0, 0, 1]))
    assert set(subs3) == {2}


def test_resolvent_cubic_is_computed_once_per_quartic(run_cli):
    # parsing x^4 - 2x^2 + 2 lists its one quadratic subfield from the
    # resolvent cubic, and the analysis, which cannot know that list
    # complete, asks again: the second ask is a cache hit
    from almin import numfield
    from conftest import CORPUS

    path = str(CORPUS / "res_sl2_imag_quartic.json")
    numfield._quadratic_subfields.cache_clear()
    r = run_cli("analyze", path)
    assert r.code == 0 and r.json["verdict"] == "minimal"
    info = numfield._quadratic_subfields.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    run_cli("analyze", path)
    assert numfield._quadratic_subfields.cache_info().misses == 1


def test_quartic_subfield_certs_verify():
    f = field_cert([1, 0, 0, 0, 1])
    assert len(f.subfields) == 3 and f.subfields_complete
    for cert in f.subfields:
        assert verify_subfield(f, cert)


def test_subfields_complete_is_read_off_the_certificate():
    # prime degree: no proper subfield to list
    assert field_cert([-2, 0, 1]).subfields_complete
    assert field_cert([-2, 0, 0, 0, 0, 1]).subfields_complete
    # a quartic with fewer than three quadratic subfields is never known
    # complete, though the resolvent cubic listed all of them
    x4p2 = field_cert([2, 0, 0, 0, 1])
    assert len(x4p2.subfields) == 1 and not x4p2.subfields_complete
    # three distinct quadratic subfields are all a quartic has
    subs = quadratic_subfields_of_quartic([1, 0, 0, 0, 1])
    assert field_cert([1, 0, 0, 0, 1], subfields=subs.values()).subfields_complete
    assert compositum_quadratic(QuadraticField(2), QuadraticField(3)).subfields_complete
    # Q(sqrt 2) listed twice, by x^2 - 2 and by x^2 - 8, is one subfield
    sqrt8 = SubfieldCert.make([-8, 0, 1], polys.scale(subs[2].embedding, 2))
    assert verify_subfield(field_cert([1, 0, 0, 0, 1]), sqrt8)
    twice = field_cert([1, 0, 0, 0, 1], subfields=(subs[-1], subs[2], sqrt8))
    assert not twice.subfields_complete
    # nothing is computed above degree 4
    assert not field_cert([108, 0, 0, 0, 0, 0, 1]).subfields_complete


def test_verify_subfield_rejects_garbage():
    f = field_cert([-2, 0, 0, 0, 1])
    good = f.subfields[0]
    bad = SubfieldCert(good.sub_poly, polys.poly([1, 1]))
    assert not verify_subfield(f, bad)
    # wrong polynomial entirely
    bad2 = SubfieldCert(polys.poly([-3, 0, 1]), good.embedding)
    assert not verify_subfield(f, bad2)
    # non-proper degrees are rejected
    bad3 = SubfieldCert(polys.poly([1, 1]), polys.poly([1]))
    assert not verify_subfield(f, bad3)


def test_compositum_quadratic():
    K = compositum_quadratic(QuadraticField(2), QuadraticField(-1))
    assert K.degree == 4
    ds = set()
    for cert in K.subfields:
        assert verify_subfield(K, cert)
        ds.add(int(-cert.sub_poly[0]))
    assert {2, -1, -2} <= ds
    with pytest.raises(SameField):
        compositum_quadratic(QuadraticField(2), QuadraticField(2))


def test_quadratic_field_cert():
    c = quadratic_field_cert(5)
    assert c.defining_poly == polys.poly([-5, 0, 1])
    assert c.signature == (2, 0)
    assert quadratic_field_cert(-5).signature == (0, 1)


def test_cert_validation():
    with pytest.raises(InvalidCertificate):
        field_cert([-4, 0, 1])  # reducible
    with pytest.raises(NotSquarefree):
        sturm_signature(polys.poly([1, 2, 1]))
