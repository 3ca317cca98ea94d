"""The immutable value base (almin.value): construction, immutability,
equality, hashing, repr and replace, on the engine's own record types."""

import ast
import pathlib
from fractions import Fraction

import pytest

from almin.algebra import QuatForm, QuatSecondKindForm, QuaternionAlgebra
from almin.arith import REAL, FinitePrime, NotPrime, RealPlace
from almin.numfield import QuadraticField
from almin.qgroup import SpecialLinear
from almin.quadform import QuadForm
from almin.roots import CheckResult
from almin.value import Value, replace
from almin.verify import VerifyCheck

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "almin"


def test_fields_cannot_be_assigned_or_deleted():
    p = FinitePrime(7)
    with pytest.raises(AttributeError):
        p.p = 11
    with pytest.raises(AttributeError):
        del p.p
    with pytest.raises(AttributeError):
        p.other = 1
    assert p.p == 7


def test_equality_is_type_strict():
    a, b = CheckResult("x", True, ""), VerifyCheck("x", True, "")
    assert hash(a) == hash(b)
    assert a != b and b != a
    assert a == CheckResult("x", True, "") and a != CheckResult("x", False, "")
    assert FinitePrime(3) != 3 and FinitePrime(3) != (3,)


def test_hash_is_the_hash_of_the_field_tuple():
    gram = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-2)))
    assert hash(FinitePrime(7)) == hash((7,))
    assert hash(QuadForm(gram)) == hash((gram,))
    assert hash(VerifyCheck("x", True, "d")) == hash(("x", True, "d"))
    assert hash(REAL) == hash(RealPlace()) == hash(()) and REAL == RealPlace()
    p, q = FinitePrime(5), FinitePrime(5)
    assert p == q and hash(q) == hash(p) and {p: 1}[q] == 1


def test_positional_keyword_and_default_fields():
    d = QuaternionAlgebra(-1, -1)
    diag = (d.element(1),)
    f = QuatForm(d, "hermitian", diag)
    assert f.hyperbolic_count == 0
    assert QuatForm(d, "hermitian", diag, 2) == QuatForm(
        d, "hermitian", diagonal=diag, hyperbolic_count=2
    )
    assert QuatForm(algebra=d, kind="hermitian", diagonal=diag) == f
    assert SpecialLinear(3).algebra is None
    assert SpecialLinear(m=3, algebra=d) == SpecialLinear(3, d)
    assert VerifyCheck("x", passed=True, detail="d") == VerifyCheck(
        detail="d", name="x", passed=True
    )
    assert FinitePrime(p=7) == FinitePrime(7)
    for cls, args, kwargs in [
        (QuatForm, (d, "hermitian", diag, 0, 1), {}),
        (QuatForm, (d, "hermitian"), {}),
        (QuatForm, (d, "hermitian", diag), {"kind": "hermitian"}),
        (QuatForm, (d, "hermitian", diag), {"rank": 1}),
        (VerifyCheck, ("x", True, "d", "e"), {}),
        (VerifyCheck, ("x",), {}),
        (VerifyCheck, ("x", True), {"name": "y"}),
        (VerifyCheck, ("x", True), {"details": "d"}),
        (SpecialLinear, (), {"algebra": d}),
        (FinitePrime, (), {}),
        (FinitePrime, (7,), {"p": 7}),
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)

    class Short(Value):
        a: int
        b: int = 1
        c: int = 2

    class Long(Value):
        a: int
        b: int
        c: int
        d: int = 3
        e: int = 4

    assert Short(0) == Short(0, 1, 2) and Short(0, 5) == Short(0, 5, 2)
    assert Short(0, c=6) == Short(0, 1, 6)
    assert Long(0, 1, 2, 5) == Long(0, 1, 2, 5, 4) and Long(0, 1, 2, e=6).d == 3
    with pytest.raises(TypeError):

        class Unordered(Value):
            a: int = 0
            b: int


def test_post_init_checks_and_normalizes():
    with pytest.raises(NotPrime):
        FinitePrime(4)
    d = QuaternionAlgebra(2, 3)
    assert isinstance(d.a, Fraction) and d == QuaternionAlgebra(Fraction(2), Fraction(3))


def test_replace_rechecks_the_new_value():
    with pytest.raises(NotPrime):
        replace(FinitePrime(3), p=4)
    assert replace(FinitePrime(3), p=5) == FinitePrime(5)
    c = VerifyCheck("x", True, "d")
    assert replace(c, passed=False) == VerifyCheck("x", False, "d")
    assert c.passed is True
    with pytest.raises(TypeError):
        replace(c, no_such_field=1)


def test_cached_property_is_not_a_field():
    f = QuadForm.diagonal([1, Fraction(1, 2), -3])
    g = QuadForm.diagonal([1, Fraction(1, 2), -3])
    assert f.integral == ((((0, 2),), ((1, 1),), ((2, -6),)), 2)
    assert f.integral is f.integral
    assert f == g and hash(f) == hash(g)
    assert f.bilinear((1, 1, 1), (1, 1, 1)) == Fraction(-3, 2)


def test_unit_inverse_is_left_out_of_equality():
    L, d = QuadraticField(17), QuaternionAlgebra(2, 3)
    diag = (d.element(1), d.element(-1))
    f = QuatSecondKindForm(L, d, d.element(2), diag)
    assert f.unit_inverse == d.element(Fraction(1, 2))
    g = QuatSecondKindForm(L, d, d.element(2), diag)
    object.__setattr__(g, "unit_inverse", d.element(3))
    assert f == g and hash(f) == hash(g)
    assert "unit_inverse" not in repr(f)
    with pytest.raises(AttributeError):
        f.unit_inverse = d.one()


def test_repr_names_every_field():
    assert repr(VerifyCheck("x", True, "")) == "VerifyCheck(name='x', passed=True, detail='')"
    assert repr(QuadraticField(5)) == "QuadraticField(d=5)"
    assert repr(FinitePrime(7)) == "FinitePrime(7)"  # the class's own repr


def test_no_module_imports_dataclasses():
    """The value types run no code generation at import: nothing in the
    package imports dataclasses."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            else:
                continue
            assert "dataclasses" not in modules, path.name
