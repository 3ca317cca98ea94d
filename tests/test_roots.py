import pytest

from almin.roots import (
    NotARoot,
    Reducible,
    RootSubset,
    closed_subsystem,
    f4_c3_check,
    full_report,
    highest_root,
    is_simply_connected_subgroup,
    minimal_root,
    root_system,
    triality_fixed_subgroup_not_simply_connected,
    triality_orbit_check,
    verify_e6_identities,
)
from test_linalg import coordinates


def test_root_counts():
    assert len(root_system("G2").roots) == 12
    assert len(root_system("F4").roots) == 48
    assert len(root_system("E6").roots) == 72
    assert len(root_system("E7").roots) == 126
    assert len(root_system("E8").roots) == 240
    assert len(root_system("D4").roots) == 24
    assert len(root_system("A2").roots) == 6
    assert len(root_system("B3").roots) == 18
    assert len(root_system("C3").roots) == 18


def test_unknown_type_rejected():
    with pytest.raises(ValueError):
        root_system("H4")


def test_simple_combination_roundtrip():
    sys = root_system("F4")
    for coeffs in coordinates(sys.base, sorted(sys.roots)):
        signs = {1 if c > 0 else -1 for c in coeffs if c != 0}
        assert len(signs) == 1  # roots are one-signed in the base
        for c in coeffs:
            assert c == int(c)


def test_highest_and_minimal_roots():
    e6 = root_system("E6")
    hr = highest_root(e6)
    assert minimal_root(e6) == tuple(-x for x in hr)
    assert sum(coordinates(e6.base, [hr])[0]) == 11  # 1+2+2+3+2+1
    with pytest.raises(Reducible):
        # two orthogonal A1 bases do not have a highest root
        import almin.roots as roots_mod

        a1a1 = roots_mod.RootSystem(
            base=((1, -1, 0, 0), (0, 0, 1, -1)),
            roots=frozenset(
                {(1, -1, 0, 0), (-1, 1, 0, 0), (0, 0, 1, -1), (0, 0, -1, 1)}
            ),
            type_tag="A1+A1",
        )
        highest_root(a1a1)


def test_closed_subsystem_is_reflection_closed_and_idempotent():
    f4 = root_system("F4")
    a1, a2, a3, a4 = f4.base
    sub = closed_subsystem(RootSubset(f4, frozenset({a1, a2})))
    # closure: reflecting any member in any member stays inside
    from almin.roots import _reflect

    for x in sub.roots:
        for g in sub.roots:
            assert _reflect(x, g) in sub.roots
    again = closed_subsystem(RootSubset(f4, sub.roots))
    assert again.roots == sub.roots


def test_not_a_root_rejected():
    f4 = root_system("F4")
    with pytest.raises(NotARoot):
        RootSubset(f4, frozenset({(7, 7, 7, 7)}))


def test_c2_inside_b2_not_simply_connected():
    # in B2 the subsystem generated by the two long roots is A1+A1 whose
    # span contains no further long roots... use the standard C2-in-B2 case:
    # the long-root A1+A1 inside C2 spans a lattice containing extra long roots
    c2 = root_system("C2")
    long_roots = [r for r in c2.roots if sum(x * x for x in r) == 4]
    gens = frozenset(long_roots[:1])
    # a single long root generates A1; ambient long roots in its span are
    # only +-itself, so it is simply connected
    assert is_simply_connected_subgroup(closed_subsystem(RootSubset(c2, gens)))


def test_triality_suite():
    results = triality_orbit_check()
    assert all(r.passed for r in results)
    cases = [r for r in results if r.name.startswith("case ")]
    assert len(cases) == 24
    assert triality_fixed_subgroup_not_simply_connected().passed


def test_f4_suite():
    results = f4_c3_check()
    assert [r.passed for r in results] == [True] * 4


def test_e6_suite():
    results = verify_e6_identities()
    assert all(r.passed for r in results)
    assert len(results) == 8


def test_full_report_all_pass():
    results = full_report()
    assert len(results) == 44
    assert all(r.passed for r in results)


def test_suite_makes_few_reflections_and_fractions():
    """The subsystems are reflection orbits of their generators and the
    highest root and span tests take one small elimination each, on integer
    rows, so the D4, E6 and F4 checks stay within a fixed number of
    reflections and Fractions (the all-pairs closure and the elimination
    over all roots made 6,768 and 12,556; the elimination over Fractions
    made 942 Fractions, and on integer rows it makes 186)."""
    import almin.roots as roots_mod
    from fractions import Fraction

    reflect, new = roots_mod._reflect, Fraction.__dict__["__new__"]
    reflections, fractions = [], []

    def counting_reflect(beta, alpha):
        reflections.append(alpha)
        return reflect(beta, alpha)

    def counting_new(cls, *args, **kwargs):
        fractions.append(args)
        return new.__func__(cls, *args, **kwargs)

    roots_mod._reflect = counting_reflect
    Fraction.__new__ = staticmethod(counting_new)
    try:
        results = [triality_fixed_subgroup_not_simply_connected()]
        results += verify_e6_identities() + f4_c3_check()
    finally:
        roots_mod._reflect = reflect
        Fraction.__new__ = new
    assert all(r.passed for r in results)
    assert len(reflections) <= 2000, len(reflections)
    assert len(fractions) <= 200, len(fractions)


def test_suite_closes_each_subsystem_once(monkeypatch):
    """The D4, F4 and E6 checks build four subsystems and pass each closed
    subsystem on to the simply-connected test instead of closing it again."""
    import almin.roots as roots_mod

    calls = []

    def counting_closure(s):
        calls.append(s)
        return closed_subsystem(s)

    monkeypatch.setattr(roots_mod, "closed_subsystem", counting_closure)
    results = [triality_fixed_subgroup_not_simply_connected()]
    results += verify_e6_identities() + f4_c3_check()
    assert all(r.passed for r in results)
    assert len(calls) == 4
    assert len(set(calls)) == 4
