import collections
import json
import pathlib
import random
from fractions import Fraction
from typing import get_args

import pytest

from almin import serde
from almin.algebra import HermForm, QuatElement, QuatForm, QuatSecondKindForm, QuaternionAlgebra
from almin.minimal import (
    BlockEmbedding,
    CompositumTower,
    Minimal,
    NotApplicable,
    NotMinimal,
    PureQuaternionTower,
    SplitSO5,
    SubfieldElement,
    SubfieldRestriction,
    SubformIndices,
    UnsupportedVerdict,
    analyze,
    verify_witness,
)
from almin.numfield import QuadraticField, field_cert, quadratic_field_cert
from almin.quadform import QuadForm
from almin.qgroup import (
    Orthogonal,
    ResSL2,
    ResSU3,
    SpecialLinear,
    Symplectic,
    Unitary1,
    Unitary2,
    Unitary2Quat,
    Unsupported,
    q_rank,
    real_rank,
)
from almin.value import replace
from almin.verify import EmbeddingData, TraceRealizationContext


def _assert_verified(g, verdict):
    assert isinstance(verdict, NotMinimal), verdict
    report = verify_witness(g, verdict.witness)
    assert report.ok, [c for c in report.checks if not c.passed]
    return verdict.witness


# ---------------------------------------------------------------------------
# The four minimal shapes


def test_sl3_is_minimal():
    v = analyze(SpecialLinear(3))
    assert isinstance(v, Minimal) and v.matched_case == "i"
    assert serde.verdict_to_doc({}, v)["conditions"] == []


def test_isotropic_ternary_unitary_is_minimal():
    L = QuadraticField(2)
    v = analyze(Unitary2(HermForm.diagonal(L, [1, -1, -1])))
    assert isinstance(v, Minimal) and v.matched_case == "ii"


def test_res_su3_minimal_case():
    k = QuadraticField(-1)
    l4 = field_cert([2, 0, -2, 0, 1])  # x^4 - 2x^2 + 2: no real quadratic subfield
    v = analyze(ResSU3(k, l4))
    assert isinstance(v, Minimal) and v.matched_case == "iii"


def test_res_sl2_minimal_cases():
    v = analyze(ResSL2(quadratic_field_cert(2)))
    assert isinstance(v, Minimal) and v.matched_case == "iv"
    # quartic with only imaginary quadratic subfields
    v2 = analyze(ResSL2(field_cert([2, 0, -2, 0, 1])))
    assert isinstance(v2, Minimal) and v2.matched_case == "iv"


def test_so4_nonsquare_disc_converts_to_minimal_res_sl2():
    v = analyze(Orthogonal(QuadForm.diagonal([1, -1, -1, 2])))
    assert isinstance(v, Minimal) and v.matched_case == "iv"


# ---------------------------------------------------------------------------
# Non-minimal inputs with verified witnesses


def test_sl4_descends_by_block():
    v = analyze(SpecialLinear(4))
    w = _assert_verified(SpecialLinear(4), v)
    assert isinstance(w.embedding, BlockEmbedding)
    assert w.subgroup == SpecialLinear(3)


def test_sl2_division_algebra_descends_to_subfield():
    g = SpecialLinear(2, QuaternionAlgebra(2, 3))
    w = _assert_verified(g, analyze(g))
    assert isinstance(w.embedding, SubfieldElement)
    assert isinstance(w.subgroup, ResSL2)


def test_symplectic_descends_to_split_so5():
    g = Symplectic(2)
    w = _assert_verified(g, analyze(g))
    assert isinstance(w.embedding, SplitSO5)
    g3 = Symplectic(3)
    _assert_verified(g3, analyze(g3))


def test_orthogonal_descends_by_subform():
    g = Orthogonal(QuadForm.diagonal([1, -1, -1, 3, 5]))
    w = _assert_verified(g, analyze(g))
    assert isinstance(w.embedding, SubformIndices)
    assert isinstance(w.subgroup, ResSL2)


@pytest.mark.parametrize(
    "diagonal",
    [
        ["9", "9", "-5", "-5", "-11"],
        ["2", "10", "-7", "-1", "6", "11"],
        ["2", "5", "10", "-6", "-3", "-3", "7"],
    ],
)
def test_orthogonal_descends_by_searched_hyperbolic_plane(diagonal):
    # no two diagonal entries have square-class product -1, so the witness
    # splits its hyperbolic plane from a constructed isotropic vector; the
    # complement keeps every other hyperbolic pair, in an orthogonal basis
    g = serde.group_from_doc({"kind": "so", "diagonal": diagonal})
    v = analyze(g)
    w = _assert_verified(g, v)
    assert isinstance(w.embedding, SubformIndices)
    assert "constructed isotropic vector" in w.derivation[1].detail


@pytest.mark.parametrize(
    "diagonal",
    [
        [298800, -66544, 895424, 92818, 839486, -430401, -21103],
        [882415, -26705, -706253, 876801, 607206],
        [-522819, -974990, 338814, 912797, 728404],
        [110773682, 514191761, -96744405, -21278533, 589915738],
    ],
)
def test_orthogonal_witness_factors_no_search_value(diagonal):
    # these once ended FactorizationExceeded: the first three because a
    # search over tail vectors took the squarefree part of every candidate
    # value, some of 26+ digits; the last because the witness field was named
    # by the squarefree part of its represented value a, a tail entry of
    # 30-50 digits, where num(a) den(a) now names it
    g = serde.group_from_doc({"kind": "so", "diagonal": [str(c) for c in diagonal]})
    w = _assert_verified(g, analyze(g))
    back = serde.witness_from_doc(json.loads(json.dumps(serde.witness_to_doc(w))))
    assert verify_witness(g, back).ok


@pytest.mark.parametrize(
    "diagonal, vector, a",
    [
        # two square tail entries 1 and 4: a = 2 at (1, 1/2)
        (["1", "1", "-1", "-1", "4"], (1, Fraction(1, 2)), 2),
        # a square 1 and a negative -1: a = 2^2 - 1 at (2, 1)
        (["1", "1", "-1", "-1", "-1"], (2, 1), 3),
    ],
)
def test_orthogonal_witness_reads_a_from_square_tails(diagonal, vector, a):
    g = serde.group_from_doc({"kind": "so", "diagonal": diagonal})
    w = _assert_verified(g, analyze(g))
    assert (w.embedding.witness_vector, w.embedding.a_value) == (vector, a)
    back = serde.witness_from_doc(json.loads(json.dumps(serde.witness_to_doc(w))))
    assert verify_witness(g, back).ok


def test_hermitian_unitary_descends():
    L = QuadraticField(2)
    g = Unitary2(HermForm.diagonal(L, [1, -1, -1, 3]))
    w = _assert_verified(g, analyze(g))
    assert isinstance(w.embedding, SubformIndices)


@pytest.mark.parametrize(
    "d, diagonal",
    [
        (3, [1, 1, 1, -1]),
        (-1, [1, 1, -1, -3]),
        (-2, [1, 1, -1, -5]),
        (2, [1, -1, -3, -3]),
    ],
)
def test_hermitian_slot_needs_no_norm_condition(d, diagonal):
    # no entry c of these forms' complements has -1/c a norm from L, which
    # once ended them unsupported; SO(q0) embeds for any slot
    g = Unitary2(HermForm.diagonal(QuadraticField(d), diagonal))
    w = _assert_verified(g, analyze(g))
    doc = serde.witness_to_doc(w)
    back = serde.witness_from_doc(json.loads(json.dumps(doc)))
    assert verify_witness(g, back).ok
    assert serde.witness_to_doc(back) == doc


def test_corpus_witnesses_survive_a_json_round_trip():
    # an L-vector entry [x, y] is read back as a pair of rationals, and
    # written again as the same [x, y]
    expected = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "expected"
    docs = [json.loads(p.read_text()) for p in sorted(expected.glob("*.json"))]
    docs = [doc for doc in docs if doc.get("verdict") == "not_minimal"]
    assert len(docs) == 23
    kinds = set()
    for doc in docs:
        back = serde.witness_from_doc(doc["witness"])
        assert serde.witness_to_doc(back) == doc["witness"], doc["input"]
        assert verify_witness(serde.group_from_doc(doc["input"]), back).ok
        kinds |= {type(back.embedding), type(getattr(back.embedding, "context", None))}
    # together the goldens hold every embedding kind and the trace realization
    assert kinds >= {*get_args(EmbeddingData), TraceRealizationContext}


def test_random_hermitian_specs_end_verified_or_not_applicable():
    from test_qgroup import _sheared

    rng = random.Random(1401)
    tags = collections.Counter()
    for k in range(70):
        L = QuadraticField(rng.choice([-1, -2, -3, -5, -7, 2, 3, 5, 6, 7]))
        n = rng.randint(4, 5)
        cs = [rng.choice([-1, 1]) * rng.randint(1, 7) for _ in range(n)]
        form = HermForm.diagonal(L, cs)
        g = Unitary2(form if k < 40 else _sheared(rng, form))
        verdict = analyze(g)
        tags[type(verdict).__name__] += 1
        if isinstance(verdict, NotMinimal):
            _assert_verified(g, verdict)
        else:
            assert isinstance(verdict, NotApplicable), verdict
    assert tags["NotMinimal"] >= 40, tags


def test_quaternion_hermitian_b2_descends():
    d = QuaternionAlgebra(-1, -1)
    g = Unitary1(
        QuatForm(d, "hermitian", (d.element(1), d.element(1)), hyperbolic_count=1)
    )
    # real rank of this group is 1: not applicable, so enlarge
    g2 = Unitary1(
        QuatForm(d, "hermitian", (d.element(1), d.element(1)), hyperbolic_count=2)
    )
    _assert_verified(g2, analyze(g2))


def test_skew_unitary_tower():
    # the tail <i, j + k> is anisotropic (norm ratio 1/2), with no assumption
    d = QuaternionAlgebra(-1, -1)
    g = Unitary1(
        QuatForm(d, "skew_hermitian", (d.gen_i(), d.gen_j() + d.gen_k()), hyperbolic_count=1)
    )
    assert q_rank(g) == 1
    v = analyze(g)
    w = _assert_verified(g, v)
    assert isinstance(w.embedding, PureQuaternionTower)
    assert w.derivation[0].detail == "q_rank = 1, real_rank = 2"


def test_skew_tower_with_impure_ratio():
    # c = a3^{-1} a4 is not pure here, so the tower quartic has B != 0
    d = QuaternionAlgebra(2, 3)
    tail = (d.element(0, -2, 1, 1), d.element(0, -2, -1, 1))
    g = Unitary1(QuatForm(d, "skew_hermitian", tail, hyperbolic_count=1))
    w = _assert_verified(g, analyze(g))
    assert isinstance(w.embedding, PureQuaternionTower)
    assert w.embedding.k_cert.defining_poly[2] != 0


def test_random_skew_specs_end_in_a_verdict():
    """Seeded skew-hermitian specs with pure entries of coordinates in
    [-3, 3]: each ends verified not_minimal or unsupported."""
    rng = random.Random(1104)
    algebras = [QuaternionAlgebra(2, 3), QuaternionAlgebra(-1, -1), QuaternionAlgebra(-1, -3),
                QuaternionAlgebra(3, 5), QuaternionAlgebra(-2, 5)]
    outcomes = collections.Counter()
    while sum(outcomes.values()) < 40:
        d = rng.choice(algebras)
        tail = tuple(d.element(0, *(rng.randint(-3, 3) for _ in range(3))) for _ in range(2))
        if any(e.is_zero() for e in tail):
            continue
        g = Unitary1(QuatForm(d, "skew_hermitian", tail, hyperbolic_count=rng.choice([1, 2])))
        v = analyze(g)
        if isinstance(v, UnsupportedVerdict):
            outcomes["unsupported"] += 1
            continue
        _assert_verified(g, v)
        outcomes["not_minimal"] += 1
    assert outcomes["not_minimal"] >= 30, outcomes


FIRST_KIND_ALGEBRAS = [(-1, -1), (2, 3), (-1, 3), (-2, -5), (3, 5), (-1, -3), (2, 5), (1, 1), (-3, 7)]


def _first_kind_outcome(g):
    """analyze g, which may not raise; a not_minimal witness must verify,
    also after a round trip through its JSON."""
    v = analyze(g)
    if isinstance(v, NotMinimal):
        _assert_verified(g, v)
        back = serde.witness_from_doc(serde.witness_to_doc(v.witness))
        assert verify_witness(g, back).ok, g
    return type(v).__name__


def test_random_first_kind_forms_are_ranked_from_the_whole_form():
    """Seeded hermitian forms with 0-3 planes, isotropic tails and split
    algebras included, and skew pairs built isotropic as e1 = -conj(x) e2 x:
    q_rank is read from the whole form, never refused."""
    from almin import algebra as alg
    from almin.quadform import find_isotropic_vector, witt_index

    rng = random.Random(1601)
    tally = collections.Counter()
    for _ in range(60):
        d = QuaternionAlgebra(*rng.choice(FIRST_KIND_ALGEBRAS))
        cs = [rng.choice([-1, 1]) * rng.randint(1, 7) for _ in range(rng.randint(0, 3))]
        if cs and rng.random() < 0.3:
            cs.append(-cs[0])  # an isotropic tail
        hyp = rng.randint(0 if cs else 1, 3)
        g = Unitary1(QuatForm(d, "hermitian", tuple(d.element(c) for c in cs), hyp))
        qr = q_rank(g)
        assert qr <= real_rank(g)
        transfer = [x for c in cs for x in (c, -c * d.a, -c * d.b, c * d.a * d.b)]
        if alg.is_division(d):
            w = witt_index(QuadForm.diagonal(transfer)) if cs else 0
            assert w % 4 == 0 and qr == hyp + w // 4, (d, cs, hyp)
            planes = hyp
        else:
            assert qr == g.form.rank
            planes = 2 * hyp  # over M_2(Q) a plane has Witt index 2 in Sp
            tally["split"] += 1
        if qr > planes:
            v = find_isotropic_vector(QuadForm.diagonal(transfer))
            xs = [d.element(*v[4 * t : 4 * t + 4]) for t in range(len(cs))]
            value = sum((x.conj() * d.element(c) * x for c, x in zip(cs, xs)), d.element(0))
            assert value.is_zero() and not all(x.is_zero() for x in xs)
            tally["isotropic tail"] += 1
        tally[_first_kind_outcome(g)] += 1
    division = [ab for ab in FIRST_KIND_ALGEBRAS if alg.is_division(QuaternionAlgebra(*ab))]
    for _ in range(30):
        d = QuaternionAlgebra(*rng.choice(division))
        coords = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(2)]
        e2, x = d.element(0, *coords[0][1:]), d.element(*coords[1])
        if e2.is_zero() or x.is_zero():
            continue
        e1 = -(x.conj() * e2 * x)
        hyp = rng.randint(0, 2)
        g = Unitary1(QuatForm(d, "skew_hermitian", (e1, e2), hyp))
        assert q_rank(g) == hyp + 1 <= real_rank(g)
        tally["skew " + _first_kind_outcome(g)] += 1
    assert tally["isotropic tail"] >= 25 and tally["split"] >= 10, tally
    assert tally["NotMinimal"] >= 40 and tally["skew NotMinimal"] >= 15, tally


def test_isotropic_skew_tail_is_a_hyperbolic_plane():
    # x = (1 - i + j - k)/2 gives conj(x) j x = -i, so <i, j> is a second
    # hyperbolic plane and the split rank-2 subgroup applies
    d = QuaternionAlgebra(-1, -1)
    g = Unitary1(
        QuatForm(d, "skew_hermitian", (d.gen_i(), d.gen_j()), hyperbolic_count=1)
    )
    w = _assert_verified(g, analyze(g))
    assert isinstance(w.embedding, SplitSO5)
    assert w.derivation[0].detail == "q_rank = 2, real_rank = 2"


def test_undecided_skew_tail_is_unsupported():
    # <i, j, k> over (-1, -1) is isotropic, so its Q-rank is at least 2; a
    # rank-3 tail is undecided, and no spec field can declare it anisotropic
    d = QuaternionAlgebra(-1, -1)
    tail = (d.gen_i(), d.gen_j(), d.gen_k())
    g = Unitary1(QuatForm(d, "skew_hermitian", tail, hyperbolic_count=1))
    with pytest.raises(Unsupported, match="skew tail anisotropy undecided"):
        q_rank(g)
    v = analyze(g)
    assert isinstance(v, UnsupportedVerdict) and "undecided" in v.reason


def test_second_kind_rank2_descends_to_res_sl2():
    L = QuadraticField(17)
    d = QuaternionAlgebra(2, 3)
    g = Unitary2Quat(
        QuatSecondKindForm(L, d, d.one(), (), hyperbolic_count=1)
    )
    w = _assert_verified(g, analyze(g))
    assert isinstance(w.embedding, CompositumTower)
    assert isinstance(w.subgroup, ResSL2)


def test_second_kind_rank3_descends_to_res_su3():
    L = QuadraticField(17)
    d = QuaternionAlgebra(2, 3)
    g = Unitary2Quat(
        QuatSecondKindForm(L, d, d.one(), (d.element(1),), hyperbolic_count=1)
    )
    w = _assert_verified(g, analyze(g))
    assert isinstance(w.subgroup, ResSU3)


def test_second_kind_verdicts_under_a_nonpositive_involution():
    # M_2(Q) is split at infinity, so conj tensor conj is not a positive
    # involution; <sqrt(-1) ij, sqrt(-1) ij> is nevertheless definite
    L = QuadraticField(-1)
    d = QuaternionAlgebra(1, 1)
    zero = L.element(0)
    e = QuatElement(d, zero, zero, zero, L.sqrt_gen())
    v = analyze(Unitary2Quat(QuatSecondKindForm(L, d, d.one(), (e, e))))
    assert v == NotApplicable("real_rank = 0")
    # an entry of negative reduced norm over (2, 3) adds (1, 1), not (2, 2)
    L = QuadraticField(-2)
    d = QuaternionAlgebra(2, 3)
    s = L.sqrt_gen()
    g = Unitary2Quat(
        QuatSecondKindForm(L, d, d.one(), (QuatElement(d, L.element(-1), -s, -s, -s),), 1)
    )
    w = _assert_verified(g, analyze(g))
    assert w.derivation[0].detail == "q_rank = 1, real_rank = 2"
    back = serde.witness_from_doc(json.loads(json.dumps(serde.witness_to_doc(w))))
    assert verify_witness(g, back).ok


def test_res_sl2_with_real_quadratic_subfield_descends():
    v = analyze(ResSL2(field_cert([-2, 0, 0, 0, 1])))  # x^4 - 2 contains Q(sqrt2)
    w = _assert_verified(ResSL2(field_cert([-2, 0, 0, 0, 1])), v)
    assert isinstance(w.embedding, SubfieldRestriction)


def test_res_sl2_cubic_is_minimal():
    # x^3 - 2: the only proper subfield is Q, and the field has two
    # archimedean places, so the restriction of scalars is itself minimal
    cert = field_cert([-2, 0, 0, 1])
    v = analyze(ResSL2(cert))
    assert isinstance(v, Minimal) and v.matched_case == "iv"


def test_res_su3_with_real_quadratic_subfield_descends():
    k = QuadraticField(-1)
    l4 = field_cert([1, 0, 0, 0, 1])  # x^4 + 1 contains Q(sqrt 2)
    g = ResSU3(k, l4)
    w = _assert_verified(g, analyze(g))
    assert isinstance(w.embedding, SubfieldRestriction)


# ---------------------------------------------------------------------------
# Not-applicable and unsupported inputs


def test_low_rank_and_anisotropic_not_applicable():
    v = analyze(SpecialLinear(2))
    assert isinstance(v, NotApplicable) and "real_rank = 1" in v.reason
    v2 = analyze(Orthogonal(QuadForm.diagonal([1, 2, 3, 5, 7])))
    assert isinstance(v2, NotApplicable)
    v3 = analyze(ResSL2(quadratic_field_cert(-1)))
    assert isinstance(v3, NotApplicable)


def test_so4_real_rank_one_decided_without_search():
    # isotropic quaternary forms of negative discriminant; the conversion
    # check recomputes their Q-rank, which a bounded vector search reaches
    # only after seconds or not at all
    for gram in (
        [["-58", "20", "48", "-45"], ["20", "-10", "-20", "20"],
         ["48", "-20", "-44", "40"], ["-45", "20", "40", "-21"]],
        [["95", "52", "166", "-166"], ["52", "58", "76", "-92"],
         ["166", "76", "298", "-290"], ["-166", "-92", "-290", "290"]],
    ):
        v = analyze(serde.group_from_doc({"kind": "so", "gram": gram}))
        assert v == NotApplicable("real_rank = 1")


def test_square_discriminant_so4_not_applicable():
    v = analyze(Orthogonal(QuadForm.diagonal([1, -1, 1, -1])))
    assert isinstance(v, NotApplicable)
    assert "not almost simple" in v.reason


def test_anisotropic_so4_unsupported():
    v = analyze(Orthogonal(QuadForm.diagonal([1, 1, 1, 2])))
    assert isinstance(v, UnsupportedVerdict)


def test_anisotropic_rank2_skew_unsupported():
    # over a division algebra a rank-2 skew form of nonsquare discriminant is
    # anisotropic, so it is not Res SL2 over its discriminant field (which
    # analyze once took it for, calling the group minimal)
    d = QuaternionAlgebra(-5, 3)
    g = Unitary1(
        QuatForm(d, "skew_hermitian", (d.element(0, -2, 0, -2), d.element(0, 1, 1, 1)))
    )
    v = analyze(g)
    assert isinstance(v, UnsupportedVerdict)
    assert "nonsplit quaternion algebra" in v.reason


def test_conditional_verdicts_are_flagged():
    """No verdict is conditional any more: the former conditional ones are
    decided, or unsupported."""
    from almin import polys
    from almin.numfield import NumberFieldCert, quadratic_subfields_of_quartic

    d = QuaternionAlgebra(-1, -1)
    g = Unitary1(
        QuatForm(d, "skew_hermitian", (d.gen_i(), d.gen_j() + d.gen_k()), hyperbolic_count=1)
    )
    assert isinstance(analyze(g), NotMinimal)
    # x^4 - 2 with an empty subfield list: the resolvent cubic finds Q(sqrt 2)
    x4m2 = ResSL2(NumberFieldCert(polys.poly([-2, 0, 0, 0, 1]), 4, (2, 1)))
    w = _assert_verified(x4m2, analyze(x4m2))
    assert w.subgroup.field.defining_poly == polys.poly([-2, 0, 1])
    # Q(sqrt 2, i) listing only its imaginary quadratic subfields
    f = [9, 0, -2, 0, 1]  # minimal polynomial of sqrt 2 + i
    subs = quadratic_subfields_of_quartic(f)
    assert sorted(subs) == [-2, -1, 2]
    g2 = ResSL2(field_cert(f, subfields=(subs[-1], subs[-2])))
    assert not g2.field.subfields_complete
    w2 = _assert_verified(g2, analyze(g2))
    assert w2.subgroup.field.defining_poly == polys.poly([-2, 0, 1])
    # x^6 + 108 contains the real cubic Q(2^(1/3)) (x^2 = -3 * 2^(2/3)); no
    # subfield of a sextic is computed, so the verdict is unsupported
    v = analyze(ResSL2(field_cert([108, 0, 0, 0, 0, 0, 1])))
    assert isinstance(v, UnsupportedVerdict) and "degree-6" in v.reason


# ---------------------------------------------------------------------------
# Fault injection: corrupted witnesses must be rejected with the exact reason


def test_square_a_fault_rejected():
    g = Symplectic(2)
    v = analyze(g)
    assert isinstance(v, NotMinimal)
    emb = v.witness.embedding
    assert isinstance(emb, SplitSO5)
    bad_emb = replace(
        emb,
        a_value=Fraction(4),
        form_coeffs=emb.form_coeffs[:4] + (Fraction(4),),
    )
    bad = replace(v.witness, embedding=bad_emb)
    report = verify_witness(g, bad)
    assert not report.ok
    msgs = [c.detail for c in report.failures] + [c.name for c in report.failures]
    assert any(
        "a is a rational square => subgroup not almost simple" in m for m in msgs
    )


def test_quaternary_square_a_fault_rejected():
    g = Orthogonal(QuadForm.diagonal([1, -1, -1, 3, 5]))
    v = analyze(g)
    emb = v.witness.embedding
    # scale the represented value by a square-killing corruption: claim a = 9
    bad_emb = replace(emb, a_value=Fraction(9))
    bad = replace(v.witness, embedding=bad_emb)
    report = verify_witness(g, bad)
    assert not report.ok


@pytest.mark.parametrize(
    "c, failures",
    [(12, []), (27, []), (6, ["conversion field matches the witness field"])],
)
def test_witness_field_is_named_by_any_member_of_its_class(c, failures):
    # so_1m1m135 descends to Q(sqrt(3)), which x^2 - 12 and x^2 - 27 also
    # certify; x^2 - 6 certifies another field
    expected = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "expected"
    doc = json.loads((expected / "so_1m1m135.json").read_text())
    w = serde.witness_from_doc(doc["witness"])
    w = replace(w, subgroup=ResSL2(quadratic_field_cert(c)))
    report = verify_witness(serde.group_from_doc(doc["input"]), w)
    assert [f.name for f in report.failures] == failures


def test_imaginary_field_fault_rejected():
    # a witness claiming descent to an imaginary quadratic SL2 restriction
    # must be rejected: such restrictions have real rank 1, and Q(i) is not
    # the certified subfield Q(sqrt 2)
    cert = field_cert([-2, 0, 0, 0, 1])  # x^4 - 2
    g = ResSL2(cert)
    v = analyze(g)
    w = v.witness
    bad_sub = ResSL2(quadratic_field_cert(-1))
    bad = replace(w, subgroup=bad_sub)
    report = verify_witness(g, bad)
    assert not report.ok
    assert [c.name for c in report.failures] == ["witness field matches the certificate"]


def test_wrong_subgroup_shape_rejected():
    g = SpecialLinear(4)
    v = analyze(g)
    bad = replace(v.witness, subgroup=SpecialLinear(2))
    report = verify_witness(g, bad)
    assert not report.ok


BUILDERS = {
    "represent_constrained",
    "find_isotropic_vector",
    "find_splitting_quadratic",
    "skew_restriction",
    "split_hyperbolic_plane",
}
RANK_ENGINE = {
    "is_isotropic",
    "witt_index",
    "witt_decompose",
    "find_isotropic_vector",
    "real_rank",
    "is_absolutely_almost_simple",
}


def test_verifier_names_no_builder():
    """verify.py imports nothing from minimal, and every function of it that
    verify_witness can reach names no witness builder, no isotropy or
    Witt-index computation, and no real-rank or almost-simplicity test, so
    the verifier shares no construction code and never re-ranks a witness."""
    import ast

    from almin import verify

    tree = ast.parse(pathlib.Path(verify.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(part for a in node.names for part in a.name.split("."))
    assert "minimal" not in imported
    funcs = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr

    reached, todo = set(), ["verify_witness"]
    while todo:
        f = todo.pop()
        if f in reached:
            continue
        reached.add(f)
        todo.extend(n for n in names(funcs[f]) if n in funcs)
    assert {"_verify_subform", "_verify_quaternary", "_verify_split_so5"} <= reached
    forbidden = BUILDERS | RANK_ENGINE
    bad = {
        (f, n)
        for f in reached
        for n in names(funcs[f])
        if n in forbidden or (n.startswith("_") and n.endswith("_witness"))
    }
    assert not bad, sorted(bad)


def test_quaternary_isotropy_is_read_from_the_first_basis_pair():
    """The so6 subform <1,-1,-1,3> reordered to (e1, e4, e2, e3) is still
    isotropic, but its first pair <1, 3> is not hyperbolic, so the witness
    breaks the convention the verifier reads isotropy from."""
    g = Orthogonal(QuadForm.diagonal([1, -1, -1, 3, 5, 7]))
    w = analyze(g).witness
    b = w.embedding.basis
    assert [g.form.value(v) for v in b] == [1, -1, -1, 3]
    bad_emb = replace(w.embedding, basis=(b[0], b[3], b[1], b[2]))
    report = verify_witness(g, replace(w, embedding=bad_emb))
    assert [c.name for c in report.failures] == ["restricted subform isotropic over Q"]


def test_split_so5_reads_splitness_from_the_witness_form():
    """<1, 1, -1, -1, a> is not the split form <1,-1,-1,1,a>, and the shape
    check alone rejects it: once the shape holds with a > 0, both pairs are
    hyperbolic, so no separate splitness check is needed."""
    g = Symplectic(2)
    w = analyze(g).witness
    a = w.embedding.a_value
    coeffs = tuple(map(Fraction, (1, 1, -1, -1))) + (a,)
    bad_emb = replace(w.embedding, form_coeffs=coeffs)
    report = verify_witness(g, replace(w, embedding=bad_emb))
    assert [c.name for c in report.failures] == ["form is <1,-1,-1,1,a>"]
