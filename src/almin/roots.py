"""Exact root-system combinatorics in fixed integer realizations.

Bourbaki bases are hard-coded per type; realizations that would need
half-integers (F4, E6/E7/E8) are scaled by 2 so every root is an integer
vector and every inner product an integer.  The subsystem generated by a
root subset is the orbit of its members under the reflections in them, its
type is identified by matching Cartan matrices node by node, and
simple-connectedness of the corresponding standard subgroup is decided by
the long-root span criterion, with span membership read from integer
normals to the span.  Heights are the values of one linear functional.
Both eliminations, the normals and the height functional, are linalg.rref,
which works on integer rows; every other step is integer arithmetic.
"""

from __future__ import annotations

import itertools
from operator import mul
from typing import Iterable, Sequence

from .linalg import primitive, rref
from .value import Value

Vec = tuple[int, ...]


class Reducible(ValueError):
    pass


class NotARoot(ValueError):
    pass


def _dot(u: Vec, v: Vec) -> int:
    return sum(map(mul, u, v))


def _add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def _reflect(beta: Vec, alpha: Vec) -> Vec:
    """beta - 2 (beta, alpha) / (alpha, alpha) alpha; beta itself when the
    two are orthogonal."""
    num = 2 * _dot(beta, alpha)
    if not num:
        return beta
    den = _dot(alpha, alpha)
    assert num % den == 0, "reflection left the lattice"
    c = num // den
    return tuple(b - c * a for b, a in zip(beta, alpha))


class RootSystem(Value):
    type_tag: str
    roots: frozenset[Vec]
    base: tuple[Vec, ...]

    @property
    def rank(self) -> int:
        return len(self.base)


def _lex_positive(v: Vec) -> bool:
    for x in v:
        if x != 0:
            return x > 0
    return False


def _generate(base: Sequence[Vec]) -> frozenset[Vec]:
    """The orbit of the +-base vectors under the reflections in the base
    vectors: for a base, the full root system."""
    roots = set(base) | {_neg(b) for b in base}
    frontier = list(roots)
    while frontier:
        nxt = []
        for r in frontier:
            for s in base:
                img = _reflect(r, s)
                if img not in roots:
                    roots.add(img)
                    nxt.append(img)
        frontier = nxt
    return frozenset(roots)


def _e(i: int, n: int, c: int = 1) -> Vec:
    return tuple(c if j == i else 0 for j in range(n))


def _base_for(type_tag: str) -> tuple[Vec, ...]:
    fam, num = type_tag[0], type_tag[1:]
    n = int(num)
    if fam == "A":
        dim = n + 1
        return tuple(_add(_e(i, dim), _e(i + 1, dim, -1)) for i in range(n))
    if fam == "B":
        return tuple(
            [_add(_e(i, n), _e(i + 1, n, -1)) for i in range(n - 1)] + [_e(n - 1, n)]
        )
    if fam == "C":
        return tuple(
            [_add(_e(i, n), _e(i + 1, n, -1)) for i in range(n - 1)]
            + [_e(n - 1, n, 2)]
        )
    if fam == "D":
        return tuple(
            [_add(_e(i, n), _e(i + 1, n, -1)) for i in range(n - 1)]
            + [_add(_e(n - 2, n), _e(n - 1, n))]
        )
    if type_tag == "G2":
        return ((1, -1, 0), (-2, 1, 1))
    if type_tag == "F4":
        # Bourbaki realization scaled by 2
        return (
            (0, 2, -2, 0),
            (0, 0, 2, -2),
            (0, 0, 0, 2),
            (1, -1, -1, -1),
        )
    if type_tag in ("E6", "E7", "E8"):
        # Bourbaki E8 simple roots scaled by 2, restricted to the first rank
        e8 = (
            (1, -1, -1, -1, -1, -1, -1, 1),
            (2, 2, 0, 0, 0, 0, 0, 0),
            (-2, 2, 0, 0, 0, 0, 0, 0),
            (0, -2, 2, 0, 0, 0, 0, 0),
            (0, 0, -2, 2, 0, 0, 0, 0),
            (0, 0, 0, -2, 2, 0, 0, 0),
            (0, 0, 0, 0, -2, 2, 0, 0),
            (0, 0, 0, 0, 0, -2, 2, 0),
        )
        return e8[: int(type_tag[1])]
    raise ValueError(f"unknown type {type_tag!r}")


_EXPECTED_COUNTS = {"F4": 48, "E6": 72, "E7": 126, "E8": 240, "G2": 12}


def root_system(type_tag: str) -> RootSystem:
    base = _base_for(type_tag)
    roots = _generate(base)
    fam, rest = type_tag[0], type_tag[1:]
    n = int(rest)
    expected = _EXPECTED_COUNTS.get(
        type_tag,
        {
            "A": n * (n + 1),
            "B": 2 * n * n,
            "C": 2 * n * n,
            "D": 2 * n * (n - 1),
        }.get(fam),
    )
    assert expected is None or len(roots) == expected, (type_tag, len(roots))
    return RootSystem(type_tag, roots, base)


def from_base_coeffs(sys: RootSystem, coeffs: Sequence[int]) -> Vec:
    """The vector sum coeffs[i] * base[i]."""
    dim = len(sys.base[0])
    out = [0] * dim
    for c, b in zip(coeffs, sys.base):
        for i in range(dim):
            out[i] += c * b[i]
    return tuple(out)


class RootSubset(Value):
    system: RootSystem
    generators: frozenset[Vec]

    def __post_init__(self):
        for g in self.generators:
            if g not in self.system.roots:
                raise NotARoot(f"{g} is not a root of the ambient system")


class Subsystem(Value):
    """A closed subsystem with an identified type decomposition."""

    ambient: RootSystem
    roots: frozenset[Vec]
    base: tuple[Vec, ...]
    components: tuple[str, ...]  # type tags of the irreducible components

    @property
    def type_string(self) -> str:
        return "+".join(sorted(self.components)) if self.components else "0"


def closed_subsystem(s: RootSubset) -> Subsystem:
    """Smallest subsystem of the ambient system containing +-generators,
    with a chosen base and an identified type decomposition.

    That is the closure under the reflections it contains, and it equals
    the orbit of the +-generators under the group W(S) generated by the
    reflections in the generators alone: for x = w(g) with w in W(S), the
    reflection s_x = w s_g w^-1 lies in W(S), so the orbit is closed under
    its own reflections (Humphreys, Reflection Groups and Coxeter Groups,
    1.2; Bourbaki, Lie VI 1.1), and every closed set holding the
    generators holds the orbit."""
    roots = _generate(tuple(s.generators))
    base = _base_of(roots)
    return Subsystem(s.system, roots, base, _identify_components(base))


def _base_of(roots: Iterable[Vec]) -> tuple[Vec, ...]:
    pos = sorted(r for r in roots if _lex_positive(r))
    posset = set(pos)
    simple = []
    for r in pos:
        decomposable = any(
            tuple(r[i] - q[i] for i in range(len(r))) in posset for q in pos if q != r
        )
        if not decomposable:
            simple.append(r)
    return tuple(simple)


def _cartan_matrix(base: Sequence[Vec]) -> tuple[tuple[int, ...], ...]:
    out = []
    for b in base:
        row = []
        for c in base:
            num = 2 * _dot(b, c)
            den = _dot(c, c)
            assert num % den == 0
            row.append(num // den)
        out.append(tuple(row))
    return tuple(out)


def _dynkin_components(base: Sequence[Vec]) -> list[list[int]]:
    """The connected components of the Dynkin graph, as sorted index lists:
    two base vectors are joined iff they are not orthogonal."""
    n = len(base)
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        stack, comp = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in range(n):
                if not seen[w] and _dot(base[v], base[w]) != 0:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def _identify_components(base: Sequence[Vec]) -> tuple[str, ...]:
    return tuple(
        _identify_irreducible([base[i] for i in comp])
        for comp in _dynkin_components(base)
    )


def _candidate_tags(k: int) -> list[str]:
    tags = [f"A{k}"]
    if k >= 2:
        tags += [f"B{k}", f"C{k}", "G2" if k == 2 else None]
    if k >= 3:
        tags.append(f"D{k}" if k >= 4 else None)
        if k == 4:
            tags.append("F4")
    if k in (6, 7, 8):
        tags.append(f"E{k}")
    return [t for t in tags if t]


def _identify_irreducible(base: list[Vec]) -> str:
    """The first candidate tag whose Cartan matrix equals the base's up to
    a reordering of the nodes, found depth first: reference node i is
    given a base node whose Cartan entries with the nodes already given
    match the reference's."""
    k = len(base)
    cart = _cartan_matrix(base)

    def extend(ref, perm: list[int]) -> bool:
        i = len(perm)
        if i == k:
            return True
        for p in range(k):
            if p not in perm and all(
                cart[p][q] == ref[i][j] and cart[q][p] == ref[j][i]
                for j, q in enumerate(perm)
            ):
                perm.append(p)
                if extend(ref, perm):
                    return True
                perm.pop()
        return False

    for tag in _candidate_tags(k):
        if extend(_cartan_matrix(_base_for(tag)), []):
            return tag
    raise AssertionError("unidentifiable Cartan matrix (not a root base?)")


def is_simply_connected_subgroup(sub: Subsystem) -> bool:
    """The standard subgroup of a closed subsystem (in a simply connected
    ambient group) is simply connected iff every long root of the ambient
    system lying in the rational span of the subsystem belongs to it.  A
    vector lies in that span iff it is orthogonal to every integer normal
    read from one elimination of the subsystem's base."""
    if not sub.roots:
        return True
    ambient = sub.ambient.roots
    longest = max(_dot(r, r) for r in ambient)
    normals = _normals(sub.base)
    return not any(
        _dot(r, r) == longest
        and r not in sub.roots
        and all(_dot(r, n) == 0 for n in normals)
        for r in ambient
    )


def _normals(vectors: Sequence[Vec]) -> list[Vec]:
    """Primitive integer vectors spanning the orthogonal complement of the
    vectors' span: one per free column of the vectors' reduced form."""
    dim = len(vectors[0])
    rows, pivots = rref(vectors)
    out = []
    for f in sorted(set(range(dim)) - set(pivots)):
        v = [0] * dim
        v[f] = 1
        for row, c in zip(rows, pivots):
            v[c] = -row[f]
        out.append(tuple(map(int, primitive(v))))
    return out


def highest_root(sys: RootSystem) -> Vec:
    """The root of greatest height in an irreducible system.

    Height is linear, ht(r) = (r, w) for the w in the span of the base with
    (alpha_i, w) = 1 for every simple root, so w = sum y_i alpha_i with
    Gram * y = 1, solved by one elimination.  The y_i are positive (the
    inverse Gram of a connected Dynkin graph is entrywise positive), so the
    primitive integer multiple of w orders the roots by height, and in an
    irreducible system the greatest height is reached by one root only."""
    base = sys.base
    if len(_dynkin_components(base)) != 1:
        raise Reducible("highest root needs an irreducible system")
    rows, _ = rref([[_dot(a, b) for b in base] + [1] for a in base])
    w = from_base_coeffs(sys, [int(y) for y in primitive([row[-1] for row in rows])])
    return max((_dot(r, w), r) for r in sys.roots)[1]


def minimal_root(sys: RootSystem) -> Vec:
    """The negative of the highest root."""
    return _neg(highest_root(sys))


# --------------------------------------------------------------------------
# The hard-coded verification suites


class CheckResult(Value):
    name: str
    passed: bool
    detail: str


def triality_orbit_check() -> list[CheckResult]:
    """On D4: the four positive roots fixed (as a set) by the outer
    S3-action are pairwise orthogonal, and all 24 signed-permutation cases
    of the action send alpha_2 into the set."""
    d4 = root_system("D4")
    a1, a2, a3, a4 = d4.base
    phi_plus = (
        a2,
        _add(_add(a2, a1), a3),
        _add(_add(a2, a1), a4),
        _add(_add(a2, a3), a4),
    )
    out: list[CheckResult] = []
    for u, v in itertools.combinations(phi_plus, 2):
        out.append(
            CheckResult(
                f"orthogonal {u} . {v}",
                _dot(u, v) == 0,
                f"pairing = {_dot(u, v)}",
            )
        )
    outer = {1: a1, 3: a3, 4: a4}
    labels = (1, 3, 4)
    case_no = 0
    orbit = set()
    for sigma in itertools.permutations(labels):
        perm = dict(zip(labels, sigma))  # sigma as a map on labels
        inv = {v: k for k, v in perm.items()}
        for eps in itertools.product((0, 1), repeat=3):
            if sum(eps) % 2:
                continue
            case_no += 1
            eps_of = dict(zip(labels, eps))
            img = a2
            for i in labels:
                if eps_of[inv[i]]:
                    img = _add(img, outer[i])
            ok = img in phi_plus
            orbit.add(img)
            out.append(
                CheckResult(
                    f"case {case_no}: sigma={sigma} eps={eps}",
                    ok,
                    f"image {img}",
                )
            )
    out.append(
        CheckResult(
            "orbit equals the four-element set",
            orbit == set(phi_plus),
            f"orbit size {len(orbit)}",
        )
    )
    return out


def triality_fixed_subgroup_not_simply_connected() -> CheckResult:
    d4 = root_system("D4")
    a1, a2, a3, a4 = d4.base
    gens = frozenset(
        {
            a2,
            _add(_add(a2, a1), a3),
            _add(_add(a2, a1), a4),
            _add(_add(a2, a3), a4),
        }
    )
    sc = is_simply_connected_subgroup(closed_subsystem(RootSubset(d4, gens)))
    return CheckResult(
        "triality-fixed rank-4 subgroup is not simply connected",
        sc is False,
        f"is_simply_connected_subgroup = {sc}",
    )


def f4_c3_check() -> list[CheckResult]:
    f4 = root_system("F4")
    a1, a2, a3, a4 = f4.base
    gen3 = _add(a1, _add(_add(a2, a2), _add(a3, a3)))  # a1 + 2a2 + 2a3
    sub = closed_subsystem(RootSubset(f4, frozenset({a3, a4, gen3})))
    sc = is_simply_connected_subgroup(sub)
    hr = highest_root(f4)
    want_hr = from_base_coeffs(f4, [2, 3, 4, 2])
    return [
        CheckResult("F4 subsystem type", sub.type_string == "C3", sub.type_string),
        CheckResult("F4 subsystem size", len(sub.roots) == 18, str(len(sub.roots))),
        CheckResult("F4 subsystem simply connected", sc, str(sc)),
        CheckResult(
            "F4 highest root = 2a1+3a2+4a3+2a4", hr == want_hr, f"{hr} vs {want_hr}"
        ),
    ]


def verify_e6_identities() -> list[CheckResult]:
    e6 = root_system("E6")
    a = e6.base  # a[0] = alpha_1, ..., a[5] = alpha_6
    b1 = from_base_coeffs(e6, [1, 0, 1, 1, 0, 0])
    b3 = from_base_coeffs(e6, [0, 0, 1, 1, 1, 0])
    b4 = from_base_coeffs(e6, [0, 0, 0, 1, 1, 1])
    mu = minimal_root(e6)
    want_mu = _neg(from_base_coeffs(e6, [1, 2, 2, 3, 2, 1]))
    lhs = _neg(mu)
    rhs = _add(_add(from_base_coeffs(e6, [0, 2, 0, 0, 0, 0]), b1), _add(b3, b4))
    out = [
        CheckResult("E6 minimal root", mu == want_mu, f"{mu} vs {want_mu}"),
        CheckResult("-mu = 2a2 + b1 + b3 + b4", lhs == rhs, f"{lhs} vs {rhs}"),
    ]
    d4gens = frozenset({b1, b3, b4, a[1]})
    d4sub = closed_subsystem(RootSubset(e6, d4gens))
    out.append(CheckResult("beta subsystem type", d4sub.type_string == "D4", d4sub.type_string))
    out.append(CheckResult("beta subsystem size", len(d4sub.roots) == 24, str(len(d4sub.roots))))
    out.append(
        CheckResult(
            "beta subsystem contains the minimal root",
            mu in d4sub.roots and _neg(mu) in d4sub.roots,
            "",
        )
    )
    a5gens = frozenset(
        {a[2], a[0], from_base_coeffs(e6, [0, 1, 1, 2, 1, 0]), a[5], a[4]}
    )
    a5sub = closed_subsystem(RootSubset(e6, a5gens))
    a5sc = is_simply_connected_subgroup(a5sub)
    out.append(CheckResult("A5 subsystem type", a5sub.type_string == "A5", a5sub.type_string))
    out.append(CheckResult("A5 subsystem size", len(a5sub.roots) == 30, str(len(a5sub.roots))))
    out.append(CheckResult("A5 subsystem simply connected", a5sc, str(a5sc)))
    return out


def full_report() -> list[CheckResult]:
    out = []
    out.extend(triality_orbit_check())
    out.append(triality_fixed_subgroup_not_simply_connected())
    out.extend(f4_c3_check())
    out.extend(verify_e6_identities())
    return out
