"""linalg.rref and linalg.primitive, and the quadform, algebra and roots
functions built on them, against the separate eliminations they replaced.
Those are kept below as references, as they were, and run on seeded random
rational matrices, rank-deficient ones included.  The roots closure and type
match are also checked against the searches they replaced, on seeded random
generator sets."""

import itertools
import math
import random
from fractions import Fraction

from almin import quadform, roots
from almin.algebra import QuaternionAlgebra, common_orthogonal_pure
from almin.linalg import primitive, rref
from almin.roots import RootSubset

# --------------------------------------------------------------------------
# The former eliminations


def _old_rref(rows):
    """The Gauss-Jordan elimination over Fractions that linalg.rref was:
    each pivot row divided by its pivot as it is chosen."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr = m[r][c]
        m[r] = [x / pr for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def _old_rank(rows):
    m = [row[:] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                fct = m[r][col] / m[rank][col]
                for c in range(cols):
                    m[r][c] -= fct * m[rank][c]
        rank += 1
    return rank


def _old_independent_subset(vectors, k):
    chosen, rows = [], []
    for v in vectors:
        cand = rows + [list(v)]
        if _old_rank(cand) == len(cand):
            chosen.append(v)
            rows = cand
            if len(chosen) == k:
                return chosen
    return chosen


def _old_scale_primitive(v):
    den = 1
    for x in v:
        den = den * x.denominator // math.gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    ints = [x // g for x in ints]
    first = next(x for x in ints if x != 0)
    if first < 0:
        ints = [-x for x in ints]
    return tuple(Fraction(x) for x in ints)


def _old_kernel_first_vector(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pr = m[r][c]
        m[r] = [x / pr for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(ncols) if c not in pivots]
    fc = free[0]
    v = [Fraction(0)] * ncols
    v[fc] = Fraction(1)
    for i, pc in enumerate(pivots):
        v[pc] = -m[i][fc]
    return _old_scale_primitive(v)


def _old_in_span(span_rows, v):
    rows = [row[:] for row in span_rows]
    target = list(map(Fraction, v))
    cols = len(target)
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pr = rows[rank][c]
        rows[rank] = [x / pr for x in rows[rank]]
        if target[c] != 0:
            target = [x - target[c] * y for x, y in zip(target, rows[rank])]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    for c in range(cols):
        if target[c] != 0:
            piv = next(
                (
                    r
                    for r in range(len(rows))
                    if rows[r][c] != 0 and all(rows[r][cc] == 0 for cc in range(c))
                ),
                None,
            )
            if piv is None:
                return False
            f = target[c] / rows[piv][c]
            target = [x - f * y for x, y in zip(target, rows[piv])]
    return all(x == 0 for x in target)


def _old_simple_combination(base, root):
    """As before, but None in place of raising NotARoot."""
    cols = len(base)
    dim = len(root)
    m = [[Fraction(base[j][i]) for j in range(cols)] + [Fraction(root[i])] for i in range(dim)]
    rank = 0
    pivots = []
    for c in range(cols):
        piv = next((r for r in range(rank, dim) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank][c]
        m[rank] = [x / pr for x in m[rank]]
        for r in range(dim):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        pivots.append(c)
        rank += 1
    for r in range(rank, dim):
        if m[r][cols] != 0:
            return None
    out = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        out[c] = m[r][cols]
    return tuple(out)


# --------------------------------------------------------------------------
# The former root-system searches


def _old_closure(generators):
    """The closure of +-generators under the reflections in every member,
    reflecting all pairs each round."""
    found = set(generators) | {roots._neg(g) for g in generators}
    frontier = list(found)
    while frontier:
        nxt = []
        for x in sorted(found):
            for g in list(found):
                img = roots._reflect(x, g)
                if img not in found:
                    found.add(img)
                    nxt.append(img)
        frontier = nxt
    return found


def _old_identify_irreducible(base):
    """The first candidate tag whose Cartan matrix matches the base's under
    one of the k! orderings of the base, trying each in turn."""
    k = len(base)
    cart = roots._cartan_matrix(base)
    for tag in roots._candidate_tags(k):
        ref = roots._cartan_matrix(roots._base_for(tag))
        for perm in itertools.permutations(range(k)):
            if all(cart[perm[i]][perm[j]] == ref[i][j] for i in range(k) for j in range(k)):
                return tag
    raise AssertionError("unidentifiable Cartan matrix")


def _old_components(base):
    """The type decomposition: Dynkin components by nonzero Cartan entries,
    each typed by the ordering scan."""
    n = len(base)
    cart = roots._cartan_matrix(base)
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
                if not seen[w] and cart[v][w] != 0 and v != w:
                    seen[w] = True
                    stack.append(w)
        comps.append(sorted(comp))
    return tuple(_old_identify_irreducible([base[i] for i in comp]) for comp in comps)


# --------------------------------------------------------------------------
# Coordinates in a base, read from one elimination


def coordinates(base, vectors):
    """The coordinates of each vector in the base, or None for a vector
    outside its span, from one elimination of the base augmented by all the
    vectors: a column lies in the span of the base columns iff it vanishes
    in every row whose pivot is not a base column, and then its entries in
    the other rows are its coordinates on the pivot base columns."""
    k = len(base)
    rows, pivots = rref(list(zip(*base, *vectors)))
    r = sum(1 for c in pivots if c < k)
    out = []
    for j in range(k, k + len(vectors)):
        if any(row[j] for row in rows[r:]):
            out.append(None)
            continue
        coords = [Fraction(0)] * k
        for row, c in zip(rows, pivots[:r]):
            coords[c] = row[j]
        out.append(tuple(coords))
    return out


# --------------------------------------------------------------------------
# Seeded random rational matrices


def _q(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _matrix(rng, n, m):
    """An n x m rational matrix of rank at most r, r drawn from 0..min(n, m):
    the product of random n x r and r x m matrices."""
    r = rng.randint(0, min(n, m))
    left = [[_q(rng) for _ in range(r)] for _ in range(n)]
    right = [[_q(rng) for _ in range(m)] for _ in range(r)]
    return [
        [sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def _draws(seed, count=300):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, _matrix(rng, rng.randint(1, 5), rng.randint(1, 5))


def _assert_same_rref(m):
    rows, pivots = rref(m)
    old_rows, old_pivots = _old_rref(m)
    assert pivots == old_pivots
    assert len(rows) == len(old_rows)
    for row, old_row, c in zip(rows, old_rows, pivots):
        assert all(type(x) is Fraction for x in row)
        assert row == old_row
        # 0 left of the pivot, 1 on it
        assert not any(row[:c]) and row[c] == 1


def _mixed_rows(rng):
    """A matrix of ints and Fractions with denominators up to 12, with zero
    entries and whole zero rows."""
    k = rng.randint(1, 6)

    def entry():
        x = rng.randint(-9, 9) if rng.random() < 0.6 else 0
        return Fraction(x, rng.randint(1, 12)) if rng.random() < 0.5 else x

    return [
        [entry() for _ in range(k)] if rng.random() < 0.8 else [0] * k
        for _ in range(rng.randint(1, 6))
    ]


def test_rref_matches_the_fraction_elimination_entry_for_entry():
    for _, m in _draws(8):
        _assert_same_rref(m)
    rng = random.Random(9)
    for _ in range(500):
        _assert_same_rref(_mixed_rows(rng))
    _assert_same_rref([[0, 0], [0, 0]])
    assert rref([]) == ([], [])


def test_rref_rank_and_row_space_match_the_old_elimination():
    deficient = 0
    for _, m in _draws(1):
        rows, pivots = rref(m)
        rank = _old_rank(m)
        deficient += rank < min(len(m), len(m[0]))
        assert len(rows) == len(pivots) == rank
        assert pivots == sorted(set(pivots))
        for i, row in enumerate(rows):
            assert [r[pivots[i]] for r in rows] == [int(k == i) for k in range(rank)]
        # same row space: adding the reduced rows raises no rank
        assert _old_rank(m + rows) == rank
    assert deficient > 50


def test_independent_subset_matches_the_rank_per_candidate_loop():
    # split_hyperbolic_plane asks for k >= 1 vectors from a list of rank k
    for rng, m in _draws(2):
        vectors = [tuple(row) for row in m]
        k = rng.randint(1, len(m[0]))
        assert quadform._independent_subset(vectors, k) == _old_independent_subset(vectors, k)


def test_primitive_matches_scale_primitive():
    rng = random.Random(3)
    for _ in range(500):
        v = [_q(rng) * rng.choice((0, 1, 7)) for _ in range(rng.randint(1, 6))]
        if not any(v):
            continue
        assert primitive(v) == _old_scale_primitive(v)


def test_common_orthogonal_pure_matches_the_old_kernel_vector():
    rng = random.Random(4)
    for _ in range(300):
        a, b = (Fraction(rng.choice((-7, -3, -1, 2, 3, 5)), rng.randint(1, 3)) for _ in range(2))
        alg = QuaternionAlgebra(a, b)
        p = alg.element(0, *(_q(rng) for _ in range(3)))
        # rank-deficient: q a multiple of p
        q = p * _q(rng) if rng.random() < 0.3 else alg.element(0, *(_q(rng) for _ in range(3)))
        if p.is_zero() or q.is_zero():
            continue
        rows = [[a * e.x, b * e.y, -a * b * e.z] for e in (p, q)]
        alpha = common_orthogonal_pure(p, q)
        assert (alpha.x, alpha.y, alpha.z) == _old_kernel_first_vector(rows)


def test_coordinates_match_the_old_span_test_and_solve():
    for rng, m in _draws(5):
        base = [tuple(row) for row in m]
        dim = len(m[0])
        # half the vectors lie in the span of the base
        vectors = [
            tuple(
                sum((c * row[j] for c, row in zip(cs, base)), Fraction(0))
                for j in range(dim)
            )
            if rng.random() < 0.5
            else tuple(_q(rng) for _ in range(dim))
            for cs in ([_q(rng) for _ in base] for _ in range(4))
        ]
        span = [list(row) for row in base]
        together = coordinates(base, vectors)
        for v, coords in zip(vectors, together):
            assert coords == coordinates(base, [v])[0]
            assert (coords is not None) == _old_in_span(span, v)
            assert coords == _old_simple_combination(base, v)


TAGS = (
    "A1", "A2", "A3", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "D6", "G2", "F4",
    "E6", "E7", "E8",
)


def test_identify_components_names_every_tag():
    for tag in TAGS:
        base = roots.root_system(tag).base
        assert roots._identify_components(base) == (tag,) == _old_components(base)
        # a reordered base is the same type
        assert roots._identify_components(base[::-1]) == (tag,)


def test_highest_root_matches_one_solve_per_root():
    for tag in TAGS:
        sys = roots.root_system(tag)
        best = None
        for r in sys.roots:
            h = sum(_old_simple_combination(sys.base, r))
            if best is None or h > best[0]:
                best = (h, r)
        assert roots.highest_root(sys) == best[1], tag


SUBSET_TYPES = ("A3", "B3", "C3", "D4", "G2", "F4", "B4", "D5", "E6")


def _subsets(seed, count):
    """Seeded random sets of 1-4 roots of the ambient types above."""
    rng = random.Random(seed)
    for _ in range(count):
        sys = roots.root_system(rng.choice(SUBSET_TYPES))
        yield sys, frozenset(rng.sample(sorted(sys.roots), rng.randint(1, 4)))


def test_closed_subsystem_matches_the_all_pairs_closure():
    for sys, gens in _subsets(7, 300):
        sub = roots.closed_subsystem(RootSubset(sys, gens))
        want = _old_closure(gens)
        assert sub.roots == want
        assert sub.base == roots._base_of(want)
        assert sub.components == _old_components(sub.base)


def test_simply_connected_matches_one_span_test_per_long_root():
    outcomes = []
    for sys, gens in _subsets(6, 300):
        sub = roots.closed_subsystem(RootSubset(sys, gens))
        longest = max(roots._dot(r, r) for r in sys.roots)
        span = [list(map(Fraction, v)) for v in sub.base]
        want = not any(
            _old_in_span(span, r)
            for r in sys.roots
            if roots._dot(r, r) == longest and r not in sub.roots
        )
        assert roots.is_simply_connected_subgroup(sub) == want
        outcomes.append(want)
    assert outcomes.count(False) >= 10
