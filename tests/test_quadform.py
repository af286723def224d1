import builtins
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from quadrics.errors import (
    DimensionMismatch,
    NonUnitNorm,
    NotAnIsometry,
    SingularMatrix,
    WrongShape,
)
from quadrics import fields
from quadrics.action import GroupContext, enumerate_isometries
from quadrics.cli import main
from quadrics.fields import Field, FieldElement
from quadrics.quadform import (
    SHAPES,
    GroupElement,
    SplitSpace,
    Vector,
    dickson,
    _basis_form_values,
    is_isometry,
    reflect,
    reflection_matrix,
    word_matrix,
)

F2 = Field.prime(2)
F3 = Field.prime(3)
F4 = Field.extension(2, 2)
F5 = Field.prime(5)
F9 = Field.extension(3, 2)


def scalar_matrix(field, dim, c):
    """c times the identity: an isometry only when c^2 = 1."""
    return GroupElement.of(field, [[c if i == j else 0 for j in range(dim)] for i in range(dim)])
Q = Field.rationals()


# -- the forms ---------------------------------------------------------------

def test_eval_q_even():
    s = SplitSpace.even(Q, 2)
    assert s.eval_q(s.vector([1, 2, 3, 4])) == Q.element(11)   # 1*3 + 2*4


def test_eval_q_pointed_one():
    for f in (F2, F3, F5, Q):
        s = SplitSpace.pointed_even(f, 1)
        assert s.eval_q(s.one_vector()) == f.one


def test_eval_q_dimension_mismatch():
    s = SplitSpace.even(F3, 1)
    with pytest.raises(DimensionMismatch):
        s.eval_q(Vector.of(F3, [1, 2, 0]))


def test_eval_b_closed_forms():
    s = SplitSpace.pointed_even(F3, 1)
    v = s.vector([1, 2, 0, 1])
    assert s.eval_b(v, v) == 2 * s.eval_q(v)
    assert s.eval_b(s.basis_vector(0), s.basis_vector(2)) == F3.one


# -- the generated form kernels against the definition ---------------------

def _random_raws(f, rng, dim):
    if f.is_finite:
        return tuple(rng.randrange(f.q) for _ in range(dim))
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(dim))


def _element_forms(s):
    """q, B and t from s.pairs in FieldElement arithmetic, with no kernel."""
    f = s.field

    def elements(raws):
        return [FieldElement(f, r) for r in raws]

    def q(raws):
        w = elements(raws)
        return sum((w[i] * w[j] for i, j in s.pairs), f.zero).rep

    def b(u_raws, w_raws):
        u, w = elements(u_raws), elements(w_raws)
        return sum((u[i] * w[j] + u[j] * w[i] for i, j in s.pairs), f.zero).rep

    def t(raws):
        w = elements(raws)
        return (w[s.n] + w[2 * s.n + 1]).rep

    return q, b, t


@pytest.mark.parametrize("f", [F2, F3, F5, F4, F9, Q], ids=str)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_generated_form_kernels_match_the_definition(f, shape, n):
    s = SplitSpace(f, shape, n)
    q, b, t = _element_forms(s)
    rng = random.Random(f"{f}-{shape}-{n}")
    basis = [s.basis_vector(i).raws for i in range(s.dim)]
    randoms = [_random_raws(f, rng, s.dim) for _ in range(40)]
    sums = [tuple(map(f.raw_add, x, y)) for x in basis for y in basis]
    for w in randoms + basis + sums:
        assert s.raw_q(w) == q(w)
        if shape == "pointed_even":
            assert s.raw_trace(w) == t(w)
    for u, w in list(zip(randoms, randoms[1:])) + [(x, y) for x in basis for y in basis]:
        assert s.raw_b(u, w) == b(u, w)


@pytest.mark.parametrize("f", [F2, F3, F5, F4, F9, Q], ids=str)
def test_lincomb_matches_add_and_mul(f):
    rng = random.Random(str(f))
    for _ in range(60):
        x, y = _random_raws(f, rng, 7), _random_raws(f, rng, 7)
        a, b = _random_raws(f, rng, 2)
        for a, b in ((a, b), (1, b), (a, 0)):
            expected = tuple(f.raw_add(f.raw_mul(a, s), f.raw_mul(b, t))
                             for s, t in zip(x, y))
            assert f.raw_lincomb(a, x, b, y) == expected


# The (n, field) cells of the benchmark's job lists and the rational ranks.
BENCHMARK_CELLS = [(1, "2"), (1, "3"), (1, "2^2"), (1, "5"), (1, "7"), (1, "3^2"),
                   (2, "2"), (2, "3"), (2, "2^4"), (3, "5"), (2, "3^2"), (2, "7"),
                   (1, "2^4"), (2, "5"), (2, "2^2"), (3, "3"), (1, "Q"), (2, "Q")]


@pytest.fixture
def compiled_sources(monkeypatch):
    """The sources compiled from here on, with the kernel code cache empty."""
    sources = []
    compile_ = builtins.compile

    def counted(source, *args, **kwargs):
        sources.append(source)
        return compile_(source, *args, **kwargs)

    fields._compiled.cache_clear()
    monkeypatch.setattr(builtins, "compile", counted)
    yield sources
    fields._compiled.cache_clear()


def test_construction_compiles_nothing(compiled_sources):
    for n, spec in BENCHMARK_CELLS:
        field = Field.parse(spec)
        GroupContext(field, n)
        for shape in SHAPES:
            SplitSpace(field, shape, n)
    assert compiled_sources == []


def test_count_compiles_each_source_once(compiled_sources, capsys):
    for _ in range(2):
        assert main(["count", "--n", "2", "--field", "3"]) == 0
    # q on the pointed even space, compiled on first use; the trace is one addition
    assert len(compiled_sources) == len(set(compiled_sources)) == 1


def test_polarization_identity_exhaustive():
    for f in (F2, F3):
        for shape in SHAPES:
            s = SplitSpace(f, shape, 1)
            for v in s.enumerate_vectors():
                for w in s.enumerate_vectors():
                    assert s.eval_b(v, w) == s.eval_q(v + w) - s.eval_q(v) - s.eval_q(w)


@given(st.lists(st.fractions(), min_size=4, max_size=4),
       st.lists(st.fractions(), min_size=4, max_size=4))
def test_polarization_identity_rational(vals, wals):
    s = SplitSpace.pointed_even(Q, 1)
    v, w = s.vector(vals), s.vector(wals)
    assert s.eval_b(v, w) == s.eval_q(v + w) - s.eval_q(v) - s.eval_q(w)


def test_trace():
    s = SplitSpace.pointed_even(F3, 1)
    assert s.trace(s.basis_vector(3)) == F3.one
    assert s.trace(s.basis_vector(0)) == F3.zero
    assert s.trace(s.one_vector()) == F3.element(2)
    s2 = SplitSpace.pointed_even(F2, 1)
    assert s2.trace(s2.one_vector()) == F2.zero
    with pytest.raises(WrongShape):
        SplitSpace.even(F3, 1).trace(Vector.of(F3, [1, 0]))


def test_trace_equals_pairing_with_one():
    for f in (F2, F3):
        s = SplitSpace.pointed_even(f, 1)
        one = s.one_vector()
        for v in s.enumerate_vectors():
            assert s.trace(v) == s.eval_b(v, one)


def test_one_vectors():
    assert SplitSpace.pointed_even(F3, 1).one_vector().to_strings() == ["0", "1", "0", "1"]
    assert SplitSpace.even(F3, 2).one_vector().to_strings() == ["0", "1", "0", "1"]
    for shape in SHAPES:
        s = SplitSpace(F5, shape, 2)
        assert s.eval_q(s.one_vector()) == F5.one


@pytest.mark.parametrize("f,shape,n,expected", [
    (F3, "pointed_even", 1, [[1, 0, 1, 0], [1, 0, 2, 0], [0, 1, 0, 1], [0, 1, 0, 2]]),
    (F2, "pointed_even", 1, [[1, 0, 1, 0], [0, 1, 0, 1]]),
    (Q, "even", 2, [[1, 0, 1, 0], [1, 0, -1, 0], [0, 1, 0, 1], [0, 1, 0, -1]]),
])
def test_structured_vectors(f, shape, n, expected):
    s = SplitSpace(f, shape, n)
    vectors = s.structured_vectors()
    assert vectors == [Vector.of(f, vals) for vals in expected]
    assert all(s.raw_q(v.raws) in (f.one.rep, f.element(-1).rep) for v in vectors)


# -- reflections --------------------------------------------------------------

def test_reflect_examples():
    s = SplitSpace.even(Q, 1)
    out = reflect(s, s.vector([1, 1]), s.vector([1, 0]))
    assert out == s.vector([0, -1])
    assert s.eval_q(out) == Q.zero
    s2 = SplitSpace.even(F2, 1)
    assert reflect(s2, s2.vector([1, 1]), s2.vector([1, 0])) == s2.vector([0, 1])


def test_reflect_fixed_vector_negates():
    for f in (F3, F5, Q):
        s = SplitSpace.pointed_even(f, 1)
        v = s.one_vector()
        assert reflect(s, v, v) == -v


def test_reflect_rejects_isotropic():
    s = SplitSpace.even(F3, 1)
    with pytest.raises(NonUnitNorm):
        reflect(s, s.basis_vector(0), s.vector([1, 1]))


def test_reflection_preserves_q_and_involutive():
    rng = random.Random(7)
    for f in (F2, F3, F5):
        s = SplitSpace.pointed_even(f, 2)
        vectors = [Vector(f, tuple(rng.randrange(f.q) for _ in range(s.dim)))
                   for _ in range(60)]
        aniso = [v for v in vectors if s.raw_q(v.raws)]
        for v in aniso[:10]:
            for w in vectors[:20]:
                image = reflect(s, v, w)
                assert s.eval_q(image) == s.eval_q(w)
                assert reflect(s, v, image) == w


@given(st.lists(st.fractions(), min_size=4, max_size=4),
       st.lists(st.fractions(), min_size=4, max_size=4))
def test_reflection_laws_rational(v_vals, w_vals):
    s = SplitSpace.pointed_even(Q, 1)
    v, w = s.vector(v_vals), s.vector(w_vals)
    if s.raw_q(v.raws) == 0:
        return
    image = reflect(s, v, w)
    assert s.eval_q(image) == s.eval_q(w)
    assert reflect(s, v, image) == w


def test_reflection_matrix_examples():
    s2 = SplitSpace.even(Q, 1)
    m2 = reflection_matrix(s2, s2.vector([1, 1]))
    assert m2 == GroupElement.of(Q, [[0, -1], [-1, 0]])

    s3 = SplitSpace.pointed_even(F2, 1)
    m3 = reflection_matrix(s3, s3.vector([1, 0, 1, 0]))
    assert m3 == GroupElement.of(F2, [[0, 0, 1, 0], [0, 1, 0, 0],
                                      [1, 0, 0, 0], [0, 0, 0, 1]])


def closed_form_reflection(s, v):
    """I - v (B(v, e_j) / q(v))_j in FieldElement arithmetic from eval_b and
    eval_q: a reference for the matrix of r_v that does not go through
    raw_reflect."""
    f = s.field
    qv = s.eval_q(v)
    coeffs = [s.eval_b(v, s.basis_vector(j)) / qv for j in range(s.dim)]
    return GroupElement.of(f, [[(f.one if i == j else f.zero) - vi * c
                                for j, c in enumerate(coeffs)]
                               for i, vi in enumerate(v.coords)])


def random_reflector(s, rng):
    """A vector with q != 0, its raw coordinates drawn over the whole field
    (small integers over Q)."""
    f = s.field
    while True:
        v = (s.vector([rng.randrange(-3, 4) for _ in range(s.dim)]) if f.q is None
             else Vector(f, [rng.randrange(f.q) for _ in range(s.dim)]))
        if s.raw_q(v.raws):
            return v


@pytest.mark.parametrize("f", [F2, F3, F9, Q], ids=str)
@pytest.mark.parametrize("shape", SHAPES)
def test_reflection_matrix_columns_are_reflected_basis(f, shape):
    # the matrix against reflect() applied to each basis vector, and against
    # the closed form I - v (B(v, e_j) / q(v))_j
    s = SplitSpace(f, shape, 2)
    rng = random.Random(7)
    done = 0
    while done < 5:
        v = s.vector([rng.randrange(-3, 4) if f.q is None else rng.randrange(f.q)
                      for _ in range(s.dim)])
        if not s.raw_q(v.raws):
            continue
        m = reflection_matrix(s, v)
        cols = [reflect(s, v, s.basis_vector(j)) for j in range(s.dim)]
        assert m == GroupElement.from_columns(f, cols)
        assert m == closed_form_reflection(s, v)
        done += 1


@pytest.mark.parametrize("f", [F2, F3, F9, Q], ids=str)
@pytest.mark.parametrize("shape", SHAPES)
def test_word_matrix_is_the_product_of_reflections(f, shape):
    # the product of closed-form reflection matrices, for words of length 0 to 3
    s = SplitSpace(f, shape, 2)
    rng = random.Random(11)
    for length in range(4):
        for _ in range(3):
            word = [random_reflector(s, rng) for _ in range(length)]
            product = GroupElement.identity(f, s.dim)
            for v in word:
                product = product * closed_form_reflection(s, v)
            assert word_matrix(s, word) == product


@pytest.mark.parametrize("f", [F2, F3, F9, Q], ids=str)
@pytest.mark.parametrize("position", [0, 1, 2])
def test_word_matrix_refuses_an_isotropic_vector_anywhere(f, position):
    s = SplitSpace.pointed_even(f, 1)
    rng = random.Random(position)
    word = [random_reflector(s, rng) for _ in range(3)]
    word[position] = s.basis_vector(0)     # q(e_1) = 0
    with pytest.raises(NonUnitNorm):
        word_matrix(s, word)
    with pytest.raises(NonUnitNorm):
        reflection_matrix(s, word[position])
    word[position] = Vector.of(f, [1, 1, 1])
    with pytest.raises(DimensionMismatch):
        word_matrix(s, word)


def gauss_jordan_rank_det(f, rows):
    """Rank and raw determinant by full Gauss-Jordan reduction with
    normalized pivots: the reference for the forward elimination."""
    d = len(rows)
    m = [list(r) for r in rows]
    rank, det = 0, 1
    for col in range(d):
        piv = next((r for r in range(rank, d) if m[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            det = f.raw_neg(det)
        det = f.raw_mul(det, m[rank][col])
        inv = f.raw_inv(m[rank][col])
        m[rank] = [f.raw_mul(inv, x) for x in m[rank]]
        for r in range(d):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [f.raw_sub(x, f.raw_mul(c, y)) for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank, det if rank == d else 0


@pytest.mark.parametrize("f", [F2, F3, F4, Q], ids=["F2", "F3", "F4", "Q"])
def test_forward_elimination_matches_gauss_jordan(f):
    rng = random.Random(31)
    values = range(f.q) if f.is_finite else range(-3, 4)
    ranks = set()
    for _ in range(300):
        d = rng.randrange(1, 6)
        rows = [[rng.choice(values) for _ in range(d)] for _ in range(d)]
        if d > 1 and rng.random() < 0.3:   # force a dependent row
            rows[-1] = list(rows[0])
        m = GroupElement.of(f, rows)
        rank, det = gauss_jordan_rank_det(f, m.rows)
        ranks.add(rank == d)
        assert m.rank() == rank
        assert m.det().rep == det
        assert m.is_invertible == (rank == d)
    assert ranks == {True, False}


def test_is_isometry_rejects_a_singular_matrix():
    s = SplitSpace.even(F3, 2)
    m = GroupElement.of(F3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]])
    assert m.rank() == 3
    with pytest.raises(SingularMatrix):
        is_isometry(s, m)


@pytest.mark.parametrize("f", [F2, F3, F4, Q], ids=["F2", "F3", "F4", "Q"])
def test_basis_form_values_are_the_form_on_the_basis(f):
    for shape in SHAPES:
        for n in (1, 2, 3):
            s = SplitSpace(f, shape, n)
            basis = [tuple(1 if i == j else 0 for i in range(s.dim)) for j in range(s.dim)]
            assert list(_basis_form_values(shape, n)) == \
                [s.raw_q(e) for e in basis] + [s.raw_b(basis[i], basis[j])
                                               for i in range(s.dim) for j in range(i + 1, s.dim)]


def test_reflection_determinant_odd_characteristic():
    for f in (F3, F5):
        s = SplitSpace.even(f, 2)
        m = reflection_matrix(s, s.one_vector())
        assert m.det() == f.element(-1)


# -- isometries and similitudes ------------------------------------------------

def test_is_isometry():
    s = SplitSpace.pointed_even(F5, 1)
    assert is_isometry(s, GroupElement.identity(F5, 4))
    assert is_isometry(s, reflection_matrix(s, s.one_vector()))
    even = SplitSpace.even(F5, 1)
    assert not is_isometry(even, scalar_matrix(F5, 2, 2))
    shear = GroupElement.of(F5, [[1, 1], [0, 1]])   # e2 -> e1 + e2
    assert not is_isometry(even, shear)


def _gram(space, m):
    """q on each column of m, then B on each pair of columns."""
    cols, d = list(zip(*m.rows)), space.dim
    return [space.raw_q(c) for c in cols] + \
        [space.raw_b(cols[i], cols[j]) for i in range(d) for j in range(i + 1, d)]


@pytest.mark.parametrize("f", [F2, F3, F4, Q], ids=["F2", "F3", "F4", "Q"])
def test_gram_kernel_is_q_on_each_column_and_b_on_each_pair(f):
    # the diagonal is q itself, which B(c, c) = 2q(c) would lose over F_2 and F_4
    rng = random.Random(7)
    elements = list(range(f.q)) if f.is_finite else [Fraction(k, 3) for k in range(-4, 5)]
    for shape in SHAPES:
        for n in (1, 2, 3):
            s = SplitSpace(f, shape, n)
            for _ in range(5):
                m = GroupElement(f, [[rng.choice(elements) for _ in range(s.dim)]
                                     for _ in range(s.dim)])
                assert list(s._gram(*zip(*m.rows))) == _gram(s, m)


def _reference_verdict(space, m, want):
    """is_isometry with the elimination first, from the Gram values of m and
    those of the identity (want); SingularMatrix on a singular m."""
    if not m.is_invertible:
        return SingularMatrix
    return _gram(space, m) == want


def _verdict(space, m):
    try:
        return is_isometry(space, m)
    except SingularMatrix:
        return SingularMatrix


def _all_matrices(f, d):
    rows = list(product(range(f.q), repeat=d))
    return (GroupElement(f, m) for m in product(rows, repeat=d))


def _sampled_matrices(space, rng, count):
    """Isometries r_u r_v, similitudes r_u r_v h with factor 2, each with one
    entry redrawn, and uniform matrices, over F_3."""
    f, d = space.field, space.dim
    vectors = [v for v in space.enumerate_vectors() if space.raw_q(v.raws)]
    h = GroupElement.of(f, [[2 if i == j < space.n + 1 else int(i == j) for j in range(d)]
                            for i in range(d)])
    for _ in range(count):
        g = word_matrix(space, rng.sample(vectors, 2))
        for m in (g, g * h):
            yield m
            rows = [list(row) for row in m.rows]
            rows[rng.randrange(d)][rng.randrange(d)] = rng.randrange(f.q)
            yield GroupElement(f, rows)
        yield GroupElement(f, [[rng.randrange(f.q) for _ in range(d)] for _ in range(d)])


def test_the_gram_pass_proves_invertibility():
    """An isometry is invertible, so the elimination runs only on a failing
    Gram check and every verdict and exception is kept: every 4x4 matrix
    over F_2 on even(2), and a sample over F_3."""
    pointed = SplitSpace.pointed_even(F3, 1)
    samples = [(SplitSpace.even(F2, 2), _all_matrices(F2, 4)),
               (pointed, _sampled_matrices(pointed, random.Random(21), 400))]
    for space, matrices in samples:
        identity, seen = _gram(space, GroupElement.identity(space.field, space.dim)), set()
        for m in matrices:
            # the new verdict first, so that it cannot read an elimination
            # the reference cached on m
            got = _verdict(space, m)
            assert got == _reference_verdict(space, m, identity)
            seen.add(got)
        assert seen == {SingularMatrix, True, False}


# -- Dickson invariant ----------------------------------------------------------

def test_dickson_examples():
    s = SplitSpace.pointed_even(F2, 1)
    assert dickson(s, GroupElement.identity(F2, 4)) == 0
    r = reflection_matrix(s, s.vector([1, 0, 1, 0]))
    assert dickson(s, r) == 1
    r2 = reflection_matrix(s, s.one_vector())
    assert dickson(s, r2 * r) == 0


def test_dickson_errors():
    s = SplitSpace.even(F5, 1)
    with pytest.raises(NotAnIsometry):
        dickson(s, scalar_matrix(F5, 2, 2))


def test_dickson_rejects_a_singular_matrix():
    # the Gram pass fails on a singular matrix, and is_isometry then raises
    s = SplitSpace.even(F3, 2)
    m = GroupElement.of(F3, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [1, 1, 1, 0]])
    with pytest.raises(SingularMatrix):
        dickson(s, m)


def test_dickson_does_not_trust_the_matrix_cache():
    # no value kept on a matrix stands in for the isometry check: a matrix
    # holds only its field and rows
    s = SplitSpace.even(F5, 1)
    m = GroupElement.of(F5, [[2, 0], [0, 1]])
    with pytest.raises(NotAnIsometry):
        dickson(s, m)


@pytest.mark.parametrize("f", [F2, F3, Field.extension(2, 2)])
def test_dickson_homomorphism_on_random_words(f):
    s = SplitSpace.pointed_even(f, 1)
    refls = [reflection_matrix(s, v) for v in s.enumerate_vectors() if s.raw_q(v.raws)]
    rng = random.Random(13)
    for _ in range(500):
        length = rng.randrange(1, 5)
        word = [rng.choice(refls) for _ in range(length)]
        m = word[0]
        for r in word[1:]:
            m = m * r
        assert all(dickson(s, r) == 1 for r in word)
        assert dickson(s, m) == length % 2


def test_dickson_matches_determinant_odd_characteristic():
    s = SplitSpace.even(F3, 2)
    rng = random.Random(17)
    refls = [reflection_matrix(s, v) for v in s.enumerate_vectors() if s.raw_q(v.raws)]
    for _ in range(100):
        m = rng.choice(refls) * rng.choice(refls) * rng.choice(refls)
        sign = F3.one if dickson(s, m) == 0 else F3.element(-1)
        assert m.det() == sign


def _rank_and_det(f, rows):
    """Rank and determinant of a square matrix of raws, by elimination."""
    rows, rank, det = [list(r) for r in rows], 0, 1
    for col in range(len(rows)):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = f.raw_neg(det)
        lead = rows[rank]
        det = f.raw_mul(det, lead[col])
        for r in range(rank + 1, len(rows)):
            c = f.raw_mul(rows[r][col], f.raw_inv(lead[col]))
            rows[r] = [f.raw_sub(x, f.raw_mul(c, y)) for x, y in zip(rows[r], lead)]
        rank += 1
    return rank, det


def _dickson_by_definition(space, m):
    """rank(m - 1) mod 2 in characteristic 2; else 0 iff det(m) = 1."""
    f = space.field
    if f.characteristic == 2:
        shifted = [[f.raw_sub(x, int(i == j)) for j, x in enumerate(row)]
                   for i, row in enumerate(m.rows)]
        return _rank_and_det(f, shifted)[0] % 2
    return 0 if _rank_and_det(f, m.rows)[1] == f.one.rep else 1


@pytest.mark.parametrize("f", [F2, F3, F4], ids=str)
def test_dickson_matches_its_definitions_on_whole_groups(f):
    # even(2) and pointed_even(1) carry the same form x_1 x_3 + x_2 x_4, so
    # one column search lists both groups
    spaces = [SplitSpace.even(f, 2), SplitSpace.pointed_even(f, 1)]
    assert spaces[0].pairs == spaces[1].pairs
    group = enumerate_isometries(spaces[0], force=True)
    assert len(group) == {2: 72, 3: 1152, 4: 7200}[f.q]
    expected = [_dickson_by_definition(spaces[0], m) for m in group]
    assert expected.count(0) == len(group) // 2
    for s in spaces:
        assert [dickson(s, m) for m in group] == expected


@pytest.mark.parametrize("f", [F5, Field.rationals()], ids=str)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("n", [1, 2, 3], ids=str)
def test_dickson_matches_its_definitions_on_seeded_words(f, shape, n):
    s = SplitSpace(f, shape, n)
    rng = random.Random(31)
    for _ in range(25):
        word, length = [], rng.randrange(1, 5)
        while len(word) < length:
            v = s.vector([rng.randrange(-3, 4) for _ in range(s.dim)])
            if s.raw_q(v.raws):
                word.append(v)
        m = word_matrix(s, word)
        assert dickson(s, m) == _dickson_by_definition(s, m) == len(word) % 2

