import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from quadrics.errors import (
    DivisionByZero,
    FieldMismatch,
    InfiniteField,
    NoModulusAvailable,
    NonPrimeCharacteristic,
    UnsupportedSize,
)
import quadrics.fields as fields
from quadrics.fields import Field, FieldElement, is_prime, is_prime_power
from quadrics.action import GroupContext
from quadrics.quadform import GroupElement, SplitSpace, Vector

F2 = Field.prime(2)
F3 = Field.prime(3)
F4 = Field.extension(2, 2)
F5 = Field.prime(5)
F8 = Field.extension(2, 3)
F9 = Field.extension(3, 2)
Q = Field.rationals()


def test_create_prime_field():
    assert F5.q == 5 and F5.kind == "prime"


def test_gf4_modulus_is_irreducible():
    # t^2 + t + 1 has no root in F_2: t=0 gives 1, t=1 gives 1+1+1 = 1
    c0, c1, c2 = F4.modulus
    for t in (0, 1):
        assert (c0 + c1 * t + c2 * t * t) % 2 == 1


def test_reducible_modulus_is_refused(monkeypatch):
    # (t + 1)^2 leaves t + 1 without an inverse; checked in every run mode
    import quadrics.fields as fields
    monkeypatch.setitem(fields.MODULI, (2, 2), (1, 0, 1))
    with pytest.raises(NoModulusAvailable):
        Field.extension(2, 2)


def test_nonprime_characteristic_rejected():
    with pytest.raises(NonPrimeCharacteristic):
        Field.prime(4)
    with pytest.raises(NonPrimeCharacteristic):
        Field.extension(6, 2)


def test_size_caps():
    with pytest.raises(UnsupportedSize):
        Field.prime(1031)
    with pytest.raises(UnsupportedSize):
        Field.extension(2, 5)
    with pytest.raises(NoModulusAvailable):
        Field.extension(7, 2)


def test_parse_field_spec():
    assert Field.parse("5") == F5
    assert Field.parse("2^2") == F4
    assert Field.parse("4") == F4
    assert Field.parse("Q") == Q


def test_prime_arithmetic():
    two = F5.element(2)
    assert two.inv() == F5.element(3)          # 2 * 3 = 6 = 1 mod 5
    assert two + 4 == F5.element(1)
    assert -two == F5.element(3)
    assert two / F5.element(4) == F5.element(3)


def test_gf4_generator_square():
    g = F4.generator
    assert g * g == g + 1                       # t^2 reduced by t^2 + t + 1


def test_rational_arithmetic():
    half = Q.element(Fraction(1, 2))
    third = Q.element(Fraction(1, 3))
    assert half + third == Q.element(Fraction(5, 6))
    assert (half / third).rep == Fraction(3, 2)


def test_rational_inverse_of_int_is_exact():
    inv = Q.raw_inv(2)
    assert inv == Fraction(1, 2) and isinstance(inv, Fraction)
    assert Q.raw_inv(Fraction(-3, 4)) == Fraction(-4, 3)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F5.element(1) / F5.element(0)
    with pytest.raises(DivisionByZero):
        F4.zero.inv()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F5.element(1) + F3.element(1)
    with pytest.raises(FieldMismatch):
        F5.element(Fraction(1, 2))
    assert F5.element(Fraction(7, 1)) == F5.element(2)


def test_enumeration_order():
    assert [e.rep for e in F2.elements()] == [0, 1]
    assert [e.rep for e in F3.elements()] == [0, 1, 2]
    g = F4.generator
    assert F4.elements() == [F4.zero, F4.one, g, g + 1]
    with pytest.raises(InfiniteField):
        Q.elements()


def test_enumeration_is_closed():
    for f in (F2, F3, F4, F5, F8, F9):
        els = f.elements()
        assert len(set(els)) == f.q
        for a in els:
            for b in els:
                assert a + b in els and a * b in els


def test_sqrt_in_f5():
    assert F5.element(4).sqrt() == F5.element(2)   # 2 precedes 3 in enumeration
    assert F5.element(2).sqrt() is None            # squares mod 5 are {0, 1, 4}
    squares = sorted({(a * a).rep for a in F5.elements()})
    assert squares == [0, 1, 4]


def test_sqrt_in_gf4():
    g = F4.generator
    assert g.sqrt() == g + 1                        # (g+1)^2 = g^2 + 1 = g
    for a in F4.elements():
        root = a.sqrt()
        assert root is not None and root * root == a


def test_sqrt_char2_always_unique():
    for f in (F2, F4, F8):
        for a in f.elements():
            roots = [s for s in f.elements() if s * s == a]
            assert len(roots) == 1


def test_sqrt_infinite_field():
    with pytest.raises(InfiniteField):
        Q.element(4).sqrt()


@pytest.mark.parametrize("f", [F3, F5, F9, Field.prime(7), Field.prime(11),
                               Field.prime(13), Field.extension(5, 2)])
def test_square_classes_odd_characteristic(f):
    # a nonzero element or its non-square multiple has a root, never both
    nonsquare = next(a for a in f.elements() if a and a.sqrt() is None)
    for a in f.elements():
        if not a:
            continue
        assert (a.sqrt() is not None) != ((a * nonsquare).sqrt() is not None)


def test_serialize_round_trip():
    for f in (F2, F3, F4, F5, F8, F9):
        for a in f.elements():
            assert f.parse_element(str(a)) == a
    for value in (Fraction(5, 6), Fraction(-2, 3), Fraction(7), Fraction(0)):
        a = Q.element(value)
        assert Q.parse_element(str(a)) == a


def test_extension_coeffs():
    a = F8.from_coeffs((1, 0, 1))
    assert a.coeffs == (1, 0, 1)
    assert str(a) == "1+0*g+1*g^2"


def _old_str(field, a):
    """str of an element as FieldElement.__str__ wrote it before raw_str."""
    if field.kind != "extension":
        return str(a)
    return "+".join(f"{c}*g^{i}" if i > 1 else (f"{c}*g" if i == 1 else str(c))
                    for i, c in enumerate(field._unpack_raw(a)))


@pytest.mark.parametrize("spec", ["7", "4", "8", "9", "16", "25"])
def test_raw_str_is_the_element_string_and_parses_back(spec):
    f = Field.parse(spec)
    for a in range(f.q):
        assert f.raw_str(a) == _old_str(f, a) == str(FieldElement(f, a))
        assert f.parse_element(f.raw_str(a)).rep == a
    if f.kind == "extension":   # the memo returns the string it rendered first
        assert f.raw_str(f.q - 1) is f.raw_str(f.q - 1)


def test_raw_str_over_the_rationals():
    for a in (Fraction(0), Fraction(7), Fraction(-7), Fraction(5, 6), Fraction(-2, 3),
              Fraction(-10 ** 20, 3)):
        assert Q.raw_str(a) == _old_str(Q, a) == str(Q.element(a))
        assert Q.parse_element(Q.raw_str(a)).rep == a


def test_to_strings_build_no_field_element(monkeypatch):
    v = Vector.of(F9, [0, 1, 2, 2])
    m = GroupElement(F9, [[0, 1], [2, 0]])
    want_v, want_m = v.to_strings(), m.to_strings()

    def forbidden(self, field, rep):
        raise AssertionError("a FieldElement was built to print a coordinate")

    monkeypatch.setattr(FieldElement, "__init__", forbidden)
    assert v.to_strings() == want_v == ["0+0*g", "1+0*g", "2+0*g", "2+0*g"]
    assert m.to_strings() == want_m == [["0+0*g", "1+0*g"], ["2+0*g", "0+0*g"]]


# -- matrix kernels -------------------------------------------------------------

def _reference_dot(field, row, col):
    """The per-kind loops the compiled kernels replace: a sum of products
    reduced mod p, a zero-skipping table walk, a plain sum over Q."""
    if field.kind == "extension":
        acc = 0
        for x, y in zip(row, col):
            if x and y:
                acc = field._add[acc][field._mul[x][y]]
        return acc
    total = sum(map(mul, row, col))
    return total % field.p if field.kind == "prime" else total


def _reference_matmul(field, a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(_reference_dot(field, row, col) for col in cols) for row in a)


def _random_matrix(field, rng, d):
    if field.kind == "rational":   # ints as GroupElement.identity holds them, and fractions
        draw = lambda: rng.choice((0, 1, Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
    else:
        draw = lambda: rng.randrange(field.q)
    return tuple(tuple(draw() for _ in range(d)) for _ in range(d))


@pytest.mark.parametrize("f", [F2, F3, F4, F9, Field.extension(2, 4), Q], ids=str)
def test_matrix_kernels_match_the_reference_sum_of_products(f):
    rng = random.Random(str(f))
    for d in range(1, 9):
        zero = ((0,) * d,) * d
        identity = GroupElement.identity(f, d).rows
        matrices = [zero, identity] + [_random_matrix(f, rng, d) for _ in range(6)]
        for a in matrices:
            for b in matrices[:4]:
                want = _reference_matmul(f, a, b)
                got = f.matmul(a, b)
                assert got == want
                assert [type(x) for row in got for x in row] == \
                    [type(x) for row in want for x in row]
                v = b[-1]
                assert f.matvec(a, v) == tuple(_reference_dot(f, row, v) for row in a)


def test_matrix_kernels_compile_on_the_first_product_of_each_dimension():
    field = Field.prime(13)
    ctx = GroupContext(field, 2)
    assert not field._matmuls and not field._matvecs
    for space in (ctx.space, ctx.even_space):   # no Gram kernel either
        with pytest.raises(AttributeError):
            SplitSpace._gram.__get__(space)
    for d in (6, 8, 6, 8):
        m = GroupElement.identity(field, d)
        assert (m * m).rows == m.rows
        assert field.matvec(m.rows, m.rows[0]) == m.rows[0]
    assert sorted(field._matmuls) == sorted(field._matvecs) == [6, 8]


def test_fields_of_one_kind_and_characteristic_share_compiled_kernels():
    a, b = Field.prime(11), Field.prime(11)
    m = GroupElement.identity(a, 5).rows
    a.matmul(m, m)
    misses = fields._compiled.cache_info().misses
    assert b.matmul(m, m) == m
    assert fields._compiled.cache_info().misses == misses
    assert a._matmuls[5].__code__ is b._matmuls[5].__code__


def _prime_power_by_trial_division(q):
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            return (p, k) if q == 1 else None
    return (q, 1) if q > 1 else None


def test_is_prime_power():
    assert is_prime_power(8) == (2, 3)
    assert is_prime_power(27) == (3, 3)
    assert is_prime_power(12) is None
    assert is_prime_power(1) is None
    for q in range(50000):
        assert is_prime_power(q) == _prime_power_by_trial_division(q), q


def test_is_prime_below_the_miller_rabin_bound():
    assert [n for n in range(3000) if is_prime(n)] == \
        [n for n in range(3000) if _prime_power_by_trial_division(n) == (n, 1)]
    # strong pseudoprimes to the first 1, 4, 7, 9, 12 prime bases
    for n in (2047, 3215031751, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(n) and is_prime_power(n) is None
    for p in (2 ** 61 - 1, 1000000000000037, 999999999989):
        assert is_prime(p) and is_prime_power(p) == (p, 1)
        assert not is_prime(p * 1000003)


@pytest.mark.parametrize("p", [2, 3, 1000003, 999999999989, 1821275395031])
def test_prime_powers_up_to_the_bound_are_found(p):
    """Each power of p below the bound is found, and its neighbours get a
    true answer; 1821275395031 is the largest prime whose square is below
    the bound, where the float root is least precise."""
    k = 1
    while p ** k < fields._MR_BOUND:
        assert is_prime_power(p ** k) == (p, k)
        for q in (p ** k - 1, p ** k + 1):
            pk = is_prime_power(q)
            assert pk is None or pk[0] ** pk[1] == q and pk[0] != p and is_prime(pk[0])
        k += 1


def test_prime_powers_past_the_bound_use_trial_division():
    assert is_prime_power(2 ** 90) == (2, 90)
    assert is_prime_power(3 ** 60 * 7) is None
    assert is_prime_power(fields._MR_BOUND + 1) is None   # even


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_field_axioms_gf9(a, b, c):
    x, y, z = (Field.extension(3, 2).element(0).field.elements()[i] for i in (a, b, c))
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert (x + y) + z == x + (y + z)
    if y:
        assert y * y.inv() == Field.extension(3, 2).one


@settings(max_examples=200)
@given(st.fractions(), st.fractions())
def test_rational_field_ops(a, b):
    x, y = Q.element(a), Q.element(b)
    assert (x + y).rep == a + b
    assert (x * y).rep == a * b
    if b:
        assert (x / y).rep == a / b
