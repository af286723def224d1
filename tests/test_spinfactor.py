import random
from fractions import Fraction
from itertools import product

import pytest

from quadrics.fields import Field
from quadrics.quadform import SplitSpace, Vector
from quadrics.action import GroupContext, enumerate_group
from quadrics.spinfactor import SpinFactor, verify_projective_space

F2 = Field.prime(2)
F3 = Field.prime(3)
Q = Field.rationals()


def scaled(v, c):
    """c v, coordinate by coordinate."""
    f = v.field
    return Vector(f, (f.raw_mul(f.element(c).rep, a) for a in v.raws))


def test_conjugation_is_an_involution():
    sf = SpinFactor(F3, 1)
    for v in sf.space.enumerate_vectors():
        assert sf.conjugate(sf.conjugate(v)) == v
        assert sf.trace(sf.conjugate(v)) == sf.trace(v)


def test_jsquare_examples():
    sf = SpinFactor(F3, 1)
    assert sf.jsquare(sf.one) == sf.one
    e1 = sf.space.basis_vector(0)
    assert sf.jsquare(e1) == sf.space.zero_vector()     # t = 0, q = 0
    x0 = sf.space.basis_vector(3)
    assert sf.jsquare(x0) == x0                          # t = 1, q = 0


def test_u_operator_examples():
    sf = SpinFactor(F3, 1)
    rng = random.Random(23)
    for _ in range(20):
        y = Vector(F3, tuple(rng.randrange(3) for _ in range(4)))
        assert sf.u_operator(sf.one, y) == y
    x0 = sf.space.basis_vector(3)
    assert sf.u_operator(x0, sf.one) == x0
    e1 = sf.space.basis_vector(0)
    y = sf.space.vector([1, 2, 0, 1])
    b = sf.space.eval_b(e1, sf.conjugate(y))
    assert sf.u_operator(e1, y) == scaled(e1, b)          # q(e1) = 0: rank one


def test_u_of_one_is_jsquare_exhaustive():
    for f, n in [(F2, 1), (F3, 1), (F2, 2)]:
        sf = SpinFactor(f, n)
        for v in sf.space.enumerate_vectors():
            assert sf.u_operator(v, sf.one) == sf.jsquare(v)


def test_u_of_one_is_jsquare_random_rationals():
    sf = SpinFactor(Q, 2)
    rng = random.Random(29)
    for _ in range(1000):
        v = Vector(Q, tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
                            for _ in range(sf.space.dim)))
        assert sf.u_operator(v, sf.one) == sf.jsquare(v)


def test_rank_one_projection_examples():
    sf = SpinFactor(F3, 1)
    assert sf.is_rank_one_projection(sf.space.basis_vector(3))
    assert not sf.is_rank_one_projection(sf.one)          # t(1) = 2
    assert not sf.is_rank_one_projection(sf.space.zero_vector())
    sf2 = SpinFactor(F2, 1)
    assert not sf2.is_rank_one_projection(sf2.one)        # t(1) = 0 in char 2


def test_idempotent_trace_one_forces_isotropy():
    # (t(x) - 1) x = q(x) 1 coordinatewise when x^2 = x
    for f in (F2, F3):
        sf = SpinFactor(f, 1)
        for v in sf.space.enumerate_vectors():
            if sf.jsquare(v) != v:
                continue
            t = sf.space.trace(v)
            q = sf.space.eval_q(v)
            lhs = scaled(v, t - 1)
            rhs = scaled(sf.one, q)
            assert lhs == rhs
            if t == f.one:
                assert q == f.zero


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_projections_are_quadric_points(q, n):
    report = verify_projective_space(Field.of_order(q), n)
    assert report["pass"]
    assert report["idempotents"] == report["quadric_points"] == q ** (2 * n) + q ** n


def projective_space_report_full_cube(field, n):
    """verify_projective_space's report from a sweep of all q^{2n+2}
    vectors, each predicate testing t(x) = 1 itself: the reference for the
    sweep of the trace-one hyperplane."""
    sf = SpinFactor(field, n)
    space = sf.space
    one = field.one.rep
    idempotents = quadric_points = 0
    agree = True
    for raws in product(range(field.q), repeat=space.dim):
        trace_one = space.raw_trace(raws) == one
        is_idem = trace_one and sf.raw_jsquare(raws) == raws
        is_point = trace_one and space.raw_q(raws) == 0
        idempotents += is_idem
        quadric_points += is_point
        agree = agree and is_idem == is_point
    return {"check": "spin_projective", "n": n, "field": str(field),
            "idempotents": idempotents, "quadric_points": quadric_points,
            "equal": agree, "pass": agree}


@pytest.mark.parametrize("q,n", [("2", 1), ("3", 1), ("2^2", 1), ("2", 2), ("3", 2)])
def test_hyperplane_sweep_matches_full_cube(q, n):
    field = Field.parse(q)
    assert verify_projective_space(field, n) == projective_space_report_full_cube(field, n)


def test_projective_check_sweeps_only_the_trace_one_hyperplane(monkeypatch):
    calls = 0
    raw_trace = SplitSpace.raw_trace

    def counted(self, raws):
        nonlocal calls
        calls += 1
        return raw_trace(self, raws)

    monkeypatch.setattr(SplitSpace, "raw_trace", counted)
    assert verify_projective_space(F3, 1)["pass"]
    assert calls == 3 ** 3   # once per swept vector; the full cube made 3^4 + 3^3 = 108


@pytest.mark.parametrize("q,n", [("3", 1), ("2^2", 1), ("3", 2)])
def test_projective_check_evaluates_q_once_per_vector(monkeypatch, q, n):
    calls = 0
    raw_q = SplitSpace.raw_q

    def counted(self, raws):
        nonlocal calls
        calls += 1
        return raw_q(self, raws)

    monkeypatch.setattr(SplitSpace, "raw_q", counted)
    field = Field.parse(q)
    assert verify_projective_space(field, n)["pass"]
    assert calls == field.q ** (2 * n + 1)


def test_so_model_acts_by_jordan_automorphisms():
    for f, n in [(F2, 1), (F3, 1)]:
        sf = SpinFactor(f, n)
        ctx = GroupContext(f, n)
        members = enumerate_group(ctx, "so_odd")
        sample = [v for v in sf.space.enumerate_vectors()][:: max(1, f.q // 2)]
        for m in members:
            for v in sample:
                assert sf.jsquare(m.apply(v)) == m.apply(sf.jsquare(v))
