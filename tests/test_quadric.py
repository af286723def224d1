import re
from itertools import product

import pytest

from quadrics.errors import InvalidPrimePower, InvariantViolation, TooLarge
from quadrics.fields import Field
from quadrics.quadform import SplitSpace
from quadrics.quadric import (
    AmbientQuadricPoint,
    _quadric_raws,
    IntrinsicQuadricPoint,
    base_point,
    count_closed_form,
    count_recursive,
    enumerate_quadric,
    from_ambient,
    is_on_quadric,
    stratify,
    to_ambient,
)

F2 = Field.prime(2)
F3 = Field.prime(3)
Q = Field.rationals()


def test_intrinsic_invariant_checked():
    IntrinsicQuadricPoint.of(F3, [1], [1], 2)     # 1*1 = 2*(1-2) = 2*2 = 1 mod 3
    with pytest.raises(InvariantViolation):
        IntrinsicQuadricPoint.of(F3, [1], [1], 0)


def test_ambient_invariant_checked():
    s = SplitSpace.pointed_even(F3, 1)
    AmbientQuadricPoint(s, s.basis_vector(3))
    with pytest.raises(InvariantViolation):
        AmbientQuadricPoint(s, s.one_vector())    # q(1) = 1


@pytest.mark.parametrize("n,q", [(1, 3), (2, 2), (2, 4)], ids=["1-3", "2-2", "2-4"])
def test_enumerated_points_are_checked_once(monkeypatch, kernel_blocks, n, q):
    """The sweep hands each point, once and in order, to the block kernel that
    checks q(w) = 0 and t(w) = 1, one fiber per call, and calls raw_q and
    raw_trace on none; wrapping the tuples as points does not check them
    again."""
    space = SplitSpace.pointed_even(Field.of_order(q), n)
    blocks = kernel_blocks("_off_quadric")
    calls = {"raw_q": 0, "raw_trace": 0}

    def counting(name):
        method = getattr(SplitSpace, name)

        def counted(self, raws):
            calls[name] += 1
            return method(self, raws)
        return counted

    for name in calls:
        monkeypatch.setattr(SplitSpace, name, counting(name))
    points = enumerate_quadric(space)
    assert calls == {"raw_q": 0, "raw_trace": 0}
    checked = [w for block in blocks for w in block]
    assert checked == [p.w.raws for p in points]
    assert len(set(checked)) == len(checked) == count_closed_form(n, q)
    assert len(blocks) == q ** (n + 1)   # one call per (x, z) fiber, empty ones too
    monkeypatch.undo()
    assert all(p == AmbientQuadricPoint(space, p.w) and p.n == n for p in points)


@pytest.mark.parametrize("name,value,message", [("raw_q", 1, "q(w) != 0"),
                                                ("raw_trace", 0, "t(w) != 1")],
                         ids=["raw_q-1-q(w) != 0", "raw_trace-0-t(w) != 1"])
def test_sweep_checks_fire_on_the_first_point(kernel_blocks, name, value, message):
    """The first point swept is replaced, as the kernel gets it, by a vector
    whose raw_q (or raw_trace) is value: 1 = e_{n+1} + e_{2n+2} with q = 1,
    or 0 with t = 0.  The kernel flags it, and the message names the form
    that fails, before any point is drawn."""
    space = SplitSpace.pointed_even(F3, 2)
    planted = {"raw_q": space.one_vector(), "raw_trace": space.zero_vector()}[name].raws
    assert getattr(space, name)(planted) == value
    kernel_blocks("_off_quadric", lambda kernel, block: kernel([planted] + block[1:]))
    points = _quadric_raws(space)
    with pytest.raises(InvariantViolation, match=re.escape(message)):
        next(points)


def test_to_ambient_examples():
    assert to_ambient(IntrinsicQuadricPoint.of(F2, [0], [0], 1)).w.to_strings() == \
        ["0", "0", "0", "1"]
    assert to_ambient(IntrinsicQuadricPoint.of(F2, [0], [0], 0)).w.to_strings() == \
        ["0", "1", "0", "0"]
    a = to_ambient(IntrinsicQuadricPoint.of(F3, [1], [1], 2))
    assert a.w.to_strings() == ["1", "2", "2", "2"]


def test_from_ambient_examples():
    s = SplitSpace.pointed_even(F3, 1)
    a = AmbientQuadricPoint(s, s.vector([1, 2, 2, 2]))
    assert from_ambient(a) == IntrinsicQuadricPoint.of(F3, [1], [1], 2)
    s2 = SplitSpace.pointed_even(F2, 1)
    assert from_ambient(AmbientQuadricPoint(s2, s2.basis_vector(3))) == \
        IntrinsicQuadricPoint.of(F2, [0], [0], 1)


ROUND_TRIP_CELLS = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (2, 4), (2, 5)]


@pytest.mark.parametrize("n,q", ROUND_TRIP_CELLS, ids=[f"{n}-{q}" for n, q in ROUND_TRIP_CELLS])
def test_round_trip_bijection(n, q):
    space = SplitSpace.pointed_even(Field.of_order(q), n)
    points = enumerate_quadric(space)
    assert len(set(points)) == len(points)
    for p in points:
        assert to_ambient(from_ambient(p)) == p


def test_round_trip_over_rationals():
    p = IntrinsicQuadricPoint.of(Q, [2, -3], [3, 6], 4)   # 6 - 18 = -12 = 4*(1-4)
    assert from_ambient(to_ambient(p)) == p


def test_is_on_quadric():
    s = SplitSpace.pointed_even(F2, 1)
    assert is_on_quadric(s, s.basis_vector(3))
    assert not is_on_quadric(s, s.one_vector())
    assert is_on_quadric(s, s.vector([1, 1, 0, 0]))   # q = 0, t = 1


def test_base_point():
    for n in range(1, 7):
        s = SplitSpace.pointed_even(F3, n)
        b = base_point(s)
        assert b.w == s.basis_vector(s.dim - 1)
        assert is_on_quadric(s, b.w)


@pytest.mark.parametrize("n,q,expected", [(1, 2, 6), (1, 3, 12), (2, 2, 20)],
                         ids=["1-2-6", "1-3-12", "2-2-20"])
def test_enumerate_counts(n, q, expected):
    space = SplitSpace.pointed_even(Field.of_order(q), n)
    assert len(enumerate_quadric(space)) == expected


def test_enumerate_guard():
    space = SplitSpace.pointed_even(Field.prime(1021), 4)
    with pytest.raises(TooLarge):
        enumerate_quadric(space)
    with pytest.raises(TooLarge):   # before the first point is drawn
        _quadric_raws(space)


def test_exceeds_is_the_power_comparison():
    # exact for q >= 2, with no power computed once e reaches the guard's bits
    from quadrics.guards import exceeds
    for guard in (1, 10 ** 6, 10 ** 8, 10 ** 9, 2 ** 30):
        for q in (2, 3, 4, 7, 1021):
            for e in range(0, 40):
                assert exceeds(q, e, guard) == (q ** e > guard), (q, e, guard)
    assert exceeds(3, 10 ** 18, 10 ** 8)


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8),
                                 (1, 9), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)])
def test_raw_enumeration_matches_points(n, q):
    space = SplitSpace.pointed_even(Field.of_order(q), n)
    raws = list(_quadric_raws(space))
    points = enumerate_quadric(space)
    assert raws == [p.w.raws for p in points]
    assert all(p.space is space for p in points)
    # the open cell by coordinate, as count_report reads it, against stratify
    assert [w[n - 1] != 0 for w in raws] == \
        [stratify(p)[0] == "open_cell" for p in points]
    # against a sweep of the whole ambient space, in lexicographic order of
    # (x, z, y): the order transport --all prints its certificates in
    neg = space.field.raw_neg
    brute = [w for w in product(range(q), repeat=space.dim)
             if space.raw_q(w) == 0 and space.raw_trace(w) == 1]
    brute.sort(key=lambda w: (w[:n], w[2 * n + 1],
                              tuple(map(neg, w[n + 1: 2 * n + 1]))))
    assert raws == brute


def test_count_closed_form():
    assert count_closed_form(1, 2) == 6
    assert count_closed_form(2, 3) == 90
    assert count_closed_form(0, 5) == 2


def test_count_recursive():
    assert count_recursive(1, 2) == 2 * 1 + 2 * 2           # q^1 (q-1) + q |Q_0|
    assert count_recursive(2, 2) == 8 * 1 + 2 * 6
    assert count_recursive(3, 3) == 3 ** 5 * 2 + 3 * 90
    assert count_recursive(3, 3) == 756 == count_closed_form(3, 3)


def test_count_rejects_non_prime_powers():
    with pytest.raises(InvalidPrimePower):
        count_closed_form(1, 6)
    with pytest.raises(InvalidPrimePower):
        count_recursive(2, 12)
    with pytest.raises(InvalidPrimePower):
        count_closed_form(-1, 2)


def test_recursion_equals_closed_form_grid():
    for n in range(1, 7):
        for q in (2, 3, 4, 5, 7, 8, 9, 25, 27):
            assert count_recursive(n, q) == count_closed_form(n, q)


def test_stratify_examples():
    a = to_ambient(IntrinsicQuadricPoint.of(F3, [1], [1], 2))
    tag, cell, unit = stratify(a)
    assert tag == "open_cell"
    assert [str(c) for c in cell] == ["2"] and str(unit) == "1"

    s = SplitSpace.pointed_even(F3, 1)
    tag, cell, free = stratify(AmbientQuadricPoint(s, s.basis_vector(3)))
    assert tag == "closed_cell"
    assert str(cell[2]) == "1" and str(free) == "0"


def test_stratum_census():
    for n, q in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        space = SplitSpace.pointed_even(Field.of_order(q), n)
        points = enumerate_quadric(space)
        opens = sum(1 for p in points if stratify(p)[0] == "open_cell")
        closed = len(points) - opens
        assert opens == q ** (2 * n - 1) * (q - 1)
        assert closed == q * count_closed_form(n - 1, q)
        assert opens + closed == count_closed_form(n, q)
    space2 = SplitSpace.pointed_even(F2, 1)
    census = [stratify(p)[0] for p in enumerate_quadric(space2)]
    assert census.count("open_cell") == 2 and census.count("closed_cell") == 4
