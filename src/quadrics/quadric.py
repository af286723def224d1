"""The smooth affine quadric sum(x_i y_i) = z(1 - z) in two coordinate models.

Intrinsic model: triples (x, y, z) with x, y of length n satisfying the
defining equation.  Ambient model: vectors w of length 2n+2 in the pointed
even split space cut out by q(w) = 0 and t(w) = 1.  The change of
coordinates w = (x_1..x_n, 1-z, -y_1..-y_n, z) identifies the two models
over every ring: q(w) = z(1-z) - sum(x_i y_i) and t(w) = 1 identically.
"""

from itertools import product
from math import log10

from .errors import (
    DimensionMismatch,
    InfiniteField,
    InvalidPrimePower,
    InvariantViolation,
    TooLarge,
)
from .fields import FieldElement, is_prime_power
from .guards import ENUM_GUARD, digit_limit, exceeds
from .quadform import SplitSpace, Vector


class IntrinsicQuadricPoint:
    """A solution (x, y, z) of sum(x_i y_i) = z(1 - z)."""

    __slots__ = ("n", "x", "y", "z")

    def __init__(self, x, y, z):
        if len(x) != len(y):
            raise DimensionMismatch(f"|x| = {len(x)}, |y| = {len(y)}")
        object.__setattr__(self, "n", len(x))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        f = x.field
        lhs = 0
        for a, b in zip(x.raws, y.raws):
            lhs = f.raw_add(lhs, f.raw_mul(a, b))
        rhs = f.raw_mul(z.rep, f.raw_sub(1, z.rep))
        if lhs != rhs:
            raise InvariantViolation("sum(x_i y_i) != z(1 - z)")

    def __setattr__(self, name, value):
        raise AttributeError("IntrinsicQuadricPoint is immutable")

    @property
    def field(self):
        return self.x.field

    @classmethod
    def of(cls, field, x_vals, y_vals, z_val):
        return cls(Vector.of(field, x_vals), Vector.of(field, y_vals),
                   field.element(z_val))

    def __eq__(self, other):
        return (isinstance(other, IntrinsicQuadricPoint) and other.x == self.x
                and other.y == self.y and other.z == self.z)

    def __hash__(self):
        return hash((self.x, self.y, self.z))

    def __repr__(self):
        return (f"IntrinsicQuadricPoint(x={self.x.to_strings()}, "
                f"y={self.y.to_strings()}, z={self.z})")


class AmbientQuadricPoint:
    """A vector of the pointed even space with q = 0 and t = 1."""

    __slots__ = ("n", "w", "space")

    def __init__(self, space, w):
        if space.shape != "pointed_even":
            raise InvariantViolation("ambient points live in the pointed even space")
        space._check_dim(w)
        if space.raw_q(w.raws) != 0:
            raise InvariantViolation("q(w) != 0")
        one = space.field.one.rep
        if space.raw_trace(w.raws) != one:
            raise InvariantViolation("t(w) != 1")
        object.__setattr__(self, "n", space.n)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "space", space)

    @classmethod
    def _checked(cls, space, w):
        """The point w, already checked to lie on space's quadric."""
        point = object.__new__(cls)
        object.__setattr__(point, "n", space.n)
        object.__setattr__(point, "w", w)
        object.__setattr__(point, "space", space)
        return point

    def __setattr__(self, name, value):
        raise AttributeError("AmbientQuadricPoint is immutable")

    @property
    def field(self):
        return self.w.field

    def __eq__(self, other):
        return isinstance(other, AmbientQuadricPoint) and other.w == self.w

    def __hash__(self):
        return hash(self.w)

    def __repr__(self):
        return f"AmbientQuadricPoint({self.w.to_strings()})"


def to_ambient(p):
    """w = (x_1..x_n, 1-z, -y_1..-y_n, z); inverse of from_ambient."""
    f = p.field
    space = SplitSpace.pointed_even(f, p.n)
    neg = f.raw_neg
    raws = (p.x.raws + (f.raw_sub(1, p.z.rep),)
            + tuple(neg(b) for b in p.y.raws) + (p.z.rep,))
    return AmbientQuadricPoint(space, Vector(f, raws))


def from_ambient(a):
    """x_i = w_i, y_i = -w_{n+1+i}, z = w_{2n+2}; inverse of to_ambient."""
    f = a.field
    n = a.n
    r = a.w.raws
    neg = f.raw_neg
    return IntrinsicQuadricPoint(
        Vector(f, r[:n]),
        Vector(f, (neg(b) for b in r[n + 1: 2 * n + 1])),
        FieldElement(f, r[2 * n + 1]),
    )


def is_on_quadric(space, v):
    """True iff q(v) = 0 and t(v) = 1."""
    space._check_dim(v)
    return (space.raw_q(v.raws) == 0
            and space.raw_trace(v.raws) == space.field.one.rep)


def base_point(space):
    """The point e_{2n+2}: all coordinates zero except the last, which is 1."""
    return AmbientQuadricPoint(space, space.basis_vector(space.dim - 1))


def enumerate_quadric(space, force=False):
    """All points over a finite field, in deterministic order, as points on
    the given space; _quadric_raws has checked each one."""
    f, point = space.field, AmbientQuadricPoint._checked
    return [point(space, Vector(f, w)) for w in _quadric_raws(space, force=force)]


def _quadric_raws(space, force=False):
    """The ambient raw tuples of all points over a finite field, lazily, in
    enumerate_quadric's order; each is checked for q(w) = 0 and t(w) = 1.

    Enumerates the intrinsic model: for each (x, z) in lexicographic order
    the solutions y of sum(x_i y_i) = z(1-z) form an affine subspace, swept
    in lexicographic order of y, so the cost is proportional to q^(2n)
    rather than q^(2n+2).  The field, shape and size are checked here,
    before the first point is drawn.
    """
    _point_guard(space.field, space.n, force)
    if space.shape != "pointed_even":
        raise InvariantViolation("ambient points live in the pointed even space")
    return _sweep_quadric(space)


def _point_guard(field, n, force=False):
    """Refuse to enumerate the points of Q_{2n} over the rationals, or over
    F_q past the guard on q^(2n+1), from (q, n) alone: callers check it before
    they build a space."""
    if not field.is_finite:
        raise InfiniteField("cannot enumerate points over the rationals")
    if not force and exceeds(field.q, 2 * n + 1, ENUM_GUARD):
        raise TooLarge(f"{field.q}^{2 * n + 1} points exceeds the enumeration guard")


def _sweep_quadric(space):
    """The sweep behind _quadric_raws, once its checks have passed.

    Only the pivot coordinate y_p (the last i with x_i != 0, or y_n when
    x = 0) depends on z.  So each x builds, once for all q values of z, the
    rows of free coordinates of -y split at the pivot with their share
    s = sum_{i != p} x_i y_i, and a table taking c = z(1-z) - s, indexed by
    its raw value, to the values of -y_p that solve x_p y_p = c: the one
    value -c / x_p, or every value when x = 0 and c = 0.  The rows take
    O(q^(n-1)) space and the table O(q), never a list of points.  A point
    then costs one raw_sub, one lookup and its own checks.
    """
    f, n = space.field, space.n
    add, sub, mul, neg = f.raw_add, f.raw_sub, f.raw_mul, f.raw_neg
    raw_q, raw_trace, one = space.raw_q, space.raw_trace, f.one.rep
    rng = range(f.q)
    for x in product(rng, repeat=n):
        pivot = next((i for i in reversed(range(n)) if x[i]), n - 1)
        x_free = x[:pivot] + x[pivot + 1:]
        rows = []
        for y_free in product(rng, repeat=n - 1):
            s = 0
            for a, v in zip(x_free, y_free):
                s = add(s, mul(a, v))
            negs = tuple(map(neg, y_free))
            rows.append((negs[:pivot], s, negs[pivot:]))
        if x[pivot]:
            inv = f.raw_inv(x[pivot])
            solve = [(neg(mul(inv, c)),) for c in rng]
        else:
            solve = [tuple(map(neg, rng))] + [()] * (f.q - 1)
        for z in rng:
            rhs = mul(z, sub(1, z))
            head, tail = x + (sub(1, z),), (z,)
            for left, s, right in rows:
                for p in solve[sub(rhs, s)]:
                    # w = (x_1..x_n, 1-z, -y_1..-y_n, z), as to_ambient builds it
                    w = head + left + (p,) + right + tail
                    if raw_q(w) != 0:
                        raise InvariantViolation("q(w) != 0")
                    if raw_trace(w) != one:
                        raise InvariantViolation("t(w) != 1")
                    yield w


def count_closed_form(n, q):
    """q^(2n) + q^n; the n = 0 quadric is two points."""
    _check_count_args(n, q)
    return _closed_form(n, q)


def count_recursive(n, q):
    """q^(2n-1)(q-1) + q * count(n-1), grounded at count(0) = 2."""
    _check_count_args(n, q)
    for total in _recursive_counts(n, q):
        pass
    return total


def _closed_form(n, q):
    return q ** (2 * n) + q ** n


def _recursive_counts(n, q):
    """count(0), ..., count(n) from the recursion, in one pass."""
    total = 2
    yield total
    for m in range(1, n + 1):
        total = q ** (2 * m - 1) * (q - 1) + q * total
        yield total


def _check_count_args(n, q):
    if n < 0:
        raise InvalidPrimePower(f"n = {n} must be nonnegative")
    if is_prime_power(q) is None:
        raise InvalidPrimePower(f"{q} is not a prime power")


def _check_digits(n, q):
    """Refuse a report whose count q^(2n) + q^n has more decimal digits than
    guards.digit_limit(), before computing it.  q^(2n) has floor(2n log10 q)
    + 1 digits and the sum at most one more, so only a count within a digit
    of the limit is computed, to compare it with 10^limit exactly."""
    _check_count_args(n, q)
    limit = digit_limit()
    if limit is None:
        return
    size = 2 * n * log10(q)
    if size > limit + 1 or (size > limit - 1 and _closed_form(n, q) >= 10 ** limit):
        raise TooLarge(f"q^(2n) + q^n has about {int(size) + 1} digits at n = {n}, "
                       f"q = {q}, over the interpreter's {limit}-digit limit on "
                       f"printing an int")


def recursion_report(n, q):
    """The closed form against the recursion at every rank m <= n.  The
    recursion runs once and yields every rank's count, so the work is one
    power per rank rather than a recursion per rank; the size is checked
    first."""
    _check_digits(n, q)
    ok = True
    for m, recursive in enumerate(_recursive_counts(n, q)):
        closed = _closed_form(m, q)
        ok = ok and closed == recursive
    return {"check": "recursion", "n": n, "q": q,
            "closed_form": closed, "recursive": recursive,
            "all_ranks_match": ok, "pass": ok}


def stratify(point):
    """Locate a point in the open cell A^(2n-1) x G_m (x_n != 0) or the
    closed cell Q_(2n-2) x A^1 (x_n = 0), returning the cell coordinates.

    Open cell: ("open_cell", (x_1..x_{n-1}, y_1..y_{n-1}, z), x_n).
    Closed cell: ("closed_cell", (x_<n, y_<n, z), y_n).
    """
    p = from_ambient(point)
    n = p.n
    x, y, z = p.x, p.y, p.z
    if x.raws[n - 1]:
        affine = x.coords[:n - 1] + y.coords[:n - 1] + (z,)
        return "open_cell", affine, x[n - 1]
    lower = (Vector(x.field, x.raws[:n - 1]), Vector(y.field, y.raws[:n - 1]), z)
    return "closed_cell", lower, y[n - 1]


def count_report(n, field=None, q=None, force=False):
    """Counting record used by the command line interface."""
    if field is not None:
        if not field.is_finite:
            raise InfiniteField("cannot count points over the rationals")
        q = field.q
    _check_digits(n, q)   # checks n and q once for the whole report
    closed = _closed_form(n, q)
    for rec in _recursive_counts(n, q):
        pass
    report = {"n": n, "field": str(field) if field is not None else str(q),
              "closed_form": closed, "recursive": rec}
    if field is not None and n >= 1:
        space = SplitSpace.pointed_even(field, n)
        count = opens = 0
        for w in _quadric_raws(space, force=force):
            count += 1
            opens += w[n - 1] != 0   # stratify's open cell: x_n != 0
        report["count"] = count
        report["strata"] = {"open": opens, "closed": count - opens}
        report["match"] = (count == closed == rec)
    else:
        report["match"] = (closed == rec)
    return report
