"""Split quadratic spaces, reflections, isometries, and the Dickson invariant.

Two shapes of split space over a field F:

    even(n):          dim 2n,   q(x) = sum_{i<=n} x_i x_{n+i}
    pointed_even(n):  dim 2n+2, q(x) = sum_{i<=n+1} x_i x_{n+1+i}

The pointed even space carries the distinguished vector 1 = e_{n+1} + e_{2n+2}
with q(1) = 1 and the trace form t(x) = B(x, 1) = x_{n+1} + x_{2n+2}.

q and B are each one straight-line kernel f(u, w) = sum of u_i w_j over
index pairs, generated by Field.bilinear on a space's first call and then
kept on it: q(w) = f(w, w) over the hyperbolic pairs, and B(u, w) =
f(u, w) over those pairs and their swaps.  The Gram kernel (Field.gram),
kept the same way, gives q of each of dim columns and B of each pair of
them in one call.  The trace is one field addition.  The census sweeps
check a list of vectors per call, through two more kernels kept the same way:
Field.off_quadric (q and t of each point) and Field.idempotent_check (x^2 = x
and q = 0, each with t = 1, of each vector).
A reflection r_v(w) = w - c v is one call to the field's linear-combination
kernel raw_lincomb, and raw_word applies a word of raw letters (v, 1/q(v))
one reflection at a time.

A matrix m is tested against q through its Gram data: is_isometry compares
one Gram kernel call on the columns of m with the same values on the basis;
a matrix that passes is invertible, so only a failing one is eliminated.
The Dickson invariant of an isometry is read from its h x h Lagrangian
block, h = dim/2, in every characteristic (dickson).
"""

from functools import cache

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NonUnitNorm,
    NotAnIsometry,
    SingularMatrix,
    WrongShape,
)
from .fields import FieldElement

SHAPES = ("even", "pointed_even")


class Vector:
    """Immutable coordinate vector over a Field, stored as packed raw values."""

    __slots__ = ("field", "raws")

    def __init__(self, field, raws):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "raws", tuple(raws))

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    @classmethod
    def of(cls, field, values):
        return cls(field, (field.element(v).rep for v in values))

    @property
    def coords(self):
        return tuple(FieldElement(self.field, r) for r in self.raws)

    def __len__(self):
        return len(self.raws)

    def __getitem__(self, i):
        return FieldElement(self.field, self.raws[i])

    def __add__(self, other):
        self._check(other)
        add = self.field.raw_add
        return Vector(self.field, (add(a, b) for a, b in zip(self.raws, other.raws)))

    def __sub__(self, other):
        self._check(other)
        sub = self.field.raw_sub
        return Vector(self.field, (sub(a, b) for a, b in zip(self.raws, other.raws)))

    def __neg__(self):
        neg = self.field.raw_neg
        return Vector(self.field, (neg(a) for a in self.raws))

    def _check(self, other):
        if not isinstance(other, Vector):
            raise TypeError(f"expected Vector, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if len(other.raws) != len(self.raws):
            raise DimensionMismatch(f"{len(self.raws)} vs {len(other.raws)}")

    @property
    def is_zero(self):
        return not any(self.raws)

    def to_strings(self):
        return list(map(self.field.raw_str, self.raws))

    def __eq__(self, other):
        return (isinstance(other, Vector) and other.field == self.field
                and other.raws == self.raws)

    def __hash__(self):
        return hash((self.field.key, self.raws))

    def __repr__(self):
        return f"Vector({', '.join(self.to_strings())})"


def _dim(shape, n):
    return {"even": 2 * n, "pointed_even": 2 * n + 2}[shape]


@cache
def _pairs(shape, n):
    """The hyperbolic pairs (i, i + h) with q(x) = sum x_i x_{i+h}, h = dim/2.
    Shared by every space of one shape and rank."""
    h = _dim(shape, n) // 2
    return tuple((i, h + i) for i in range(h))


# How each form kernel of a space is built.
_KERNELS = {
    "_q": lambda s: s.field.bilinear(s.pairs),
    "_b": lambda s: s.field.bilinear(s.pairs + tuple((j, i) for i, j in s.pairs)),
    "_gram": lambda s: s.field.gram(s.pairs, s.dim),
    "_off_quadric": lambda s: s.field.off_quadric(s.pairs),
    "_idempotent_check": lambda s: s.field.idempotent_check(s.pairs),
}


class SplitSpace:
    """A split quadratic space of one of the two shapes above; its form
    kernels are built on first use, so constructing it compiles nothing."""

    __slots__ = ("field", "shape", "n", "dim", "pairs", "_q", "_b", "_gram",
                 "_off_quadric", "_idempotent_check")

    def __init__(self, field, shape, n):
        if shape not in SHAPES:
            raise WrongShape(f"unknown shape {shape!r}")
        if n < 1:
            raise WrongShape("n must be at least 1")
        self.field = field
        self.shape = shape
        self.n = n
        self.dim = _dim(shape, n)
        self.pairs = _pairs(shape, n)

    @classmethod
    def even(cls, field, n):
        return cls(field, "even", n)

    @classmethod
    def pointed_even(cls, field, n):
        return cls(field, "pointed_even", n)

    # -- vectors -----------------------------------------------------------

    def vector(self, values):
        v = Vector.of(self.field, values)
        self._check_dim(v)
        return v

    def zero_vector(self):
        return Vector(self.field, (0,) * self.dim) if self.field.is_finite else \
            Vector.of(self.field, [0] * self.dim)

    def basis_vector(self, i):
        """e_{i+1} in 0-based indexing."""
        return Vector.of(self.field, [int(j == i) for j in range(self.dim)])

    def one_vector(self):
        """The distinguished vector with q = 1: e_i + e_j for the last
        hyperbolic pair (i, j)."""
        return Vector.of(self.field, [int(j in self.pairs[-1]) for j in range(self.dim)])

    def structured_vectors(self):
        """e_i +/- e_j for each hyperbolic pair (i, j), without repeats; each
        has q = +/-1."""
        out = []
        for i, j in self.pairs:
            for sign in (1, -1):
                vals = [0] * self.dim
                vals[i] = 1
                vals[j] = sign
                v = Vector.of(self.field, vals)
                if v not in out:
                    out.append(v)
        return out

    def enumerate_vectors(self):
        """All vectors in lexicographic order (first coordinate slowest)."""
        from .errors import InfiniteField
        if not self.field.is_finite:
            raise InfiniteField("cannot enumerate vectors over the rationals")
        from itertools import product
        for raws in product(range(self.field.q), repeat=self.dim):
            yield Vector(self.field, raws)

    def _check_dim(self, v):
        if v.field != self.field:
            raise FieldMismatch(f"{self.field} vs {v.field}")
        if len(v.raws) != self.dim:
            raise DimensionMismatch(f"space dim {self.dim}, vector length {len(v.raws)}")

    # -- the form, its polarization, and the trace -------------------------

    def __getattr__(self, name):
        """An unset kernel slot (a key of _KERNELS): built here on first use
        and kept in the slot."""
        if name not in _KERNELS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        kernel = _KERNELS[name](self)
        setattr(self, name, kernel)
        return kernel

    def raw_q(self, raws):
        return self._q(raws, raws)

    def raw_b(self, u, w):
        return self._b(u, w)

    def raw_polar(self, raws):
        """(B(v, e_1), ..., B(v, e_d)): each coordinate's hyperbolic partner."""
        h = self.dim // 2
        return raws[h:] + raws[:h]

    def eval_q(self, v):
        self._check_dim(v)
        return FieldElement(self.field, self.raw_q(v.raws))

    def eval_b(self, v, w):
        self._check_dim(v)
        self._check_dim(w)
        return FieldElement(self.field, self.raw_b(v.raws, w.raws))

    def trace(self, v):
        """t(v) = B(v, 1) = v_{n+1} + v_{2n+2}; pointed even shape only."""
        if self.shape != "pointed_even":
            raise WrongShape("trace is defined on the pointed even space")
        self._check_dim(v)
        return FieldElement(self.field, self.raw_trace(v.raws))

    def raw_trace(self, raws):
        return self.field.raw_add(raws[self.n], raws[2 * self.n + 1])

    def __eq__(self, other):
        return (isinstance(other, SplitSpace) and other.field == self.field
                and other.shape == self.shape and other.n == self.n)

    def __hash__(self):
        return hash((self.field.key, self.shape, self.n))

    def __repr__(self):
        return f"SplitSpace({self.shape}, n={self.n}, over {self.field})"


class GroupElement:
    """An invertible square matrix over a Field, acting on column vectors.

    Rows are stored as tuples of packed raw values.  Rank and determinant
    come from one forward elimination per call.  There is no general
    inverse: an isometry's inverse is its Gram adjoint G m^T G, and a
    reflection word's is the reversed word.
    """

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        d = len(self.rows)
        if any(len(r) != d for r in self.rows):
            raise DimensionMismatch("matrix is not square")

    def __setattr__(self, name, value):
        raise AttributeError("GroupElement is immutable")

    @classmethod
    def of(cls, field, entries):
        return cls(field, [[field.element(x).rep for x in row] for row in entries])

    @classmethod
    def identity(cls, field, dim):
        return cls(field, [[1 if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_columns(cls, field, cols):
        return cls(field, zip(*[c.raws if isinstance(c, Vector) else c for c in cols]))

    @property
    def dim(self):
        return len(self.rows)

    def column(self, j):
        return Vector(self.field, (r[j] for r in self.rows))

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if other.dim != self.dim:
            raise DimensionMismatch(f"{self.dim} vs {other.dim}")
        return GroupElement(self.field, self.field.matmul(self.rows, other.rows))

    def apply(self, v):
        if not isinstance(v, Vector):
            raise TypeError("apply expects a Vector")
        if v.field != self.field:
            raise FieldMismatch(f"{self.field} vs {v.field}")
        if len(v.raws) != self.dim:
            raise DimensionMismatch(f"{self.dim} vs {len(v.raws)}")
        return Vector(self.field, self.field.matvec(self.rows, v.raws))

    def _elimination(self):
        """Forward-eliminate M; return (rank, det_raw), with det_raw 0 when
        the rank is short."""
        f = self.field
        sub, mul = f.raw_sub, f.raw_mul
        d = self.dim
        rows = [list(row) for row in self.rows]
        det = 1
        rank = 0
        for col in range(d):
            piv = next((r for r in range(rank, d) if rows[r][col]), None)
            if piv is None:
                continue
            if piv != rank:
                rows[rank], rows[piv] = rows[piv], rows[rank]
                det = f.raw_neg(det)
            lead = rows[rank]
            det = mul(det, lead[col])
            inv_lead = f.raw_inv(lead[col])
            for r in range(rank + 1, d):
                if rows[r][col]:
                    c = mul(rows[r][col], inv_lead)
                    rows[r] = [sub(x, mul(c, y)) for x, y in zip(rows[r], lead)]
            rank += 1
        return rank, (det if rank == d else 0)

    def rank(self):
        return self._elimination()[0]

    def det(self):
        return FieldElement(self.field, self._elimination()[1])

    @property
    def is_invertible(self):
        return self.rank() == self.dim

    def to_strings(self):
        raw_str = self.field.raw_str
        return [list(map(raw_str, row)) for row in self.rows]

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and other.field == self.field
                and other.rows == self.rows)

    def __hash__(self):
        return hash((self.field.key, self.rows))

    def __repr__(self):
        body = "; ".join(",".join(r) for r in self.to_strings())
        return f"GroupElement[{body}]"


# -- reflections ------------------------------------------------------------

def _reflector(space, v):
    """(v.raws, 1/q(v)) for a reflection vector of the space; q(v) = 0
    raises NonUnitNorm."""
    space._check_dim(v)
    qv = space.raw_q(v.raws)
    if not qv:
        raise NonUnitNorm("reflection vector has q = 0")
    return v.raws, space.field.raw_inv(qv)


def reflect(space, v, w):
    """r_v(w) = w - B(v, w) v / q(v); requires q(v) invertible."""
    space._check_dim(w)
    return Vector(space.field, raw_reflect(space, *_reflector(space, v), w.raws))


def raw_reflect(space, v, inv_q, w):
    """r_v(w) on raw tuples, given inv_q = 1/q(v); nothing is checked."""
    f = space.field
    c = f.raw_mul(space.raw_b(v, w), inv_q)
    if not c:
        return tuple(w)
    return f.raw_lincomb(1, w, f.raw_neg(c), v)


def raw_word(space, letters, w):
    """r_{v_1} ... r_{v_m} w on raw tuples for letters [(v_1, 1/q(v_1)), ...],
    applied right to left; nothing is checked."""
    for v, inv_q in reversed(letters):
        w = raw_reflect(space, v, inv_q, w)
    return w


def word_matrix(space, word):
    """The matrix of r_{v_1} ... r_{v_m}: column j is the word applied, right
    to left, to e_{j+1}; q is evaluated once per letter, and q = 0 raises
    NonUnitNorm."""
    letters = [_reflector(space, v) for v in word]
    d = space.dim
    cols = [raw_word(space, letters, (0,) * j + (1,) + (0,) * (d - 1 - j)) for j in range(d)]
    return GroupElement.from_columns(space.field, cols)


def reflection_matrix(space, v):
    """The matrix of r_v: column j is the reflection of e_{j+1}."""
    return word_matrix(space, [v])


# -- isometries ----------------------------------------------------------------

@cache
def _basis_form_values(shape, n):
    """The Gram kernel's values on the basis, as raw 0/1 read from _pairs:
    q(e_j) = 0 for each j, then B(e_i, e_j) for i < j, which is 1 exactly on
    a hyperbolic pair.  Shared by every space of one shape and rank, over
    every field."""
    pairs = _pairs(shape, n)
    d = _dim(shape, n)
    return (0,) * d + tuple(int((i, j) in pairs) for i in range(d) for j in range(i + 1, d))


# B is nondegenerate on both shapes, so an isometry is invertible, and
# is_isometry eliminates m only when the Gram check fails, to raise
# SingularMatrix on a singular m.

def is_isometry(space, m):
    """True iff m preserves q: one Gram kernel call on the columns of m
    gives every q and B value, and all must equal the basis values, over any
    ring.  A singular m raises SingularMatrix."""
    _check_shape(space, m)
    if space._gram(*zip(*m.rows)) == _basis_form_values(space.shape, space.n):
        return True
    _check_matrix(space, m)
    return False


def dickson(space, m):
    """Dickson invariant in {0, 1} of an isometry, in every characteristic:
    rank C mod 2 for the block C of m = [[A, B], [C, D]] taking L =
    <e_1..e_h> to its partner <e_{h+1}..e_{2h}>, h = dim/2.  Proof: mL meets
    L in m(ker C), of dimension h - rank C, and m keeps the family of the
    maximal isotropic subspace L iff that dimension is congruent to h mod 2.
    A singular m raises SingularMatrix, another non-isometry NotAnIsometry."""
    if not is_isometry(space, m):
        raise NotAnIsometry("Dickson invariant of a non-isometry")
    return _dickson(space, m)


def _dickson(space, m):
    """dickson() for a matrix the caller has just shown to be an isometry of
    this space."""
    h = space.dim // 2
    return GroupElement(space.field, [row[:h] for row in m.rows[h:]]).rank() % 2


def _check_shape(space, m):
    if m.field != space.field:
        raise FieldMismatch(f"{space.field} vs {m.field}")
    if m.dim != space.dim:
        raise DimensionMismatch(f"space dim {space.dim}, matrix dim {m.dim}")


def _check_matrix(space, m):
    _check_shape(space, m)
    if not m.is_invertible:
        raise SingularMatrix("matrix is singular")

