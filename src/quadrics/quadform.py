"""Split quadratic spaces, reflections, similitudes, and the Dickson invariant.

Three shapes of split space over a field F:

    even(n):          dim 2n,   q(x) = sum_{i<=n} x_i x_{n+i}
    odd(n):           dim 2n+1, q(x) = sum_{i<=n} x_i x_{n+i} + x_{2n+1}^2
    pointed_even(n):  dim 2n+2, q(x) = sum_{i<=n+1} x_i x_{n+1+i}

The pointed even space carries the distinguished vector 1 = e_{n+1} + e_{2n+2}
with q(1) = 1 and the trace form t(x) = B(x, 1) = x_{n+1} + x_{2n+2}.

A matrix m is tested against q through its Gram data: q of each column and B
of each pair of columns, against the same values on the basis.  is_isometry
and similitude_factor both read these pairs from _gram_pairs.
"""

from functools import cache

from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NonUnitNorm,
    NotAnIsometry,
    OddDimension,
    SingularMatrix,
    WrongShape,
)
from .fields import FieldElement

SHAPES = ("even", "odd", "pointed_even")


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

    def scale(self, c):
        c = self.field.element(c).rep
        mul = self.field.raw_mul
        return Vector(self.field, (mul(c, a) for a in self.raws))

    def __rmul__(self, c):
        return self.scale(c)

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
        return [str(c) for c in self.coords]

    def __eq__(self, other):
        return (isinstance(other, Vector) and other.field == self.field
                and other.raws == self.raws)

    def __hash__(self):
        return hash((self.field.key, self.raws))

    def __repr__(self):
        return f"Vector({', '.join(self.to_strings())})"


def _dim(shape, n):
    return {"even": 2 * n, "odd": 2 * n + 1, "pointed_even": 2 * n + 2}[shape]


@cache
def _pairs(shape, n):
    """The index pairs (i, j) with q(x) = sum x_i x_j; the odd shape's square
    term x_{2n+1}^2 is the pair (2n, 2n).  Shared by every space of one shape
    and rank: quadric enumeration builds a space for each point it holds."""
    h = n + 1 if shape == "pointed_even" else n
    pairs = tuple((i, h + i) for i in range(h))
    return pairs + ((2 * n, 2 * n),) if shape == "odd" else pairs


class SplitSpace:
    """A split quadratic space of one of the three shapes above."""

    __slots__ = ("field", "shape", "n", "dim", "pairs")

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
    def odd(cls, field, n):
        return cls(field, "odd", n)

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
        vals = [0] * self.dim
        vals[i] = 1
        return Vector.of(self.field, vals)

    def one_vector(self):
        """The distinguished vector with q = 1 for this shape."""
        vals = [0] * self.dim
        n = self.n
        if self.shape == "even":
            vals[n - 1] = 1
            vals[2 * n - 1] = 1
        elif self.shape == "odd":
            vals[2 * n] = 1
        else:
            vals[n] = 1
            vals[2 * n + 1] = 1
        return Vector.of(self.field, vals)

    def structured_vectors(self):
        """e_i +/- e_j for each hyperbolic pair (i, j), without repeats, then
        e_{2n+1} on the odd shape; each has q = +/-1."""
        out = []
        for i, j in self.pairs:
            for sign in (1, -1) if i != j else (1,):
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

    def raw_q(self, raws):
        f = self.field
        mul, add = f.raw_mul, f.raw_add
        total = 0
        for i, j in self.pairs:
            total = add(total, mul(raws[i], raws[j]))
        return total

    def raw_b(self, u, w):
        f = self.field
        mul, add = f.raw_mul, f.raw_add
        total = 0
        for i, j in self.pairs:
            total = add(total, add(mul(u[i], w[j]), mul(u[j], w[i])))
        return total

    def raw_polar(self, raws):
        """(B(v, e_1), ..., B(v, e_d)): each coordinate's hyperbolic partner,
        and 2 v_{2n+1} in the last slot of the odd shape."""
        n = self.n
        if self.shape == "pointed_even":
            return raws[n + 1:] + raws[:n + 1]
        out = raws[n:2 * n] + raws[:n]
        if self.shape == "odd":
            out += (self.field.raw_add(raws[2 * n], raws[2 * n]),)
        return out

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

    Rows are stored as tuples of packed raw values.  The forward elimination
    (rank and determinant) is cached after first computation.  There is no
    general inverse: an isometry's inverse is its Gram adjoint,
    OrbitStabilizer.inverse in quadrics.action.
    """

    __slots__ = ("field", "rows", "cache")

    def __init__(self, field, rows):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in rows))
        object.__setattr__(self, "cache", {})
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
    def scalar(cls, field, dim, c):
        c = field.element(c).rep
        return cls(field, [[c if i == j else 0 for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_columns(cls, field, cols):
        return cls(field, zip(*[c.raws if isinstance(c, Vector) else c for c in cols]))

    @property
    def dim(self):
        return len(self.rows)

    def column(self, j):
        return Vector(self.field, (r[j] for r in self.rows))

    def entries(self):
        return [[FieldElement(self.field, x) for x in row] for row in self.rows]

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
        """Forward-eliminate M once; return (rank, det_raw), cached together
        on the matrix.  det_raw is 0 when the rank is short."""
        if "elimination" in self.cache:
            return self.cache["elimination"]
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
        result = rank, (det if rank == d else 0)
        self.cache["elimination"] = result
        return result

    def rank(self):
        return self._elimination()[0]

    def det(self):
        return FieldElement(self.field, self._elimination()[1])

    @property
    def is_invertible(self):
        return self.rank() == self.dim

    def to_strings(self):
        return [[str(FieldElement(self.field, x)) for x in row] for row in self.rows]

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
    sub, mul = f.raw_sub, f.raw_mul
    return tuple(sub(wi, mul(c, vi)) for wi, vi in zip(w, v))


def word_matrix(space, word, scalar=None):
    """The matrix of r_{v_1} ... r_{v_m}, times the scalar c if one is given:
    column j is the word applied, right to left, to c e_{j+1}."""
    steps = [_reflector(space, v) for v in reversed(word)]
    c = 1 if scalar is None else space.field.element(scalar).rep
    cols = []
    for j in range(space.dim):
        w = (0,) * j + (c,) + (0,) * (space.dim - 1 - j)
        for v, inv_q in steps:
            w = raw_reflect(space, v, inv_q, w)
        cols.append(w)
    return GroupElement.from_columns(space.field, cols)


def reflection_matrix(space, v):
    """The matrix of r_v: column j is the reflection of e_{j+1}."""
    return word_matrix(space, [v])


# -- isometries and similitudes ----------------------------------------------

@cache
def _basis_form_values(shape, n):
    """q(e_j), then ((i, j), B(e_i, e_j)) for i < j, as raw 0/1 read from
    _pairs: q(e_j) = 1 only on the odd shape's square slot, and B(e_i, e_j)
    = 1 exactly on a hyperbolic pair.  Shared by every space of one shape
    and rank, over every field."""
    pairs = _pairs(shape, n)
    d = _dim(shape, n)
    q_vals = tuple(int((j, j) in pairs) for j in range(d))
    b_vals = tuple(((i, j), int((i, j) in pairs))
                   for i in range(d) for j in range(i + 1, d))
    return q_vals, b_vals


def _gram_pairs(space, m):
    """(got, want) for q on each column of m, then B on each pair of columns,
    against the basis values: m scales q by c iff got = c * want throughout,
    over any ring."""
    _check_matrix(space, m)
    cols = tuple(zip(*m.rows))
    q_vals, b_vals = _basis_form_values(space.shape, space.n)
    for col, want in zip(cols, q_vals):
        yield space.raw_q(col), want
    for (i, j), want in b_vals:
        yield space.raw_b(cols[i], cols[j]), want


def is_isometry(space, m):
    """True iff m preserves q; stops at the first Gram value that differs."""
    return all(got == want for got, want in _gram_pairs(space, m))


def similitude_factor(space, m):
    """The unit c with q(mx) = c q(x) for all x, or None if there is none."""
    f = space.field
    pairs = list(_gram_pairs(space, m))
    factor = next((f.raw_div(got, want) for got, want in pairs if want), None)
    if not factor or any(got != f.raw_mul(factor, want) for got, want in pairs):
        return None
    return FieldElement(f, factor)


def dickson(space, m):
    """Dickson invariant in {0, 1} of an isometry of an even-dimensional
    split space: rank(m - 1) mod 2 in characteristic 2, else 0 iff det = 1."""
    if space.shape == "odd":
        raise OddDimension("Dickson invariant is exposed on even-rank shapes only")
    _check_matrix(space, m)
    if not is_isometry(space, m):
        raise NotAnIsometry("Dickson invariant of a non-isometry")
    return _dickson(space, m)


def _dickson(space, m):
    """dickson() for a matrix the caller has just shown to be an isometry of
    this even-rank space."""
    f = space.field
    if f.characteristic == 2:
        shifted = GroupElement(f, [tuple(f.raw_sub(x, 1 if i == j else 0)
                                         for j, x in enumerate(row))
                                   for i, row in enumerate(m.rows)])
        return shifted.rank() % 2
    return 0 if m.det().rep == f.one.rep else 1


def _check_matrix(space, m):
    if m.field != space.field:
        raise FieldMismatch(f"{space.field} vs {m.field}")
    if m.dim != space.dim:
        raise DimensionMismatch(f"space dim {space.dim}, matrix dim {m.dim}")
    if not m.is_invertible:
        raise SingularMatrix("matrix is singular")


# -- stabilization embeddings -------------------------------------------------

def embed_odd_to_pointed(v):
    """(x_1..x_{2n+1}) -> (x_1..x_n, x_{2n+1}, x_{n+1}..x_{2n}, x_{2n+1});
    q-preserving, and sends the odd one-vector to the pointed one-vector."""
    d = len(v.raws)
    if d % 2 == 0 or d < 3:
        raise DimensionMismatch(f"expected odd length >= 3, got {d}")
    n = (d - 1) // 2
    r = v.raws
    out = r[:n] + (r[2 * n],) + r[n:2 * n] + (r[2 * n],)
    return Vector(v.field, out)


def embed_even_to_odd(v):
    """Append a final zero coordinate; q-preserving."""
    d = len(v.raws)
    if d % 2 or d < 2:
        raise DimensionMismatch(f"expected even length >= 2, got {d}")
    return Vector(v.field, v.raws + (0,))
