"""Constructive transitivity: reflection words realizing prescribed motions.

Two-case recipe for moving x to y with q(x) = q(y):

  case 1:  q(x - y) invertible: the single reflection r_{x-y} works.
  case 2:  q(x - y) = 0: pick w with q(w), B(x, w), B(y, w) all nonzero and
           set w' = x - r_w(y); then q(w') = B(w,x) B(w,y) / q(w) != 0 and
           r_w(r_{w'}(x)) = y.

For quadric points the reflection vectors are restricted to the trace-0
subspace, so the assembled element fixes 1.  Both cases have closed forms
there, with no search: case 1 is the single reflection r_{w - x_0},
post-composed with r_{u*}, u* = e_1 + e_{n+2} (which fixes both 1 and x_0),
to land in the Dickson-0 model; case 2 happens exactly when w_{n+1} = 0, and
then a = e_{n+1} - e_{2n+2} serves as the auxiliary vector over every field.
Each certificate costs O(d^3).  TransportCertificate.verify is its one check:
construction runs it, and so can any later caller.  It makes one Gram pass
for the similitude factor and computes the Dickson invariant from the matrix.
"""

from itertools import chain, product

from .errors import (
    InfiniteField,
    InvariantViolation,
    IsotropicVector,
    NonSquareNorm,
    NormMismatch,
    NotOnQuadric,
    SearchExhausted,
)
from .fields import FieldElement
from .quadform import Vector, _dickson, reflect, similitude_factor, word_matrix
from .quadric import AmbientQuadricPoint, is_on_quadric

DEFAULT_HEIGHT = 5


class TransportCertificate:
    """A reflection word (plus optional scalar) with its assembled matrix.

    The word [v_1, ..., v_m] acts right to left: the assembled element is
    r_{v_1} ... r_{v_m} composed with the scalar, which commutes.  Applying
    it to `source` yields `target`.  `verify()` is the one check: the call
    made at construction records the Dickson invariant it computes and sets
    `verified`; each later call recomputes everything from the matrix.
    """

    __slots__ = ("space", "word", "scalar", "source", "target", "matrix",
                 "dickson", "path", "verified")

    def __init__(self, space, word, scalar, source, target, path):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "word", tuple(word))
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "matrix", word_matrix(space, self.word, scalar))
        object.__setattr__(self, "verified", False)
        if not self.verify():
            raise InvariantViolation("transport certificate failed verification")
        object.__setattr__(self, "verified", True)

    def __setattr__(self, name, value):
        raise AttributeError("TransportCertificate is immutable")

    def verify(self):
        """Recheck the certificate from the word and the matrix: word vectors
        have invertible norm, the matrix moves source to target, and one Gram
        pass gives similitude factor scalar^2 (1 without a scalar).  With
        factor 1 on an even shape the Dickson invariant is computed from the
        matrix; the first call records it, later calls compare against it."""
        space = self.space
        for v in self.word:
            if not space.raw_q(v.raws):
                return False
        if self.matrix.apply(self.source) != self.target:
            return False
        factor = similitude_factor(space, self.matrix)
        one = space.field.one
        if factor != (one if self.scalar is None else self.scalar * self.scalar):
            return False
        d = _dickson(space, self.matrix) if factor == one and space.shape != "odd" else None
        if not self.verified:
            object.__setattr__(self, "dickson", d)
        return d == self.dickson

    def __len__(self):
        return len(self.word)

    def to_dict(self):
        return {
            "word": [v.to_strings() for v in self.word],
            "scalar": None if self.scalar is None else str(self.scalar),
            "dickson": self.dickson,
            "source": self.source.to_strings(),
            "target": self.target.to_strings(),
            "path": self.path,
            "verified": self.verified,
        }

    def __repr__(self):
        return (f"TransportCertificate(path={self.path}, word_length={len(self.word)}, "
                f"dickson={self.dickson})")


# -- candidate streams -------------------------------------------------------

def _full_sweep(space):
    """All vectors of the space: enumerate_vectors over a finite field,
    integer coordinates of height <= DEFAULT_HEIGHT over the rationals."""
    f = space.field
    if f.is_finite:
        return space.enumerate_vectors()
    coords = [f.element(c).rep for c in range(-DEFAULT_HEIGHT, DEFAULT_HEIGHT + 1)]
    return (Vector(f, raws) for raws in product(coords, repeat=space.dim))


# -- the transport operations -------------------------------------------------

def reflection_transport(space, x, y):
    """A verified word of at most two reflections moving x to y.

    Requires q(x) = q(y).  When the difference is anisotropic a single
    reflection suffices; otherwise the auxiliary vector w is searched over
    the structured vectors first, then the full sweep.
    """
    space._check_dim(x)
    space._check_dim(y)
    if x == y:
        return TransportCertificate(space, [], None, x, y, "identity")
    qx, qy = space.raw_q(x.raws), space.raw_q(y.raws)
    if qx != qy:
        raise NormMismatch(f"q(x) = {qx} but q(y) = {qy}")
    diff = x - y
    if space.raw_q(diff.raws):
        return TransportCertificate(space, [diff], None, x, y, "case1")
    for w in chain(space.structured_vectors(), _full_sweep(space)):
        if not space.raw_q(w.raws):
            continue
        if not space.raw_b(x.raws, w.raws) or not space.raw_b(y.raws, w.raws):
            continue
        w_prime = x - reflect(space, w, y)
        if not space.raw_q(w_prime.raws):
            # q(w') = B(w,x) B(w,y) / q(w) is nonzero under the search
            # conditions; reaching this line would falsify that identity
            raise InvariantViolation("two-reflection auxiliary vector has q = 0")
        return TransportCertificate(space, [w, w_prime], None, x, y, "case2")
    raise SearchExhausted("no auxiliary vector w with q(w), B(x,w), B(y,w) all nonzero")


def dickson_fixer(ctx):
    """u* = e_1 + e_{n+2}: q(u*) = 1, t(u*) = 0, B(u*, x_0) = 0, so r_{u*}
    fixes both 1 and x_0 and flips the Dickson invariant."""
    vals = [0] * ctx.dim
    vals[0] = 1
    vals[ctx.n + 1] = 1
    return Vector.of(ctx.field, vals)


def case2_vector(ctx):
    """a = e_{n+1} - e_{2n+2}: q(a) = -1, t(a) = 0, B(x_0, a) = 1, and
    B(w, a) = w_{2n+2} - w_{n+1} = 1 at every quadric point w with
    w_{n+1} = 0, which are exactly the points of case 2."""
    vals = [0] * ctx.dim
    vals[ctx.n] = 1
    vals[-1] = -1
    return Vector.of(ctx.field, vals)


def quadric_transport(ctx, point):
    """A verified SO-model certificate moving x_0 to the given quadric point,
    with a trace-0 reflection word of length at most 2, built in closed form."""
    space = ctx.space
    if isinstance(point, AmbientQuadricPoint):
        if point.space != space:
            raise NotOnQuadric("point belongs to a different quadric")
        target = point.w
    else:
        target = point
        if not is_on_quadric(space, target):
            raise NotOnQuadric(f"{target!r} is not on the quadric")
    x0 = ctx.x0
    if target == x0:
        return TransportCertificate(space, [], None, x0, target, "identity")
    diff = target - x0
    if space.raw_q(diff.raws):
        # r_diff moves x_0 to the target but has Dickson 1; compose with r_{u*}
        word = [diff, dickson_fixer(ctx)]
        return TransportCertificate(space, word, None, x0, target, "case1")
    # q(target - x_0) = -target_{n+1} = 0: case 2 with the closed-form a
    a = case2_vector(ctx)
    if (space.raw_trace(a.raws) or not space.raw_q(a.raws)
            or not space.raw_b(x0.raws, a.raws) or not space.raw_b(target.raws, a.raws)):
        raise InvariantViolation("case-2 vector a violated its guarantees")
    a_prime = target - reflect(space, a, x0)
    if not space.raw_q(a_prime.raws) or space.raw_trace(a_prime.raws):
        raise InvariantViolation("case-2 auxiliary vector violated its guarantees")
    return TransportCertificate(space, [a_prime, a], None, x0, target, "case2")


def similitude_transport(space, v):
    """A certificate scaling v to norm 1 and reflecting it onto the
    one-vector; fails with NonSquareNorm when 1/q(v) is not a square, the
    rational-point obstruction to similitude transitivity."""
    space._check_dim(v)
    f = space.field
    qv = space.raw_q(v.raws)
    if not qv:
        raise IsotropicVector("q(v) = 0")
    one = space.one_vector()
    if v == one:
        return TransportCertificate(space, [], None, v, one, "identity")
    if not f.is_finite:
        raise InfiniteField("similitude transport searches square roots in finite fields")
    lam = f.raw_sqrt(f.raw_inv(qv))
    if lam is None:
        raise NonSquareNorm(f"1/q(v) = {f.raw_inv(qv)} is not a square")
    scalar = FieldElement(f, lam)
    inner = reflection_transport(space, v.scale(scalar), one)
    return TransportCertificate(space, inner.word, scalar, v, one,
                                "scaled_" + inner.path)


def transport_all(ctx, force=False):
    """Certificates for every point of the quadric over a finite field,
    in enumeration order, with path statistics."""
    from .quadric import enumerate_quadric
    points = enumerate_quadric(ctx.space, force=force)
    certs = [quadric_transport(ctx, p) for p in points]
    stats = {"identity": 0, "case1": 0, "case2": 0}
    for c in certs:
        stats[c.path] += 1
    return certs, stats
