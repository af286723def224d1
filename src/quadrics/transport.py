"""Constructive transitivity: reflection words realizing prescribed motions.

Two-case rule for moving x to y with q(x) = q(y) = q:

  case 1:  q(x - y) = 2q - B(x, y) invertible: the single reflection r_{x-y}.
  case 2:  q(x - y) = 0: pick w with q(w), B(x, w), B(y, w) all nonzero and
           set w' = x - r_w(y); then q(w') = B(w,x) B(w,y) / q(w) != 0 and
           r_w(r_{w'}(x)) = y.

_two_reflections is the rule's one implementation, on raw letters
(v, 1/q(v)) with the norms from these identities, behind the two
transports here and action.verify_similitude_orbit.  reflection_transport
draws w from the structured vectors and a sweep.
For quadric points every reflection vector has trace 0, so the assembled
element fixes 1, and there is no search: the rule moves the point p to
x_0 with the one auxiliary a = e_{n+1} - e_{2n+2}, which serves in case 2
(p_{n+1} = 0) over every field, and the reversed word moves x_0 to p.  A
case-1 word is followed by r_{u*}, u* = e_1 + e_{n+2} (which fixes both 1
and x_0), to land in the Dickson-0 model; both letters are built once per
GroupContext.  A certificate is its word, and its matrix is derived from it
(quadform.word_matrix).  TransportCertificate.verify is its one check, run
at construction: q once per letter, one Gram pass and the Dickson invariant
from the matrix's h x h Lagrangian block (quadform.dickson).
"""

from itertools import product

from .errors import (
    InvariantViolation,
    NonUnitNorm,
    NormMismatch,
    NotOnQuadric,
    SearchExhausted,
)
from .quadform import Vector, _dickson, is_isometry, word_matrix
from .quadric import AmbientQuadricPoint, enumerate_quadric, is_on_quadric

DEFAULT_HEIGHT = 5


class TransportCertificate:
    """A reflection word [v_1, ..., v_m] of Vectors, acting right to left as
    r_{v_1} ... r_{v_m}, that moves `source` to `target`; `matrix` is derived
    from the word on each read.  `verify()` is the one check: the call made
    at construction records the Dickson invariant and sets `verified`, and
    each later call recomputes everything from the word.  A word vector with
    q = 0 fails it, so construction raises InvariantViolation for it too."""

    __slots__ = ("space", "word", "source", "target", "dickson", "path", "verified")

    def __init__(self, space, word, source, target, path):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "word", tuple(word))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "verified", False)
        if not self.verify():
            raise InvariantViolation("transport certificate failed verification")
        object.__setattr__(self, "verified", True)

    def __setattr__(self, name, value):
        raise AttributeError("TransportCertificate is immutable")

    @property
    def matrix(self):
        """The word's matrix, word_matrix(space, word)."""
        return word_matrix(self.space, self.word)

    def verify(self):
        """Recheck from the word: its matrix (a letter with q = 0 fails), the
        move from source to target, one Gram pass, and the Dickson invariant,
        which the first call records and later calls compare against."""
        space = self.space
        try:
            m = self.matrix
        except NonUnitNorm:
            return False
        if m.apply(self.source) != self.target or not is_isometry(space, m):
            return False
        d = _dickson(space, m)
        if not self.verified:
            object.__setattr__(self, "dickson", d)
        return d == self.dickson

    def __len__(self):
        return len(self.word)

    def to_dict(self):
        return {
            "word": [v.to_strings() for v in self.word],
            "scalar": None,   # no certificate is scaled; the record keeps its keys
            "dickson": self.dickson,
            "source": self.source.to_strings(),
            "target": self.target.to_strings(),
            "path": self.path,
            "verified": self.verified,
        }

    def __repr__(self):
        return (f"TransportCertificate(path={self.path}, word_length={len(self.word)}, "
                f"dickson={self.dickson})")


# -- the two-reflection rule -------------------------------------------------

def _candidates(space):
    """Case-2 candidates, drawn lazily: the structured vectors, then every
    vector over a finite field, or integer coordinates of height at most
    DEFAULT_HEIGHT over the rationals."""
    yield from space.structured_vectors()
    f = space.field
    if f.is_finite:
        yield from space.enumerate_vectors()
        return
    coords = [f.element(c).rep for c in range(-DEFAULT_HEIGHT, DEFAULT_HEIGHT + 1)]
    yield from (Vector(f, raws) for raws in product(coords, repeat=space.dim))


def _two_reflections(space, x, y, q, auxiliaries):
    """(letters, path) of the two-case rule moving x to y, raw tuples with
    q(x) = q(y) = q.  The letters [(v, 1/q(v)), ...] act right to left:
    [] when x = y, [x - y] in case 1, else [w, x - r_w(y)] for the first
    letter (w, 1/q(w)) of auxiliaries with B(x, w) and B(y, w) nonzero.
    No q is evaluated: q(x - y) = 2q - B(x, y), and r_w(y) = y - c w with
    c = B(w, y) / q(w), so x - r_w(y) = (x - y) + c w has norm B(w, x) c."""
    if x == y:
        return [], "identity"
    f = space.field
    diff = f.raw_lincomb(1, x, f.raw_neg(1), y)
    q_diff = f.raw_sub(f.raw_add(q, q), space.raw_b(x, y))
    if q_diff:
        return [(diff, f.raw_inv(q_diff))], "case1"
    if any(space.raw_polar(x)) and any(space.raw_polar(y)):   # else no w can serve
        raw_b, mul, inv = space.raw_b, f.raw_mul, f.raw_inv
        for w, inv_qw in auxiliaries:
            bwx = raw_b(w, x)
            if bwx and (bwy := raw_b(w, y)):
                c = mul(bwy, inv_qw)
                return [(w, inv_qw), (f.raw_lincomb(1, diff, c, w), inv(mul(bwx, c)))], "case2"
    raise SearchExhausted("no auxiliary vector w with q(w), B(x,w), B(y,w) all nonzero")


# -- the transport operations -------------------------------------------------

def reflection_transport(space, x, y):
    """A verified word of at most two reflections moving x to y.  q(x) = q(y)
    is checked here, and case 2 searches w over _candidates, skipping those
    with q = 0."""
    space._check_dim(x)
    space._check_dim(y)
    qx, qy = space.raw_q(x.raws), space.raw_q(y.raws)
    if qx != qy:
        raise NormMismatch(f"q(x) = {qx} but q(y) = {qy}")
    raw_q, inv = space.raw_q, space.field.raw_inv
    auxiliaries = ((v.raws, inv(qv)) for v in _candidates(space) if (qv := raw_q(v.raws)))
    letters, path = _two_reflections(space, x.raws, y.raws, qx, auxiliaries)
    word = [Vector(space.field, v) for v, _ in letters]
    return TransportCertificate(space, word, x, y, path)


def dickson_fixer(ctx):
    """u* = e_1 + e_{n+2} for a GroupContext or its pointed even space:
    q(u*) = 1, t(u*) = 0, B(u*, x_0) = 0, so r_{u*} fixes both 1 and x_0
    and flips the Dickson invariant."""
    return Vector.of(ctx.field, [int(i in (0, ctx.n + 1)) for i in range(ctx.dim)])


def case2_vector(ctx):
    """a = e_{n+1} - e_{2n+2}: q(a) = -1, t(a) = 0, B(x_0, a) = 1, and
    B(w, a) = w_{2n+2} - w_{n+1} = 1 at every quadric point w with
    w_{n+1} = 0, which are exactly the points of case 2."""
    return Vector.of(ctx.field, [0] * ctx.n + [1] + [0] * ctx.n + [-1])


def _fixed_letter(ctx, build, inv_q):
    """The raw letter (build(ctx), inv_q), built once per context."""
    if build not in ctx.fixed_letters:
        ctx.fixed_letters[build] = build(ctx).raws, ctx.field.element(inv_q).rep
    return ctx.fixed_letters[build]


def quadric_transport(ctx, point):
    """A verified SO-model certificate moving x_0 to the given quadric point:
    the rule's word from the point to x_0, reversed, since
    (r_w r_{w'})^{-1} = r_{w'} r_w, with trace-0 letters and no search."""
    space = ctx.space
    if isinstance(point, AmbientQuadricPoint):
        if point.space != space:
            raise NotOnQuadric("point belongs to a different quadric")
        target = point.w
    else:
        target = point
        if not is_on_quadric(space, target):
            raise NotOnQuadric(f"{target!r} is not on the quadric")
    # q(target) = q(x_0) = 0 needs no evaluation; the one auxiliary letter
    # (a, 1/q(a)) = (a, -1) is drawn only in case 2
    auxiliaries = (_fixed_letter(ctx, case2_vector, -1) for _ in range(1))
    try:
        letters, path = _two_reflections(space, target.raws, ctx.x0.raws, 0, auxiliaries)
    except SearchExhausted:
        raise InvariantViolation("case-2 vector a violated its guarantees") from None
    letters = letters[::-1]
    if path == "case1":
        # r_diff moves x_0 to the target but has Dickson 1; compose with r_{u*}
        letters.append(_fixed_letter(ctx, dickson_fixer, 1))
    if any(space.raw_trace(v) for v, _ in letters):
        raise InvariantViolation("quadric transport word left the trace-0 subspace")
    word = [Vector(space.field, v) for v, _ in letters]
    return TransportCertificate(space, word, ctx.x0, target, path)


def transport_all(ctx, force=False):
    """Certificates for every point of the quadric over a finite field,
    in enumeration order, with path statistics."""
    points = enumerate_quadric(ctx.space, force=force)
    certs = [quadric_transport(ctx, p) for p in points]
    stats = {"identity": 0, "case1": 0, "case2": 0}
    for c in certs:
        stats[c.path] += 1
    return certs, stats
