"""The quadratic Jordan view of the pointed even space: squaring through the
degree-2 identity, the U operator, and rank-1 projections.

On (V, q, 1) with trace t(x) = B(x, 1) and conjugation x* = t(x) 1 - x:

    x^2   = t(x) x - q(x) 1
    U_x y = B(x, y*) x - q(x) y*

These satisfy U_1 = id and U_x 1 = x^2.  The rank-1 projections, the x with
x^2 = x and t(x) = 1, are exactly the points of the quadric: the squaring
identity at t(x) = 1 reads x - q(x) 1 = x, forcing q(x) = 0.
"""

from itertools import product

from .errors import TooLarge
from .guards import ENUM_GUARD, exceeds
from .quadform import SplitSpace, Vector


class SpinFactor:
    """The Jordan structure carried by the pointed even split space."""

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.space = SplitSpace.pointed_even(field, n)
        self.one = self.space.one_vector()

    def trace(self, x):
        return self.space.trace(x)

    def conjugate(self, x):
        """x* = t(x) 1 - x; an involution fixing the trace."""
        self.space._check_dim(x)
        t = self.space.raw_trace(x.raws)
        f = self.field
        return Vector(f, f.raw_lincomb(t, self.one.raws, f.raw_neg(1), x.raws))

    def jsquare(self, x):
        """x^2 = t(x) x - q(x) 1."""
        self.space._check_dim(x)
        return Vector(self.field, self.raw_jsquare(x.raws))

    def raw_jsquare(self, raws):
        """x^2 = t(x) x - q(x) 1 on a raw tuple; nothing is checked."""
        return self._raw_square(raws, self.space.raw_trace(raws), self.space.raw_q(raws))

    def _raw_square(self, raws, t, q):
        """x^2 = t x - q 1 on a raw tuple, given t = t(x) and q = q(x)."""
        f = self.field
        return f.raw_lincomb(t, raws, f.raw_neg(q), self.one.raws)

    def u_operator(self, x, y):
        """U_x y = B(x, y*) x - q(x) y*."""
        self.space._check_dim(x)
        self.space._check_dim(y)
        f = self.field
        y_conj = self.conjugate(y)
        b = self.space.raw_b(x.raws, y_conj.raws)
        q = self.space.raw_q(x.raws)
        return Vector(f, f.raw_lincomb(b, x.raws, f.raw_neg(q), y_conj.raws))

    def is_rank_one_projection(self, x):
        """x^2 = x together with t(x) = 1."""
        self.space._check_dim(x)
        return (self.jsquare(x) == x
                and self.space.raw_trace(x.raws) == self.field.one.rep)

    def __repr__(self):
        return f"SpinFactor(n={self.n}, over {self.field})"


def verify_projective_space(field, n, force=False):
    """Exhaustively compare {x : x^2 = x, t(x) = 1} with the quadric point
    set over a finite field.  Both sets lie in the hyperplane t(x) = 1, so
    only it is swept: x_1..x_{2n+1} run over F_q and x_{2n+2} = 1 - x_{n+1},
    q^{2n+1} vectors, each tested against both predicates, with t(x) and
    q(x) evaluated once per vector."""
    if not field.is_finite:
        raise TooLarge("the projective-space check enumerates a finite field")
    if not force and exceeds(field.q, 2 * n + 2, ENUM_GUARD):
        raise TooLarge(f"{field.q}^{2 * n + 2} vectors exceeds the guard")
    sf = SpinFactor(field, n)
    space = sf.space
    square, raw_trace, raw_q = sf._raw_square, space.raw_trace, space.raw_q
    sub, one = field.raw_sub, field.one.rep
    idempotents = 0
    quadric_points = 0
    agree = True
    for head in product(range(field.q), repeat=space.dim - 1):
        raws = head + (sub(one, head[n]),)
        # both predicates ask for t(x) = 1, which the sweep makes true
        t, q = raw_trace(raws), raw_q(raws)
        trace_one = t == one
        is_idem = trace_one and square(raws, t, q) == raws
        is_point = trace_one and q == 0
        idempotents += is_idem
        quadric_points += is_point
        agree = agree and (is_idem == is_point)
    return {
        "check": "spin_projective",
        "n": n,
        "field": str(field),
        "idempotents": idempotents,
        "quadric_points": quadric_points,
        "equal": agree,
        "pass": agree,
    }
