"""The quadratic Jordan view of the pointed even space: squaring through the
degree-2 identity, the U operator, and rank-1 projections.

On (V, q, 1) with trace t(x) = B(x, 1) and conjugation x* = t(x) 1 - x:

    x^2   = t(x) x - q(x) 1
    U_x y = B(x, y*) x - q(x) y*

These satisfy U_1 = id and U_x 1 = x^2.  The rank-1 projections, the x with
x^2 = x and t(x) = 1, are exactly the points of the quadric: the squaring
identity at t(x) = 1 reads x - q(x) 1 = x, forcing q(x) = 0.
"""

from collections import Counter
from itertools import product

from .errors import InfiniteField, TooLarge
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
    q^{2n+1} vectors in lexicographic order.  They go in blocks of the q^k
    consecutive vectors that share all but their last k = min(n, 2) free
    coordinates to the compiled kernel space._idempotent_check, which tests
    each against both predicates on its own coordinates, with t(x) and q(x)
    evaluated once and x^2 = t x - q 1 built from them."""
    if not field.is_finite:
        raise InfiniteField("the projective-space check enumerates a finite field")
    if not force and exceeds(field.q, 2 * n + 2, ENUM_GUARD):
        raise TooLarge(f"{field.q}^{2 * n + 2} vectors exceeds the guard")
    space = SplitSpace.pointed_even(field, n)
    check, sub, rng = space._idempotent_check, field.raw_sub, range(field.q)
    k = min(n, 2)   # the free coordinates after x_{n+1}, which fixes x_{2n+2}
    # the last k free coordinates and x_{2n+2}, by the value of x_{n+1}
    tails = [[s + (sub(1, c),) for s in product(rng, repeat=k)] for c in rng]
    verdicts = Counter()   # (idempotent, quadric point) -> vectors
    for head in product(rng, repeat=2 * n + 1 - k):
        verdicts.update(check([head + s for s in tails[head[n]]]))
    both = verdicts[True, True]
    agree = not verdicts[True, False] and not verdicts[False, True]
    return {
        "check": "spin_projective",
        "n": n,
        "field": str(field),
        "idempotents": both + verdicts[True, False],
        "quadric_points": both + verdicts[False, True],
        "equal": agree,
        "pass": agree,
    }
