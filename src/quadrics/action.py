"""Field-point models of the odd orthogonal groups inside the ambient
pointed even space, their action on the quadric, and the exact verification
of the orbit/stabilizer structure.

The models, for the pointed even space of dimension 2n+2 over F:

    O-model:   isometries of q fixing the vector 1   (Dickson unrestricted)
    SO-model:  O-model members with Dickson invariant 0
    stabilizer model: SO-model members fixing x_0 = e_{2n+2}

Reflections r_v with t(v) = 0 fix 1, so pairs of them are SO-model members
and generate the whole SO-model.  The homogeneity check builds a stabilizer
chain of Schreier vectors from a few such pairs by known-order random
Schreier-Sims (OrbitStabilizer, base x_0 and then the even basis vectors),
whose first level is the orbit of x_0 and whose lower levels hold its
stabilizer, and checks the orders against the classical formulas

    |SO_{2n+1}(F_q)| = q^(n^2) * prod_{i=1..n} (q^(2i) - 1)
    |SO_{2n}(F_q)|   = q^(n(n-1)) * (q^n - 1) * prod_{i=1..n-1} (q^(2i) - 1)

whose ratio is q^(2n) + q^n, the point count of the quadric.  No group is
listed: (n, q) = (2, 3) takes about 4 ms in-process (2 cores, Python 3.11),
its products on the compiled matmul and matvec kernels.
Every orbit here, the chain's and orbit()'s, is grown by one routine,
grow_orbit.  Column enumeration is the cross-check.

The similitude orbit of 1 grows no orbit: each expected vector is certified
by a word of at most two reflections from transport._two_reflections, the
package's one two-case rule, checked by applying it with quadform.raw_word,
and grow_orbit runs only for the vectors left without one (over F_2),
seeded with those certified: (2, 7) takes 0.3-0.5 s in-process (2 cores,
Python 3.11), its sweep on the compiled form kernels and raw_lincomb.
"""

import random
from functools import partial
from itertools import chain, product
from math import prod
from operator import itemgetter

from .errors import (
    DimensionMismatch,
    InvalidPrimePower,
    QuadricsError,
    SearchExhausted,
    TooLarge,
)
from .fields import is_prime_power
from .guards import BRUTE_GUARD, CLOSURE_GUARD, VECTOR_GUARD, exceeds
from .quadform import (
    GroupElement,
    SplitSpace,
    Vector,
    _dickson,
    is_isometry,
    raw_word,
    word_matrix,
)
from .quadric import AmbientQuadricPoint, _point_guard, _quadric_raws
from .transport import _two_reflections, dickson_fixer


class GroupContext:
    """Ambient data for one (n, field) pair: the pointed even space, the
    distinguished vectors 1 and x_0, and the even subspace spanned by
    e_1..e_n, e_{n+2}..e_{2n+1} on which q restricts to the split even form."""

    def __init__(self, field, n):
        self.field = field
        self.n = n
        self.space = SplitSpace.pointed_even(field, n)
        self.even_space = SplitSpace.even(field, n)
        self.dim = self.space.dim
        self.one = self.space.one_vector()
        self.x0 = self.space.basis_vector(self.dim - 1)
        self.even_slots = tuple(range(n)) + tuple(range(n + 1, 2 * n + 1))
        self.fixed_letters = {}   # transport's (u*, 1) and (a, -1), built on first use

    def extend_even(self, m):
        """Extend an even-space matrix by the identity on e_{n+1}, e_{2n+2}."""
        if m.dim != 2 * self.n:
            raise DimensionMismatch(f"expected dim {2 * self.n}, got {m.dim}")
        d = self.dim
        rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        for a, i in enumerate(self.even_slots):
            for b, j in enumerate(self.even_slots):
                rows[i][j] = m.rows[a][b]
        return GroupElement(self.field, rows)

    def restrict_even(self, m):
        """Restrict an ambient matrix to the even subspace slots."""
        return GroupElement(self.field, [[m.rows[i][j] for j in self.even_slots]
                                         for i in self.even_slots])

    def __repr__(self):
        return f"GroupContext(n={self.n}, over {self.field})"


# -- membership predicates -----------------------------------------------

def in_o_odd(ctx, m):
    """Isometry of the ambient form fixing the vector 1."""
    if m.dim != ctx.dim:
        raise DimensionMismatch(f"expected dim {ctx.dim}, got {m.dim}")
    return is_isometry(ctx.space, m) and m.apply(ctx.one) == ctx.one


def in_so_odd(ctx, m):
    """O-model member with ambient Dickson invariant 0; in_o_odd's Gram pass
    is the only one."""
    return in_o_odd(ctx, m) and _dickson(ctx.space, m) == 0


# -- reflection vectors and generators -------------------------------------

def structured_trace_zero(ctx):
    """The 2n+1 vectors e_i +/- e_{n+1+i} (i <= n) and e_{n+1} - e_{2n+2}:
    the space's structured vectors of trace 0; each has q = +/-1."""
    space = ctx.space
    return [v for v in space.structured_vectors() if not space.raw_trace(v.raws)]


def trace_zero_reflection_vectors(ctx, force=False):
    """All trace-0 vectors with q invertible, normalized so the first
    nonzero coordinate is 1 (proportional vectors give the same reflection);
    structured candidates first, then the lexicographic sweep."""
    f, d = ctx.field, ctx.dim
    if not f.is_finite:
        raise TooLarge("reflection sweep needs a finite field")
    if not force and exceeds(f.q, d - 1, VECTOR_GUARD):
        raise TooLarge(f"{f.q}^{d - 1} trace-0 vectors exceeds the sweep guard")
    return [Vector(f, raws) for raws in _trace_zero_sweep(ctx)]


def _trace_zero_sweep(ctx, extra=()):
    """Lazily, the normalized raws of the structured trace-0 vectors, then of
    the raws in `extra`, then of the lexicographic trace-0 sweep; repeats and
    vectors with q = 0 are skipped."""
    f, n, d = ctx.field, ctx.n, ctx.dim
    neg = f.raw_neg
    swept = (free + (neg(free[n]),) for free in product(range(f.q), repeat=d - 1))
    seen = set()
    for raws in chain((v.raws for v in structured_trace_zero(ctx)), extra, swept):
        key = _normalize_raws(f, raws)
        if key is not None and key not in seen and ctx.space.raw_q(key):
            seen.add(key)
            yield key


def _normalize_raws(f, raws):
    lead = next((a for a in raws if a), None)
    if lead is None:
        return None
    if lead == 1:
        return tuple(raws)
    c = f.raw_inv(lead)
    mul = f.raw_mul
    return tuple(mul(c, a) for a in raws)


def grow_orbit(found, new, maps, apply, stop=None):
    """Extend found, a Schreier vector point -> (map, parent) with seeds
    -> (None, None), breadth-first: each map of `new` on the points already
    in it, every map of `maps` on those that turn up, y = apply(map, x)
    stored as y -> (map, x).  Returns found, early once len(found) == stop."""
    work = [(x, new) for x in found]
    for x, ms in work:   # grows while it is walked: the BFS queue
        for s in ms:
            y = apply(s, x)
            if y not in found:
                found[y] = (s, x)
                if len(found) == stop:
                    return found
                work.append((y, maps))
    return found


# -- group enumeration ------------------------------------------------------

def enumerate_isometries(space, fix_one=False, dickson_value=None, force=False):
    """Direct column-by-column enumeration of all isometries of a split even
    or pointed even space, optionally fixing the one-vector (pointed even
    only) and optionally filtered by Dickson invariant: the cross-check of
    the stabilizer chain on small fields.

    With fix_one, col_{2n+2} is filled first and forces col_{n+1}, since
    m * 1 = 1.  Candidates are pre-bucketed by their q-value.  Images with
    the correct Gram data are automatically linearly independent because the
    bilinear form is nondegenerate on these shapes.
    """
    f, d = space.field, space.dim
    _isometry_guard(space, force)
    if fix_one and space.shape != "pointed_even":
        raise DimensionMismatch("the one-vector lives in the pointed even space")
    n = space.n

    by_q = {}
    for raws in product(range(f.q), repeat=d):
        by_q.setdefault(space.raw_q(raws), []).append(raws)
    basis = [tuple(1 if i == j else 0 for i in range(d)) for j in range(d)]
    q_ref = [space.raw_q(b) for b in basis]
    b_ref = [[space.raw_b(basis[i], basis[j]) for j in range(d)] for i in range(d)]

    if fix_one:
        order = [d - 1, n] + [j for j in range(d) if j not in (d - 1, n)]
        one_raws = space.one_vector().raws
    else:
        order = list(range(d))

    raw_b, raw_sub = space.raw_b, f.raw_sub
    cols = [None] * d
    results = []

    def place(k):
        if k == d:
            results.append(tuple(zip(*cols)))
            return
        j = order[k]
        if fix_one and j == n:
            forced = tuple(raw_sub(a, b) for a, b in zip(one_raws, cols[d - 1]))
            candidates = (forced,) if space.raw_q(forced) == q_ref[j] else ()
        else:
            candidates = by_q.get(q_ref[j], ())
        previous = [(order[i], cols[order[i]]) for i in range(k)]
        for c in candidates:
            if all(raw_b(c, prev) == b_ref[j][i] for i, prev in previous):
                cols[j] = c
                place(k + 1)
        cols[j] = None

    place(0)
    out = [GroupElement(f, rows) for rows in results]
    if dickson_value is not None:
        # every column search result is an isometry by construction
        out = [m for m in out if _dickson(space, m) == dickson_value]
    return out


def _isometry_guard(space, force):
    """Refuse a direct isometry search over q^(dim^2) candidate matrices."""
    f, d = space.field, space.dim
    if not f.is_finite:
        raise TooLarge("group enumeration needs a finite field")
    if not force and exceeds(f.q, d * d, BRUTE_GUARD):
        raise TooLarge(f"{f.q}^{d * d} candidate matrices exceeds the guard")


def so_model_closure(ctx, force=False):
    """The SO-model listed from the stabilizer chain of so_orbit_stabilizer,
    as every product of one transversal element per level; returns the
    elements as a set of row tuples and the rows of the pair generators."""
    if not ctx.field.is_finite:
        raise TooLarge("group enumeration needs a finite field")
    expected = group_order("odd", ctx.n, ctx.field.q)
    if not force and expected > CLOSURE_GUARD:
        raise TooLarge(f"group order {expected} exceeds the closure guard")
    found, gens = so_orbit_stabilizer(ctx, force=force)
    if found.order() != expected:
        raise QuadricsError(
            f"stabilizer chain reached {found.order()} of {expected} elements")
    return set(found.elements()), [g.rows for g in gens]


def enumerate_group(ctx, model="so_odd", force=False):
    """List one of the group models of a GroupContext, sorted by rows: "o_odd"
    (isometries fixing 1, by the column search) or "so_odd" (plus Dickson 0,
    listed from the stabilizer chain by so_model_closure).  The isometries
    of a bare SplitSpace are listed by enumerate_isometries."""
    if model == "o_odd":
        members = enumerate_isometries(ctx.space, fix_one=True, force=force)
    elif model == "so_odd":
        rows, _ = so_model_closure(ctx, force=force)
        members = [GroupElement(ctx.field, r) for r in rows]
    else:
        raise ValueError(f"unknown context model {model!r}")
    return sorted(members, key=lambda m: m.rows)


def stabilizer(ctx, point, members=None, force=False):
    """All SO-model elements fixing the given quadric point."""
    if members is None:
        members = enumerate_group(ctx, "so_odd", force=force)
    raws = point.w.raws if isinstance(point, AmbientQuadricPoint) else point.raws
    matvec = ctx.field.matvec
    return [m for m in members if matvec(m.rows, raws) == raws]


def orbit(ctx, force=False):
    """The orbit of the base point x_0 under the SO-model, grown by
    grow_orbit from reflection pairs r_a r_v; deterministic discovery order,
    x_0 first."""
    f = ctx.field
    space = ctx.space
    gens = [(v.raws, f.raw_inv(space.raw_q(v.raws)))
            for v in trace_zero_reflection_vectors(ctx, force=force)]
    pairs = [[gens[0], g] for g in gens]   # r_a r_v
    found = grow_orbit({ctx.x0.raws: (None, None)}, pairs, pairs, partial(raw_word, space))
    return [AmbientQuadricPoint(space, Vector(f, w)) for w in found]


# -- orbit-stabilizer without listing the group -------------------------------

class OrbitStabilizer:
    """A stabilizer chain on raw row tuples for known-order random
    Schreier-Sims (Seress, Permutation Group Algorithms, 4.3 and 4.5).

    Each level holds the orbit of its base point b under the level's
    generators as a Schreier vector, tree: p -> (s, p') with p = s p'.  The
    transversal u_p (u_p b = p) is formed from it, and kept, only when a
    sift, complete() or elements() reaches p.
    A level's generators fix the base points above it, so the products of
    one transversal element per level are distinct elements of the group
    all generators generate: order() is at most its order.  Past the last
    base point only the identity is left: the base and 1 span the space,
    and the SO-model fixes 1.  An isometry's inverse is its adjoint G u^T G,
    G the Gram permutation (partner[i] pairs with i): an index shuffle.
    """

    def __init__(self, field, base, partner):
        self._matmul, self._matvec = field.matmul, field.matvec
        self._pick = itemgetter(*partner)
        self._identity = GroupElement.identity(field, len(partner)).rows
        self.point = base[0] if base else None
        self.tree = {self.point: (None, None)} if base else {}
        self._transversal = {self.point: self._identity}
        self.generators = []
        self.next = OrbitStabilizer(field, base[1:], partner) if base else None

    def levels(self):
        """This level and those below it that have a base point."""
        level = self
        while level.next is not None:
            yield level
            level = level.next

    def order(self):
        """Product of the orbit lengths."""
        return prod(len(level.tree) for level in self.levels())

    def inverse(self, u):
        """u^{-1} = G u^T G for an isometry u: (u^{-1})_ij = u_{partner j, partner i}."""
        pick = self._pick
        return tuple(map(pick, pick(tuple(zip(*u)))))

    def transversal(self, p):
        """u_p = s u_{p'} for p -> (s, p') in the tree, formed on first use."""
        u = self._transversal.get(p)
        if u is None:
            s, parent = self.tree[p]
            u = self._transversal[p] = self._matmul(s, self.transversal(parent))
        return u

    def elements(self):
        """Every product u_p h for an orbit point p and a product h of the
        levels below: the generated group once the chain is complete."""
        if self.next is None:
            return [self._identity]
        matmul, below = self._matmul, self.next.elements()
        return [matmul(self.transversal(p), h) for p in self.tree for h in below]

    def sift(self, g):
        """Walk g down the chain, going on with u_p^{-1} g where g b = p.
        Returns the first level whose orbit misses g b, with the residue
        there, or (None, residue) if g sifts through (for an SO-model
        element the residue then fixes the base and 1: the identity)."""
        matmul, matvec, inverse = self._matmul, self._matvec, self.inverse
        for level in self.levels():
            p = matvec(g, level.point)
            if p != level.point:
                if p not in level.tree:
                    return level, g
                g = matmul(inverse(level.transversal(p)), g)
        return None, g

    def add_generator(self, g):
        """Add g, which fixes the base points above, and extend the orbit."""
        self.generators.append(g)
        grow_orbit(self.tree, (g,), self.generators, self._matvec)

    def complete(self):
        """Deterministic Schreier-Sims (Seress 4.2), lowest level first:
        close the orbit under the generators of this level and those below,
        and sift each Schreier generator u_{sp}^{-1} s u_p below it; a
        residue is added where its sift stopped, and the pass resumes there.
        Afterwards order() is the order of the generated group."""
        matmul, matvec, inverse = self._matmul, self._matvec, self.inverse
        levels = list(self.levels())
        k = len(levels) - 1
        while k >= 0:
            level = levels[k]
            gens = [g for lower in levels[k:] for g in lower.generators]
            grow_orbit(level.tree, gens, gens, matvec)
            u = level.transversal
            sifts = (level.next.sift(matmul(inverse(u(matvec(s, p))), matmul(s, u(p))))
                     for p in level.tree for s in gens)
            stop, residue = next((hit for hit in sifts if hit[0] is not None), (None, None))
            if stop is None:
                k -= 1
            else:
                stop.add_generator(residue)
                k = levels.index(stop)


# Random sifts that must pass in a row before the next reflection pair is
# drawn; a fixed seed, so identical configurations do identical work.
SIFT_PATIENCE = 2
SIFT_SEED = 20210


def _product_replacement(rng, matmul, pool):
    """Product replacement with an accumulator (Celler et al. 1995): each
    step sets x_i = x_i x_j for random pool elements and yields the
    accumulator times x_i.  The pool may grow between steps."""
    acc = None
    while True:
        i, j = rng.randrange(len(pool)), rng.randrange(len(pool))
        if i != j:
            pool[i] = matmul(pool[i], pool[j])
        acc = pool[i] if acc is None else matmul(acc, pool[i])
        yield acc


def so_orbit_stabilizer(ctx, force=False):
    """The SO-model as a stabilizer chain with base x_0, then e_j for the
    even slots j, without listing the group: the first level holds the orbit
    of x_0, and the levels below it hold its stabilizer.

    Reflection pairs r_a r_v on trace-0 vectors are sifted in turn: the
    structured ones, in odd characteristic one of non-square norm
    (reflections whose norms are all squares generate a proper subgroup),
    then the sweep.  A pair that does not sift through is kept, its residue
    added, and random products of the kept pairs are sifted until
    SIFT_PATIENCE pass in a row.  All stops once the order is
    |SO_{2n+1}(F_q)|, which bounds that of the generated group: equality
    proves the chain complete.  If the sweep runs out first, complete()
    makes the order exact.  Returns the chain and the kept pairs."""
    f, n = ctx.field, ctx.n
    if not f.is_finite:
        raise TooLarge("orbit-stabilizer needs a finite field")
    even_order = group_order("even_split", n, f.q)
    if not force and even_order > CLOSURE_GUARD:
        raise TooLarge(f"stabilizer order {even_order} exceeds the closure guard")
    extra = ()
    if f.characteristic != 2:
        # e_1 + c e_{n+2} has trace 0 and norm c, a non-square
        c = next(a for a in range(2, f.q) if f.raw_sqrt(a) is None)
        extra = (tuple(1 if i == 0 else c if i == n + 1 else 0 for i in range(ctx.dim)),)
    expected = group_order("odd", n, f.q)
    base = [ctx.x0.raws] + [ctx.space.basis_vector(j).raws for j in ctx.even_slots]
    found = OrbitStabilizer(f, base, ctx.space.raw_polar(tuple(range(ctx.dim))))
    pool = []
    randoms = _product_replacement(random.Random(SIFT_SEED), f.matmul, pool)
    anchor, gens = None, []
    for raws in _trace_zero_sweep(ctx, extra):
        if found.order() == expected:
            break
        v = Vector(f, raws)
        if anchor is None:
            anchor = v
            continue
        g = word_matrix(ctx.space, [anchor, v])
        level, residue = found.sift(g.rows)
        if level is None:
            continue
        gens.append(g)
        pool.append(g.rows)
        level.add_generator(residue)
        passes = 0
        while passes < SIFT_PATIENCE and found.order() < expected:
            level, residue = found.sift(next(randoms))
            if level is None:
                passes += 1
            else:
                level.add_generator(residue)
                passes = 0
    if found.order() < expected:
        found.complete()
    return found, gens


# -- orders and verification reports ----------------------------------------

def group_order(kind, n, q):
    """Order of the split special orthogonal group over F_q: kind "odd" for
    rank 2n+1, "even_split" for rank 2n."""
    if n < 1:
        raise InvalidPrimePower(f"n = {n} must be positive")
    if is_prime_power(q) is None:
        raise InvalidPrimePower(f"{q} is not a prime power")
    if kind == "odd":
        order = q ** (n * n)
        for i in range(1, n + 1):
            order *= q ** (2 * i) - 1
        return order
    if kind == "even_split":
        order = q ** (n * (n - 1)) * (q ** n - 1)
        for i in range(1, n):
            order *= q ** (2 * i) - 1
        return order
    raise ValueError(f"unknown group kind {kind!r}")


def verify_homogeneous(field, n, force=False):
    """Check, by exact computation over F_q, that the quadric is the orbit
    of x_0 under the SO-model with stabilizer the extended even group:

      (a) orbit(x_0) = all quadric points,
      (b) |stabilizer(x_0)| = |SO_{2n}(F_q)|,
      (c) |orbit| * |stabilizer| = |SO_{2n+1}(F_q)|, with every generator in
          the SO-model, so the generated group is the whole SO-model,
      (d) stabilizer(x_0) = extend_even(SO_{2n}(F_q)) as sets.

    The orbit is the first level of so_orbit_stabilizer's chain and the
    stabilizer the levels below it, generated by their generators once the
    chain's order is |SO_{2n+1}(F_q)|; no group is listed.  For (d), each
    of those generators satisfies h = extend_even(restrict_even(h)), with
    its restriction an even-space isometry of Dickson invariant 0, so the
    stabilizer lies in extend_even(SO_{2n}); extend_even is injective, so
    equal orders make the two equal.  The quadric's guard, read from (q, n)
    before any space is built, and the stabilizer's guard fire before any
    enumeration starts.  The chain forms transversals only where sifts
    land: (2,5) takes 127 matrix products and 8-14 ms in-process, forced
    (3,3) and (2,9) about 0.02 and 0.08 s (2 cores, Python 3.11).
    """
    _point_guard(field, n, force)
    ctx = GroupContext(field, n)
    points = _quadric_raws(ctx.space, force=force)
    found, gens = so_orbit_stabilizer(ctx, force=force)
    points = list(points)

    def in_extended_even_so(rows):
        even = ctx.restrict_even(GroupElement(field, rows))
        return (ctx.extend_even(even).rows == rows and is_isometry(ctx.even_space, even)
                and _dickson(ctx.even_space, even) == 0)

    odd_order = group_order("odd", n, field.q)
    even_order = group_order("even_split", n, field.q)
    orb, stab = set(found.tree), found.next
    stab_size, group_size = stab.order(), found.order()
    checks = {
        "orbit_covers_quadric": orb == set(points),
        "stabilizer_order": stab_size == even_order,
        "orbit_stabilizer_product": (all(in_so_odd(ctx, g) for g in gens)
                                     and group_size == odd_order),
        "stabilizer_is_extended_even": (all(in_extended_even_so(h) for level in stab.levels()
                                            for h in level.generators)
                                        and stab_size == even_order),
    }
    witnesses = []
    if not checks["orbit_covers_quadric"]:
        missing = [w for w in points if w not in orb]
        witnesses = [Vector(field, w).to_strings() for w in missing[:3]]
    report = {
        "check": "homogeneous",
        "n": n,
        "field": str(field),
        "quadric_points": len(points),
        "orbit_size": len(orb),
        "stab_size": stab_size,
        "group_size": group_size,
        "group_order": odd_order,
        "even_group_order": even_order,
        "checks": checks,
        "pass": all(checks.values()),
        "witnesses": witnesses,
    }
    return report


def _auxiliaries_to_one(space):
    """The raw letters (z, 1/q(z)) of the rule's case 2 towards 1, for w with
    q(w) = 1 and q(w - 1) = 2 - t(w) = 0: z = 1 + s e_{n+1} + e_k with k not
    a trace slot, so q(z) = 1 + s.  In odd characteristic z = 1 (s = 0, no
    e_k) serves every such w, since B(1, w) = t(w) = 2.  In characteristic 2
    t(w) = 0 there, and s runs over the elements outside F_2 and k over the
    2n other slots: once q >= 4 some pair gives B(z, w) = s w_{2n+2} + w_{k'}
    != 0, k' the partner of k.  Over F_2 there is none."""
    f, n = space.field, space.n
    one = space.one_vector().raws
    if f.characteristic != 2:
        return [(one, 1)]
    other = [k for k in range(space.dim) if k not in (n, 2 * n + 1)]
    return [(tuple(f.raw_add(o, s) if i == n else 1 if i == k else o for i, o in enumerate(one)),
             f.raw_inv(f.raw_add(1, s))) for s in range(2, f.q) for k in other]


def verify_similitude_orbit(field, n, force=False):
    """Orbit of the vector 1 under the group generated by scalar matrices and
    reflection pairs, inside {q != 0}.  In characteristic 2 the orbit is all
    of {q != 0}; in odd characteristic it is exactly the vectors whose norm
    is a nonzero square: the expected set.  The orbit never leaves it
    (scalars scale q by c^2, pairs preserve it).

    One sweep evaluates q once per vector, counts the nonzero norms and the
    expected vectors, and keeps only those left uncertified.  Each expected
    v, q(v) = c^2, is certified by a checked pair: w = v / c has q(w) = 1,
    transport._two_reflections moves w to 1 with _auxiliaries_to_one, and
    its letters applied to w must give 1.  Case 2's letters are a pair; case
    1's one letter r_{w-1} is followed by r_u, u = e_1 + e_{n+2}, which
    fixes 1 (checked once, before the sweep).  With the scalar c the pair
    puts v in the orbit; so when every expected vector is certified the
    orbit is the expected set, with no orbit grown.

    When some vector is left uncertified (over F_2, where case 2 has no
    auxiliary), a second sweep rebuilds the expected set and the directions,
    and grow_orbit grows the orbit from 1 and the certified vectors, from
    the scalars, then from one reflection pair r_a r_v at a time, until it
    reaches the expected size or the pairs run out.  The directions are the
    normalized nonzero-norm vectors in sweep order: a is the first, the
    others follow those with v_1 != 0 first, since a_1 = 0 and a pair of
    directions with v_1 = 0 fixes e_{n+2}.  Every seed lies in the orbit, so
    equal sizes are equal sets, and if the pairs run out first the orbit is
    that of the group all pairs generate."""
    f, d = field, 2 * n + 2
    if not f.is_finite:
        raise TooLarge("similitude orbit needs a finite field")
    if not force and exceeds(f.q, d, VECTOR_GUARD):
        raise TooLarge(f"{f.q}^{d} vectors exceeds the sweep guard")
    space = SplitSpace.pointed_even(f, n)

    inv, raw_q, lincomb = f.raw_inv, space.raw_q, f.raw_lincomb
    # 1/c for each square c^2 != 0 (in characteristic 2 every norm is a square)
    inv_root = {a: inv(c) for a in range(1, f.q) if (c := f.raw_sqrt(a)) is not None}
    one = space.one_vector().raws
    auxiliaries = _auxiliaries_to_one(space)
    u_fixes_one = raw_word(space, [(dickson_fixer(space).raws, 1)], one) == one   # q(u) = 1
    nonzero_norm = expected = 0
    uncertified = []
    for raws in product(range(f.q), repeat=d):
        qa = raw_q(raws)
        if not qa:
            continue
        nonzero_norm += 1
        inv_c = inv_root.get(qa)
        if inv_c is None:
            continue
        expected += 1
        w = lincomb(inv_c, raws, 0, raws)   # v / c
        try:
            letters, path = _two_reflections(space, w, one, 1, auxiliaries)
            certified = (u_fixes_one or path != "case1") and raw_word(space, letters, w) == one
        except SearchExhausted:
            certified = False
        if not certified:
            uncertified.append(raws)

    orbit_size, passed = expected, True
    if uncertified:
        members, directions = set(), []
        for raws in product(range(f.q), repeat=d):
            qa = raw_q(raws)
            if qa in inv_root:
                members.add(raws)
            if qa and next(a for a in raws if a) == 1:
                directions.append((raws, inv(qa)))
        seen = dict.fromkeys(chain((one,), members.difference(uncertified)), (None, None))
        a, *rest = directions   # r_a r_a is the identity
        rest.sort(key=lambda letter: not letter[0][0])   # stable: v_1 != 0 first
        pairs = [[a, v] for v in rest]   # r_a r_v

        def image(g, w):   # w times the scalar g, or the pair g applied to w
            return lincomb(g, w, 0, w) if isinstance(g, int) else raw_word(space, g, w)

        maps = []
        for g in chain(range(2, f.q), pairs):
            if len(seen) == expected:
                break
            maps.append(g)
            grow_orbit(seen, (g,), maps, image, stop=expected)
        orbit_size, passed = len(seen), seen.keys() == members
    report = {
        "check": "similitude",
        "n": n,
        "field": str(field),
        "orbit_size": orbit_size,
        "nonzero_norm_vectors": nonzero_norm,
        "expected_orbit_size": expected,
        "pass": passed,
    }
    return report
