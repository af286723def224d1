"""Field-point models of the odd orthogonal groups inside the ambient
pointed even space, their action on the quadric, and the exact verification
of the orbit/stabilizer structure.

The models, for the pointed even space of dimension 2n+2 over F:

    O-model:   isometries of q fixing the vector 1   (Dickson unrestricted)
    SO-model:  O-model members with Dickson invariant 0
    stabilizer model: SO-model members fixing x_0 = e_{2n+2}

Reflections r_v with t(v) = 0 fix 1, so pairs of them are SO-model members
and generate the whole SO-model.  The homogeneity check writes down words
of such pairs, as the paper does: level_words gives, level by level down a
stabilizer chain with base x_0, e_1, f_1, ..., e_{n-1}, f_{n-1}, e_n, each
candidate point and the word of transport._two_reflections moving it to
the level's base point (Witt's theorem, one level at a time), over F_2
after an Eichler map where the rule finds none.  Every word is applied
with quadform.raw_word and checked, and the counts are compared with the
classical orders

    |SO_{2n+1}(F_q)| = q^(n^2) * prod_{i=1..n} (q^(2i) - 1)
    |SO_{2n}(F_q)|   = q^(n(n-1)) * (q^n - 1) * prod_{i=1..n-1} (q^(2i) - 1)

whose ratio is q^(2n) + q^n, the point count of the quadric.  No group is
listed and nothing is stored per point: (n, q) = (2, 3) takes about 3 ms
in-process (2 cores, Python 3.11).  orbit() grows the orbit of x_0 with
grow_orbit; column enumeration is the cross-check.

The similitude orbit of 1 grows no orbit: each expected vector is certified
by a word of at most two reflections from transport._two_reflections, the
package's one two-case rule, checked by applying it with quadform.raw_word,
and grow_orbit runs only for the vectors left without one (over F_2),
seeded with those certified: (2, 7) takes 0.3-0.5 s in-process (2 cores,
Python 3.11), its sweep on the compiled form kernels and raw_lincomb.
"""

from functools import partial
from itertools import chain, product
from math import prod

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


def _trace_zero_sweep(ctx):
    """Lazily, the normalized raws of the structured trace-0 vectors, then of
    the lexicographic trace-0 sweep; repeats and vectors with q = 0 are
    skipped."""
    f, n, d = ctx.field, ctx.n, ctx.dim
    neg = f.raw_neg
    swept = (free + (neg(free[n]),) for free in product(range(f.q), repeat=d - 1))
    seen = set()
    for raws in chain((v.raws for v in structured_trace_zero(ctx)), swept):
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


def level_matrices(ctx, force=False):
    """The checked words of level_words as matrices, level by level, top
    first: word_matrix of the letters, times the Eichler matrix where the
    word has one.  Each moves its point to the level's base point."""
    f, space = ctx.field, ctx.space
    levels = {}
    for i, _, letters, m, ok in level_words(ctx, _quadric_raws(space, force=force)):
        words = levels.setdefault(i, [])
        if ok:
            g = word_matrix(space, [Vector(f, v) for v, _ in letters])
            words.append(g if m is None else g * m)
    return list(levels.values())


def so_model_closure(ctx, force=False):
    """The SO-model listed as every product of one checked word per level,
    the lowest level leftmost: the words of a level move each point of its
    orbit to the base point, one per coset of the levels below (Seress,
    4.1).  Returns the elements as a set of row tuples."""
    f = ctx.field
    if not f.is_finite:
        raise TooLarge("group enumeration needs a finite field")
    expected = group_order("odd", ctx.n, f.q)
    if not force and expected > CLOSURE_GUARD:
        raise TooLarge(f"group order {expected} exceeds the closure guard")
    levels = level_matrices(ctx, force=force)
    reached = prod(map(len, levels))
    if reached != expected:
        raise QuadricsError(f"level words reached {reached} of {expected} elements")
    elements = [GroupElement.identity(f, ctx.dim).rows]
    for words in levels:
        elements = [f.matmul(g.rows, h) for g in words for h in elements]
    return set(elements)


def enumerate_group(ctx, model="so_odd", force=False):
    """List one of the group models of a GroupContext, sorted by rows: "o_odd"
    (isometries fixing 1, by the column search) or "so_odd" (plus Dickson 0,
    listed from the level words by so_model_closure).  The isometries
    of a bare SplitSpace are listed by enumerate_isometries."""
    if model == "o_odd":
        members = enumerate_isometries(ctx.space, fix_one=True, force=force)
    elif model == "so_odd":
        rows = so_model_closure(ctx, force=force)
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


# -- homogeneity from the paper's words, level by level -------------------------

def _levels(ctx, points):
    """The levels of the words, top first, as (base, fixed, candidates,
    auxiliaries, u, eichler), with e_k at slot k - 1, its partner f_k at
    slot n + k, and W_k spanned by e_j, f_j for j >= k.  Every level fixes
    1, and `fixed` holds the slots of the basis vectors it fixes too:

      x_0:  the swept quadric points; nothing else fixed; the one auxiliary
            a = e_{n+1} - e_{2n+2} and u* = e_1 + e_{n+2}, as in
            transport.quadric_transport;
      e_k:  the nonzero isotropic vectors of W_k; x_0 and the base points
            above fixed; the auxiliaries e_k + f_k + z, z = 0, e_j, f_j
            (j > k), each of norm 1;
      f_k:  (k < n) the isotropic v in W_k with v_{f_k} = 1; e_k fixed too;
            the auxiliaries e_k + e_j + c f_j and e_k + f_j + c e_j (j > k,
            c != 0) of norm c, and the Eichler maps E(e_k, e_{k+1}) and
            E(e_k, f_{k+1}).

    Each auxiliary is orthogonal to the fixed vectors, and so is
    u = e_{k+1} + f_{k+1}, of norm 1 and orthogonal to the base too, which
    makes an odd word even.  The bottom level e_n has no u."""
    f, n, d = ctx.field, ctx.n, ctx.dim
    lincomb, minus_one = f.raw_lincomb, f.raw_neg(1)
    e = [ctx.space.basis_vector(j).raws for j in range(d)]

    def plus(x, y, c=1):
        return lincomb(1, x, c, y)

    x0 = ctx.x0.raws
    yield x0, (), points, [(plus(e[n], x0, minus_one), minus_one)], (plus(e[0], e[n + 1]), 1), ()
    fixed = (d - 1,)
    for k in range(n):   # the level e_{k+1}, slot k, then f_{k+1}, slot n + 1 + k
        partner = n + 1 + k
        rest = [j for j in ctx.even_slots if j % (n + 1) > k]   # the slots of W_{k+2}
        u = (plus(e[k + 1], e[partner + 1]), 1) if k + 1 < n else None
        hyperbolic = plus(e[k], e[partner])
        auxiliaries = [(hyperbolic, 1)] + [(plus(hyperbolic, e[j]), 1) for j in rest]
        yield e[k], fixed, _isotropic(ctx, k, False), auxiliaries, u, ()
        fixed += (k,)
        if u is None:
            return
        auxiliaries = [(plus(plus(e[k], e[j]), e[(j + n + 1) % d], c), f.raw_inv(c))
                       for j in rest for c in range(1, f.q)]
        eichler = [_eichler(ctx, e[k], e[k + 1]), _eichler(ctx, e[k], e[partner + 1])]
        yield e[partner], fixed, _isotropic(ctx, k, True), auxiliaries, u, eichler
        fixed += (partner,)


def _isotropic(ctx, k, partner_one):
    """Lazily, the nonzero isotropic v = a e + b f + x, e = e_{k+1} at slot
    k, f its partner and x in W_{k+2}: a b = -q(x).  With partner_one only
    b = B(v, e) = 1, so a = -q(x)."""
    f, n = ctx.field, ctx.n
    rng = range(f.q)
    by_product = {}
    for a in rng:
        for b in ((1,) if partner_one else rng):
            by_product.setdefault(f.raw_mul(a, b), []).append((a, b))
    pad, m, neg, raw_q = (0,) * k, n - 1 - k, f.raw_neg, ctx.space.raw_q
    for x in product(rng, repeat=2 * m):
        xe, xf = x[:m], x[m:]
        nonzero = any(x)
        for a, b in by_product[neg(raw_q(pad + (0,) + xe + (0,) + pad + (0,) + xf + (0,)))]:
            if a or b or nonzero:
                yield pad + (a,) + xe + (0,) + pad + (b,) + xf + (0,)


def _eichler(ctx, e, x):
    """The matrix of the Eichler map E(e, x): y -> y + B(y, x) e - B(y, e) x
    for isotropic e, x with B(e, x) = 0 (Taylor, ch. 11).  It preserves q
    and fixes e and every vector orthogonal to both; it takes e's partner f
    to f - x."""
    f, raw_b = ctx.field, ctx.space.raw_b
    lincomb, neg = f.raw_lincomb, f.raw_neg
    cols = []
    for j in range(ctx.dim):
        y = ctx.space.basis_vector(j).raws
        cols.append(lincomb(1, lincomb(1, y, raw_b(y, x), e), neg(raw_b(y, e)), x))
    return GroupElement.from_columns(f, cols)


def _word(space, p, base, auxiliaries, eichler):
    """(letters, path, m, image): the rule's word moving image = p to base,
    or, where the rule finds none, image = m p for the first Eichler matrix
    m with which it does; None if there is no such word."""
    for m in chain((None,), eichler):
        image = p if m is None else space.field.matvec(m.rows, p)
        try:
            return (*_two_reflections(space, image, base, 0, auxiliaries), m, image)
        except SearchExhausted:
            continue
    return None


def level_words(ctx, points):
    """Level by level, top first, (i, p, letters, m, ok) for each candidate p
    of level i: the raw letters (v, 1/q(v)), acting right to left after the
    matrix m (None without an Eichler map), move p to the level's base, and
    ok says so, checked: the word even, each letter a reflection (q(v)
    times 1/q(v) is 1) orthogonal to the level's fixed vectors (B(v, e_s) =
    v at the partner of s, and B(v, 1) = t(v)), m an SO-model member fixing
    them, and the word, applied with raw_word, landing on the base.  letters
    is None where there is no word.  A case-1 word is followed by r_u; at
    the bottom level, with no u, its point is skipped: r_{p - e_n} swaps
    e_n and f_n, so p lies outside SO_2's orbit."""
    space, f = ctx.space, ctx.field
    raw_q, trace, mul, matvec = space.raw_q, space.raw_trace, f.raw_mul, f.matvec
    h = ctx.dim // 2
    for i, (base, fixed, candidates, auxiliaries, u, eichler) in enumerate(_levels(ctx, points)):
        zero = [(s + h) % ctx.dim for s in fixed]
        kept = [space.basis_vector(s).raws for s in fixed]
        for p in candidates:
            word = _word(space, p, base, auxiliaries, eichler)
            if word is None:
                yield i, p, None, None, False
                continue
            letters, path, m, image = word
            if path == "case1":
                if u is None:
                    continue
                letters = [u] + letters   # r_u fixes the base: applied last
            ok = (len(letters) % 2 == 0
                  and all(mul(raw_q(v), inv_q) == 1 and not trace(v) and not any([v[s] for s in zero])
                          for v, inv_q in letters)
                  and (m is None or in_so_odd(ctx, m) and all(matvec(m.rows, z) == z for z in kept))
                  and raw_word(space, letters, image) == base)
            yield i, p, letters, m, ok


def _in_extended_even_so(ctx, m):
    """m = extend_even(h) for an even-space isometry h of Dickson invariant 0."""
    even = ctx.restrict_even(m)
    return (ctx.extend_even(even) == m and is_isometry(ctx.even_space, even)
            and _dickson(ctx.even_space, even) == 0)


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
      (c) |orbit| * |stabilizer| = |SO_{2n+1}(F_q)|, with every level-1 word
          in the SO-model, so the words generate the whole SO-model,
      (d) stabilizer(x_0) = extend_even(SO_{2n}(F_q)) as sets.

    Each level counts the candidates whose word level_words has checked;
    nothing is stored per point.  A checked word is even, and its letters
    are reflections orthogonal to the vectors the level fixes (trace 0 on
    the first level), so it is an SO-model member fixing them.  The first
    level is the sweep of the quadric: a point with a checked word is in the
    orbit, so (a) holds when every swept point has one.  The words of the
    levels below x_0 generate a subgroup of its stabilizer whose order is at
    least the product of the levels' counts, and at most |SO_{2n}(F_q)|
    (Seress, 4.5): equality is (b).  For (d), every lower word is even with
    letters in the even slots and every Eichler map is in
    extend_even(SO_{2n}); extend_even is injective, so equal orders make the
    two equal.  The quadric's guard, read from (q, n) before any space is
    built, and the stabilizer's guard fire before any enumeration starts.
    Forced (3,7) checks 117,992 points and 19,940 below them in 1.3-1.5 s,
    the whole process in 16 MB (2 cores, Python 3.11).
    """
    _point_guard(field, n, force)
    ctx = GroupContext(field, n)
    points = _quadric_raws(ctx.space, force=force)
    odd_order = group_order("odd", n, field.q)
    even_order = group_order("even_split", n, field.q)
    if not force and even_order > CLOSURE_GUARD:
        raise TooLarge(f"stabilizer order {even_order} exceeds the closure guard")

    reached, witnesses = [0] * (2 * n), []
    swept, lower_words = 0, True
    for i, p, letters, m, ok in level_words(ctx, points):
        reached[i] += ok
        if not i:
            swept += 1
            if not ok and len(witnesses) < 3:
                witnesses.append(Vector(field, p).to_strings())
        elif letters is not None:
            lower_words = (lower_words and len(letters) % 2 == 0
                           and not any(v[n] or v[-1] for v, _ in letters)
                           and (m is None or _in_extended_even_so(ctx, m)))

    orbit_size, stab_size = reached[0], prod(reached[1:])
    checks = {
        "orbit_covers_quadric": orbit_size == swept,
        "stabilizer_order": stab_size == even_order,
        "orbit_stabilizer_product": orbit_size * stab_size == odd_order,
        "stabilizer_is_extended_even": lower_words and stab_size == even_order,
    }
    report = {
        "check": "homogeneous",
        "n": n,
        "field": str(field),
        "quadric_points": swept,
        "orbit_size": orbit_size,
        "stab_size": stab_size,
        "group_size": orbit_size * stab_size,
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
