"""Field-point models of the odd orthogonal groups inside the ambient
pointed even space, their action on the quadric, and the exact verification
of the orbit/stabilizer structure.

The models, for the pointed even space of dimension 2n+2 over F:

    O-model:   isometries of q fixing the vector 1   (Dickson unrestricted)
    SO-model:  O-model members with Dickson invariant 0
    stabilizer model: SO-model members fixing x_0 = e_{2n+2}

Reflections r_v with t(v) = 0 fix 1, so pairs of them are SO-model members
and generate the whole SO-model.  The homogeneity check builds a stabilizer
chain from a few such pairs (OrbitStabilizer, base x_0 and then the even
basis vectors), whose first level is the orbit of x_0 and whose second is
its stabilizer, and checks the orders against the classical formulas

    |SO_{2n+1}(F_q)| = q^(n^2) * prod_{i=1..n} (q^(2i) - 1)
    |SO_{2n}(F_q)|   = q^(n(n-1)) * (q^n - 1) * prod_{i=1..n-1} (q^(2i) - 1)

whose ratio is q^(2n) + q^n, the point count of the quadric.  No group is
listed: (n, q) = (2, 4), (2, 5) and (3, 2) take about 0.2, 0.6 and 0.2 s
in-process (2 cores, Python 3.11).  Direct column enumeration stays as the
cross-check on small cells.
"""

from itertools import chain, product

from .errors import (
    DimensionMismatch,
    InvalidPrimePower,
    NotAMember,
    NotOnQuadric,
    QuadricsError,
    TooLarge,
)
from .fields import is_prime_power
from .guards import BRUTE_GUARD, CLOSURE_GUARD, VECTOR_GUARD
from .quadform import (
    GroupElement,
    SplitSpace,
    Vector,
    _dickson,
    dickson,
    is_isometry,
    raw_reflect,
    reflection_matrix,
)
from .quadric import AmbientQuadricPoint, _quadric_raws, base_point


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
    """O-model member with ambient Dickson invariant 0."""
    return in_o_odd(ctx, m) and dickson(ctx.space, m) == 0


def in_so_even_stab(ctx, m):
    """SO-model member fixing the base point x_0."""
    return in_so_odd(ctx, m) and m.apply(ctx.x0) == ctx.x0


def act(ctx, m, point):
    """Apply an SO-model element to a quadric point; the image stays on the
    quadric because q is preserved and t(mx) = B(mx, m1) = t(x)."""
    if not isinstance(point, AmbientQuadricPoint) or point.space != ctx.space:
        raise NotOnQuadric("point does not belong to this context's quadric")
    key = ("in_so_odd", ctx.field.key, ctx.n)   # m is immutable: test it once
    if key not in m.cache:
        m.cache[key] = in_so_odd(ctx, m)
    if not m.cache[key]:
        raise NotAMember("matrix is not in the SO-model")
    return AmbientQuadricPoint(ctx.space, m.apply(point.w))


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
    if not force and f.q ** (d - 1) > VECTOR_GUARD:
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


def reflection_generators(ctx, force=False):
    """All distinct reflections r_v with t(v) = 0 and q(v) invertible; each
    fixes 1 and has Dickson invariant 1, so pairs are SO-model members."""
    return [reflection_matrix(ctx.space, v)
            for v in trace_zero_reflection_vectors(ctx, force=force)]


def _closure(seed, images):
    """Everything reachable from seed, where images(x) yields the images of
    x, in BFS discovery order."""
    found = list(dict.fromkeys(seed))
    seen = set(found)
    for x in found:   # grows while it is walked: the BFS queue
        for y in images(x):
            if y not in seen:
                seen.add(y)
                found.append(y)
    return found


# -- group enumeration ------------------------------------------------------

def enumerate_isometries(space, fix_one=False, fix_x0=False, dickson_value=None,
                         force=False):
    """Direct column-by-column enumeration of all isometries of a split even
    or pointed even space, optionally fixing the one-vector and/or x_0, and
    optionally filtered by Dickson invariant.

    Columns are filled in an order that lets the linear constraints force
    whole columns (m * 1 = 1 forces col_{n+1} once col_{2n+2} is chosen;
    m * x_0 = x_0 pins col_{2n+2}), and candidates are pre-bucketed by their
    q-value.  Images with the correct Gram data are automatically linearly
    independent because the bilinear form is nondegenerate on these shapes.
    """
    f, d = space.field, space.dim
    if space.shape == "odd":
        # the odd pairing degenerates in characteristic 2; odd-rank groups
        # are modeled ambiently as 1-fixing isometries instead
        raise DimensionMismatch("isometry enumeration works on even-rank shapes")
    _isometry_guard(space, force)
    if (fix_one or fix_x0) and space.shape != "pointed_even":
        raise DimensionMismatch("the fixed vectors live in the pointed even space")
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
    x0_raws = tuple(1 if i == d - 1 else 0 for i in range(d))

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
        elif fix_x0 and j == d - 1:
            candidates = (x0_raws,)
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
    if not force and f.q ** (d * d) > BRUTE_GUARD:
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


def enumerate_group(ctx_or_space, model="so_odd", dickson_value=None, force=False):
    """Enumerate one of the concrete group models, sorted by rows.

    For a GroupContext: model "o_odd" (isometries fixing 1, by the column
    search) or "so_odd" (plus Dickson 0, listed from the stabilizer chain by
    so_model_closure).  For a SplitSpace: model "isometry" with an optional
    Dickson filter, by the column search.
    """
    if isinstance(ctx_or_space, GroupContext):
        ctx = ctx_or_space
        if model == "o_odd":
            members = enumerate_isometries(ctx.space, fix_one=True, force=force)
        elif model == "so_odd":
            rows, _ = so_model_closure(ctx, force=force)
            members = [GroupElement(ctx.field, r) for r in rows]
        else:
            raise ValueError(f"unknown context model {model!r}")
    else:
        members = enumerate_isometries(ctx_or_space, dickson_value=dickson_value,
                                       force=force)
    return sorted(members, key=lambda m: m.rows)


def stabilizer(ctx, point, members=None, force=False):
    """All SO-model elements fixing the given quadric point."""
    if members is None:
        members = enumerate_group(ctx, "so_odd", force=force)
    raws = point.w.raws if isinstance(point, AmbientQuadricPoint) else point.raws
    matvec = ctx.field.matvec
    return [m for m in members if matvec(m.rows, raws) == raws]


def orbit(ctx, start=None, force=False):
    """BFS closure of a quadric point under reflection pairs, i.e. its orbit
    under the SO-model; deterministic discovery order."""
    f = ctx.field
    space = ctx.space
    if start is None:
        start = base_point(space)
    gens = [(v.raws, f.raw_inv(space.raw_q(v.raws)))
            for v in trace_zero_reflection_vectors(ctx, force=force)]
    a, inv_a = gens[0]

    def images(w):
        for v, inv_q in gens:
            yield raw_reflect(space, a, inv_a, raw_reflect(space, v, inv_q, w))

    return [AmbientQuadricPoint(space, Vector(f, w))
            for w in _closure([start.w.raws], images)]


# -- orbit-stabilizer without listing the group -------------------------------

class OrbitStabilizer:
    """A stabilizer chain on raw row tuples (Schreier-Sims: Sims 1970;
    Seress, Permutation Group Algorithms, 4.2 and 4.5).

    Each level holds the orbit of its base point b with a Schreier tree: for
    each orbit point p, u_p, a product of generators with u_p b = p, and its
    inverse.  The next level, on the rest of the base, is the stabilizer of
    b: each Schreier generator u_{sp}^{-1} s u_p is sifted through it and
    added to it if the sift fails (Schreier's lemma).  The order is the
    product of the orbit lengths.  Past the last base point only the
    identity is left: the base and 1 span the space, and the SO-model
    fixes 1.
    """

    def __init__(self, field, dim, base):
        self._matmul, self._matvec = field.matmul, field.matvec
        self._identity = GroupElement.identity(field, dim).rows
        self.point = base[0] if base else None
        self.tree = {self.point: (self._identity, self._identity)} if base else {}
        self.generators = []
        self.next = OrbitStabilizer(field, dim, base[1:]) if base else None

    def order(self):
        """Order of the group generated so far."""
        if self.next is None:
            return 1
        return len(self.tree) * self.next.order()

    def contains(self, g):
        """Whether g lies in the group generated so far: g b must be an orbit
        point p, and u_p^{-1} g must lie in the next level."""
        if self.next is None:
            return g == self._identity
        entry = self.tree.get(self._matvec(g, self.point))
        return entry is not None and self.next.contains(self._matmul(entry[1], g))

    def elements(self):
        """Every element of the group generated so far, as u_p h for each
        orbit point p and each element h of the next level."""
        if self.next is None:
            return [self._identity]
        matmul, below = self._matmul, self.next.elements()
        return [matmul(u, h) for u, _ in self.tree.values() for h in below]

    def add_generator(self, g, g_inv):
        """Extend the tree by g, BFS from every point (new points under every
        generator), and sift each Schreier generator h into the next level,
        adding it there with h^{-1} = u_p^{-1} s^{-1} u_{sp} if it is new."""
        matmul, matvec, tree, below = self._matmul, self._matvec, self.tree, self.next
        self.generators.append((g, g_inv))
        work = [(p, [(g, g_inv)]) for p in tree]
        for p, gens in work:   # grows while it is walked: the BFS queue
            u, u_inv = tree[p]
            for s, s_inv in gens:
                image = matvec(s, p)
                su = matmul(s, u)
                known = tree.get(image)
                if known is None:
                    tree[image] = (su, matmul(u_inv, s_inv))
                    work.append((image, self.generators))
                    continue
                if su == known[0]:   # the Schreier generator is the identity
                    continue
                h = matmul(known[1], su)
                if not below.contains(h):
                    below.add_generator(h, matmul(matmul(u_inv, s_inv), known[0]))


def so_orbit_stabilizer(ctx, force=False):
    """The SO-model as a stabilizer chain with base x_0, then e_j for the
    even slots j, without listing the group: the first level holds the orbit
    of x_0 and the next level is its stabilizer.  The generators are
    reflection pairs r_a r_v on trace-0 vectors: the structured ones, in odd
    characteristic one of non-square norm (reflections whose norms are all
    squares generate a proper subgroup), then the trace-0 sweep, drawn one
    at a time while the chain's order is below |SO_{2n+1}(F_q)|.  A pair
    already in the generated group is skipped.  Returns the first level of
    the chain and the pair generators as GroupElements."""
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
    found = OrbitStabilizer(f, ctx.dim, base)
    anchor, gens = None, []
    for raws in _trace_zero_sweep(ctx, extra):
        if found.order() >= expected:
            break
        r = reflection_matrix(ctx.space, Vector(f, raws))
        if anchor is None:
            anchor = r
            continue
        g = anchor * r
        if not found.contains(g.rows):
            gens.append(g)
            found.add_generator(g.rows, (r * anchor).rows)
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

    Orbit and stabilizer are the first two levels of so_orbit_stabilizer's
    chain; no group is listed.  For (d), each generator h of the stabilizer
    level satisfies h = extend_even(restrict_even(h)), with its restriction
    an even-space isometry of Dickson invariant 0, so the stabilizer lies in
    extend_even(SO_{2n}); extend_even is injective, so equal orders make the
    two equal.  The quadric's guard and the stabilizer's guard fire before
    any enumeration starts.  The cells (2,4), (2,5) and (3,2) run without
    force, in about 0.2, 0.6 and 0.2 s in-process.
    """
    ctx = GroupContext(field, n)
    points = _quadric_raws(ctx.space, force=force)   # its guard fires here
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
        "stabilizer_is_extended_even": (all(in_extended_even_so(h) for h, _ in stab.generators)
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


def verify_similitude_orbit(field, n, force=False):
    """Orbit of the vector 1 under the group generated by scalar matrices and
    reflection pairs, inside {q != 0}.  In characteristic 2 the orbit is all
    of {q != 0}; in odd characteristic it is exactly the vectors whose norm
    is a nonzero square.  The orbit is grown from the scalars, then from one
    reflection pair r_a r_v at a time, until it reaches the expected size or
    the pairs run out.  a is the first direction in sweep order; the other
    directions follow in sweep order, those with v_1 != 0 first, since
    a_1 = 0 and a pair of directions with v_1 = 0 fixes e_{n+2}.

    The orbit never leaves the expected set (scalars scale q by c^2, pairs
    preserve it), so the BFS stops the moment the sizes agree: equal sizes
    are equal sets.  If the pairs run out first, the orbit is that of the
    group all pairs generate, whatever order they came in."""
    space = SplitSpace.pointed_even(field, n)
    f = space.field
    d = space.dim
    if not f.is_finite:
        raise TooLarge("similitude orbit needs a finite field")
    if not force and f.q ** d > VECTOR_GUARD:
        raise TooLarge(f"{f.q}^{d} vectors exceeds the sweep guard")

    nonzero_norm = []
    directions = {}   # normalized direction -> 1/q, in sweep order
    for raws in product(range(f.q), repeat=d):
        qa = space.raw_q(raws)
        if not qa:
            continue
        nonzero_norm.append(raws)
        key = _normalize_raws(f, raws)
        if key not in directions:
            directions[key] = f.raw_inv(space.raw_q(key))
    if f.characteristic == 2:
        expected = set(nonzero_norm)
    else:
        squares = {f.raw_mul(c, c) for c in range(1, f.q)}
        expected = {raws for raws in nonzero_norm if space.raw_q(raws) in squares}

    seen = {space.one_vector().raws}
    maps = []

    def add(g):
        """Close seen under one more map: g on the points already there,
        every map on the points that turn up; stop once seen is complete."""
        maps.append(g)
        work = [(w, (g,)) for w in seen]
        for w, gs in work:   # grows while it is walked: the BFS queue
            for h in gs:
                y = h(w)
                if y not in seen:
                    seen.add(y)
                    if len(seen) == len(expected):
                        return
                    work.append((y, maps))

    mul = f.raw_mul
    for c in range(2, f.q):
        add(lambda w, c=c: tuple(mul(c, x) for x in w))
    (a, inv_a), *rest = directions.items()   # r_a r_a is the identity
    rest.sort(key=lambda item: not item[0][0])   # stable: v_1 != 0 first
    for v, inv_q in rest:
        if len(seen) >= len(expected):
            break
        add(lambda w, v=v, inv_q=inv_q:
            raw_reflect(space, a, inv_a, raw_reflect(space, v, inv_q, w)))
    report = {
        "check": "similitude",
        "n": n,
        "field": str(field),
        "orbit_size": len(seen),
        "nonzero_norm_vectors": len(nonzero_norm),
        "expected_orbit_size": len(expected),
        "pass": seen == expected,
    }
    return report
