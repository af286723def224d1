from itertools import product
from math import prod

import pytest

from quadrics.errors import (
    InvalidPrimePower,
    SearchExhausted,
    TooLarge,
)
from quadrics.fields import Field
from quadrics.quadform import (
    GroupElement,
    SplitSpace,
    Vector,
    dickson,
    raw_reflect,
    raw_word,
    reflection_matrix,
    word_matrix,
)
from quadrics.quadric import (
    _quadric_raws,
    base_point,
    count_closed_form,
    enumerate_quadric,
    is_on_quadric,
)
from quadrics.action import (
    GroupContext,
    _auxiliaries_to_one,
    _level_set,
    _levels,
    _normalize_raws,
    enumerate_group,
    enumerate_isometries,
    group_order,
    in_o_odd,
    in_so_odd,
    level_matrices,
    level_words,
    orbit,
    so_model_closure,
    stabilizer,
    structured_trace_zero,
    trace_zero_reflection_vectors,
    verify_homogeneous,
    verify_similitude_orbit,
)
from quadrics.transport import _two_reflections, dickson_fixer

F2 = Field.prime(2)
F3 = Field.prime(3)
F4 = Field.extension(2, 2)
F5 = Field.prime(5)
F7 = Field.prime(7)


def scalar_matrix(field, dim, c):
    """c times the identity: an isometry only when c^2 = 1."""
    return GroupElement.of(field, [[c if i == j else 0 for j in range(dim)] for i in range(dim)])


def ctx2():
    return GroupContext(F2, 1)


def ctx3():
    return GroupContext(F3, 1)


def reachable(seed, maps, apply):
    """Everything reachable from seed under maps, by a plain worklist: the
    reference the similitude orbit is checked against."""
    found, todo = {seed}, [seed]
    while todo:
        x = todo.pop()
        for s in maps:
            y = apply(s, x)
            if y not in found:
                found.add(y)
                todo.append(y)
    return found


# -- membership ---------------------------------------------------------------

def test_context_invariants():
    c = ctx3()
    assert c.space.eval_q(c.one) == F3.one
    assert c.space.trace(c.one) == F3.element(2)
    assert c.space.eval_q(c.x0) == F3.zero
    assert c.space.trace(c.x0) == F3.one
    # q restricted to the even slots is the split even form
    even = c.even_space
    for v in even.enumerate_vectors():
        ambient = [0] * c.dim
        for a, i in enumerate(c.even_slots):
            ambient[i] = v.raws[a]
        assert c.space.raw_q(tuple(ambient)) == even.raw_q(v.raws)


def test_in_o_odd():
    c = ctx3()
    assert in_o_odd(c, GroupElement.identity(F3, 4))
    r = reflection_matrix(c.space, c.space.vector([0, 1, 0, 2]))   # t = 0, q = 2
    assert in_o_odd(c, r)
    assert not in_o_odd(c, scalar_matrix(F3, 4, 2))


def test_in_so_odd():
    c = ctx3()
    u = c.space.vector([0, 1, 0, 2])
    v = c.space.vector([1, 0, 1, 0])
    ru, rv = reflection_matrix(c.space, u), reflection_matrix(c.space, v)
    assert in_so_odd(c, ru * rv)
    assert (ru * rv).apply(c.x0) == c.space.basis_vector(1)
    assert not in_so_odd(c, ru)          # single reflection has Dickson 1
    assert in_so_odd(c, GroupElement.identity(F3, 4))
    # the extended even group fixes x_0; its Dickson-1 half leaves the SO-model
    swap = GroupElement.of(F3, [[0, 1], [1, 0]])    # e_1 <-> e_{n+2} on V_2
    extended = c.extend_even(swap)
    assert dickson(c.space, extended) == 1
    assert not in_so_odd(c, extended)
    pair = c.extend_even(reflection_matrix(c.even_space, c.even_space.vector([1, 1])) *
                         reflection_matrix(c.even_space, c.even_space.vector([1, 2])))
    assert in_so_odd(c, pair) and pair.apply(c.x0) == c.x0


def test_in_so_odd_makes_one_gram_pass(monkeypatch):
    c = ctx3()
    g = reflection_matrix(c.space, c.space.vector([0, 1, 0, 2])) * \
        reflection_matrix(c.space, c.space.vector([1, 0, 1, 0]))
    calls = []
    real = c.space._gram
    monkeypatch.setattr(c.space, "_gram", lambda *cols: calls.append(cols) or real(*cols))
    assert in_so_odd(c, g)
    assert calls == [tuple(zip(*g.rows))]


@pytest.mark.parametrize("field,n", [(F2, 1), (F3, 1), (F4, 1), (F2, 2)])
def test_act_preserves_quadric_exhaustive(field, n):
    # every SO-model element maps every quadric point to a quadric point
    c = GroupContext(field, n)
    members = enumerate_group(c, "so_odd")
    points = enumerate_quadric(c.space)
    for m in members:
        for p in points:
            image = m.apply(p.w)
            assert is_on_quadric(c.space, image)
            assert c.space.trace(image) == c.space.trace(p.w)


def test_dickson_unrestricted_stabilizer_is_extended_even_o_group():
    # both inclusions between the x_0-stabilizer of the 1-fixing isometry
    # group and the identity-extension of the full even orthogonal group
    for field, n in [(F2, 1), (F3, 1)]:
        c = GroupContext(field, n)
        o_model = enumerate_group(c, "o_odd")
        stab = {m for m in o_model if m.apply(c.x0) == c.x0}
        extended = {c.extend_even(m) for m in enumerate_isometries(c.even_space)}
        assert extended <= stab
        assert stab <= extended
        assert len(stab) == 2 * group_order("even_split", n, field.q)


# -- generators -----------------------------------------------------------------

@pytest.mark.parametrize("field,expected", [
    (F3, [[1, 0, 1, 0], [1, 0, 2, 0], [0, 1, 0, 2]]),
    (F2, [[1, 0, 1, 0], [0, 1, 0, 1]]),
])
def test_structured_trace_zero(field, expected):
    # e_1 +/- e_3, then e_2 - e_4; the signs coincide in characteristic 2
    c = GroupContext(field, 1)
    assert structured_trace_zero(c) == [c.space.vector(vals) for vals in expected]


def test_reflection_generators_f2():
    c = ctx2()
    gens = [reflection_matrix(c.space, v) for v in trace_zero_reflection_vectors(c)]
    assert len(gens) == 4
    vecs = {g.column(0) for g in gens}  # distinct matrices
    assert len(gens) == len(set(gens))
    for g in gens:
        assert g.apply(c.one) == c.one
        assert dickson(c.space, g) == 1


def test_generator_count_f3():
    c = ctx3()
    gens = [reflection_matrix(c.space, v) for v in trace_zero_reflection_vectors(c)]
    # 27 trace-0 directions with leading coefficient 1; 9 have q = 0
    assert len(gens) == len(set(gens))
    for g in gens:
        assert g.apply(c.one) == c.one


# -- enumeration ------------------------------------------------------------------

def test_o_model_counts():
    # isometries fixing 1, Dickson unrestricted: twice the SO-model order
    assert len(enumerate_group(ctx2(), "o_odd")) == 12
    assert len(enumerate_group(ctx3(), "o_odd")) == 48


def test_so_model_counts_and_agreement():
    for c, expected in [(ctx2(), 6), (ctx3(), 24)]:
        direct = enumerate_isometries(c.space, fix_one=True, dickson_value=0)
        closure = enumerate_group(c, "so_odd")
        assert len(direct) == expected
        assert sorted(direct, key=lambda m: m.rows) == closure


def gram_adjoint(space, m):
    """m^{-1} = G m^T G for an isometry m, G the Gram permutation pairing
    each slot with its hyperbolic partner: (m^{-1})_ij = m_{partner j,
    partner i}, an index shuffle."""
    partner = space.raw_polar(tuple(range(space.dim)))
    return GroupElement(m.field, [[m.rows[partner[j]][partner[i]] for j in range(space.dim)]
                                  for i in range(space.dim)])


@pytest.mark.parametrize("make_ctx", [ctx2, ctx3])
def test_so_model_is_closed_under_product_and_inverse(make_ctx):
    c = make_ctx()
    members = enumerate_group(c, "so_odd")
    mset = set(members)
    identity = GroupElement.identity(c.field, c.dim)
    for a in members:
        a_inv = gram_adjoint(c.space, a)
        assert a * a_inv == identity
        assert a_inv in mset
        for b in members:
            assert a * b in mset


def test_enumerate_even_groups():
    so2 = enumerate_isometries(SplitSpace.even(F3, 1), dickson_value=0)
    assert len(so2) == 2
    assert {m.rows for m in so2} == {((1, 0), (0, 1)), ((2, 0), (0, 2))}
    o2 = enumerate_isometries(SplitSpace.even(F3, 1))
    assert len(o2) == 4
    so4 = enumerate_isometries(SplitSpace.even(F2, 2), dickson_value=0)
    assert len(so4) == 36


def test_enumerate_guard():
    with pytest.raises(TooLarge):
        enumerate_isometries(SplitSpace.even(F5, 3))


def test_so_model_over_rationals_is_too_large():
    with pytest.raises(TooLarge):
        enumerate_group(GroupContext(Field.parse("Q"), 1), "so_odd")


@pytest.mark.parametrize("call", [
    lambda: enumerate_group(ctx2(), "so_odd", method="direct"),
    lambda: enumerate_isometries(ctx2().space, fix_one=True, fix_x0=True),
    lambda: enumerate_group(SplitSpace.even(F3, 1), dickson_value=0),
    lambda: orbit(ctx2(), start=base_point(ctx2().space)),
], ids=["method", "fix_x0", "dickson_value", "start"])
def test_enumerate_group_has_no_method_option(call):
    # the SO-model is always listed from the level words, the column search is
    # enumerate_isometries, and orbit() grows the orbit of x_0
    with pytest.raises(TypeError):
        call()


def test_every_exported_name_resolves():
    import quadrics
    assert [name for name in quadrics.__all__ if not hasattr(quadrics, name)] == []


def test_readme_public_names_are_the_exported_names():
    # each "- `module`: `name`, ..." item of the README's "Public names"
    # list, continuation lines included, names what that module defines
    import importlib
    import re
    from pathlib import Path
    import quadrics
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Public names\n", 1)[1].split("\nEach question", 1)[0]
    listed = []
    for item in section.split("\n- ")[1:]:
        module, *names = re.findall(r"`(\w+)`", item)
        listed += names
        assert all(hasattr(importlib.import_module(f"quadrics.{module}"), n) for n in names)
    assert sorted(listed) == sorted(quadrics.__all__)
    assert len(listed) == len(set(listed))


def test_closure_matches_direct_so5_f2():
    c = GroupContext(F2, 2)
    els = so_model_closure(c)
    assert len(els) == 720
    direct = enumerate_isometries(c.space, fix_one=True, dickson_value=0, force=True)
    assert {m.rows for m in direct} == els


# -- orbits and stabilizers ---------------------------------------------------------

@pytest.mark.parametrize("field,n,expected", [(F2, 1, 6), (F3, 1, 12), (F2, 2, 20)])
def test_orbit_covers_quadric(field, n, expected):
    c = GroupContext(field, n)
    orb = orbit(c)
    assert len(orb) == expected
    assert {p.w for p in orb} == {p.w for p in enumerate_quadric(c.space)}


@pytest.mark.parametrize("field,n,expected", [(F2, 1, 1), (F3, 1, 2), (F2, 2, 36)])
def test_stabilizer_orders(field, n, expected):
    c = GroupContext(field, n)
    stab = stabilizer(c, base_point(c.space))
    assert len(stab) == expected
    assert expected == group_order("even_split", n, field.q)


def test_stabilizer_equals_extended_even_group():
    for field, n in [(F2, 1), (F3, 1), (F2, 2)]:
        c = GroupContext(field, n)
        stab = set(stabilizer(c, base_point(c.space)))
        extended = {c.extend_even(m)
                    for m in enumerate_isometries(c.even_space, dickson_value=0)}
        assert stab == extended


def products(levels):
    """Every product of one matrix per level, the lowest level leftmost."""
    out = [GroupElement.identity(levels[0][0].field, levels[0][0].dim)]
    for words in levels:
        out = [g * h for g in words for h in out]
    return out


def base_slots(n):
    """The slots of the base x_0, e_1, f_1, ..., e_{n-1}, f_{n-1}, e_n."""
    return [2 * n + 1] + [s for k in range(n) for s in (k, n + 1 + k)][:2 * n - 1]


@pytest.mark.parametrize("field,n", [(F2, 1), (F3, 1), (F2, 2)])
def test_schreier_stabilizer_matches_direct_enumeration(field, n):
    # the stabilizer listed from the words below x_0, and the orbit from
    # those of the first level, against the column search and orbit()
    c = GroupContext(field, n)
    levels = level_matrices(c)
    # the direct column search over 2^36 candidates at (2, 2) needs force
    members = enumerate_isometries(c.space, fix_one=True, dickson_value=0, force=True)
    direct = stabilizer(c, c.x0, members=members)
    listed = products(levels[1:])
    assert len(listed) == len(set(listed))
    assert set(listed) == set(direct)
    reached = {p for i, p, _, _, ok in level_words(c, _quadric_raws(c.space)) if ok and not i}
    assert {p.w.raws for p in orbit(c)} == reached
    assert prod(map(len, levels)) == len(members) == group_order("odd", n, field.q)
    assert all(in_so_odd(c, g) for words in levels for g in words)


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (4, 1), (5, 1), (7, 1), (8, 1), (9, 1),
                                 (2, 2), (3, 2)])
def test_chain_stabilizer_matches_column_search(q, n):
    # check (d) by the level words and orders against the set equality it replaced
    field = Field.of_order(q)
    c = GroupContext(field, n)
    below = level_matrices(c)[1:]
    listed = {g.rows for g in products(below)}
    column = {c.extend_even(m).rows
              for m in enumerate_isometries(c.even_space, dickson_value=0)}
    assert listed == column
    report = verify_homogeneous(field, n)
    assert report["checks"]["stabilizer_is_extended_even"] is (listed == column)
    assert report["stab_size"] == len(column) == prod(map(len, below))


def test_verify_homogeneous_never_lists_a_group(monkeypatch):
    import quadrics.action as action

    def refuse(*args, **kwargs):
        raise AssertionError("verify_homogeneous started a column search")

    monkeypatch.setattr(action, "enumerate_isometries", refuse)
    monkeypatch.setattr(action, "_isometry_guard", refuse)
    for field, n in [(F3, 1), (F4, 1), (F2, 2)]:
        assert verify_homogeneous(field, n)["pass"]


def test_orbit_stabilizer_guard():
    # |SO_6(F_4)| = 4^6 (4^3 - 1)(4^2 - 1)(4^4 - 1) is past the closure guard
    with pytest.raises(TooLarge, match="stabilizer order 987033600 exceeds the closure guard"):
        verify_homogeneous(F4, 3)


SMALL_GRID = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8), (1, 9), (2, 2), (2, 3)]


@pytest.mark.parametrize("n,q", SMALL_GRID)
def test_chain_transversals_and_inverses(n, q):
    """Each checked word's matrix moves its point to its level's base point,
    fixes 1 and the base points above, lies in the SO-model, and has the
    reversed word (after the inverse Eichler map) as its inverse, which is
    its Gram adjoint; identical configurations give identical words."""
    field = Field.of_order(q)
    c = GroupContext(field, n)
    words = list(level_words(c, _quadric_raws(c.space)))
    base = [c.space.basis_vector(s) for s in base_slots(n)]
    identity = GroupElement.identity(field, c.dim)
    for i, p, letters, m, ok in words:
        assert ok
        vectors = [Vector(field, v) for v, _ in letters]
        g, inverse = word_matrix(c.space, vectors), word_matrix(c.space, vectors[::-1])
        if m is not None:
            g, inverse = g * m, gram_adjoint(c.space, m) * inverse
        assert g.apply(Vector(field, p)) == base[i]
        assert all(g.apply(b) == b for b in base[:i] + [c.one])
        assert in_so_odd(c, g)
        assert g * inverse == identity and gram_adjoint(c.space, g) == inverse
    # identical configurations do identical work
    assert list(level_words(GroupContext(field, n), _quadric_raws(c.space))) == words


def test_chain_makes_few_products(monkeypatch):
    """The words make no matrix product: at (2,3) the chain took 2,990
    matmul calls when it sifted every Schreier generator, and several
    hundred with random sifts.  verify_homogeneous makes no matmul and no
    matvec: each word is applied letter by letter with raw_word."""
    field = Field.prime(3)
    calls = []
    for name in ("matmul", "matvec"):
        real = getattr(field, name)
        monkeypatch.setattr(field, name, lambda *args, real=real, name=name:
                            calls.append(name) or real(*args))
    assert verify_homogeneous(field, 2)["pass"]
    assert calls == []


def test_chain_forms_transversals_on_demand(monkeypatch):
    """A word's matrix is formed only to list the group: verify_homogeneous
    forms none, and so_model_closure one per checked word, at (2,2)
    20 + 9 + 4 + 1 of them."""
    import quadrics.action as action
    calls = []
    real = action.word_matrix
    monkeypatch.setattr(action, "word_matrix", lambda *args: calls.append(args) or real(*args))
    assert verify_homogeneous(F5, 2)["pass"] and calls == []
    assert len(so_model_closure(GroupContext(F2, 2))) == 720
    assert len(calls) == 20 + 9 + 4 + 1


# Checked words per level, x_0 first: |Q| = q^(2n) + q^n, then for e_k and
# f_k (m = n - k + 1) (q^m - 1)(q^(m-1) + 1) and q^(2(m-1)), and q - 1 at
# the bottom level e_n, where the points of f_n need an odd word.
LEVEL_COUNTS = {
    (1, 2): [6, 1], (1, 3): [12, 2], (1, 4): [20, 3], (1, 9): [90, 8],
    (2, 2): [20, 9, 4, 1], (2, 3): [90, 32, 9, 2], (2, 4): [272, 75, 16, 3],
    (2, 5): [650, 144, 25, 4], (3, 2): [72, 35, 16, 9, 4, 1],
    (3, 3): [756, 260, 81, 32, 9, 2],
}


@pytest.mark.parametrize("n,q", list(LEVEL_COUNTS), ids=[f"{n}-{q}" for n, q in LEVEL_COUNTS])
def test_level_counts(n, q):
    counts, misses = [0] * (2 * n), 0
    c = GroupContext(Field.of_order(q), n)
    for i, _, _, _, ok in level_words(c, _quadric_raws(c.space, force=True)):
        counts[i] += ok
        misses += not ok
    assert counts == LEVEL_COUNTS[n, q] and misses == 0
    assert counts[0] == count_closed_form(n, q)
    assert prod(counts[1:]) == group_order("even_split", n, q)
    for k in range(1, n + 1):
        m = n - k + 1
        if k < n:
            assert counts[2 * k - 1] == (q ** m - 1) * (q ** (m - 1) + 1)
            assert counts[2 * k] == q ** (2 * (m - 1))
    assert counts[-1] == q - 1


# -- the level sets q = c ------------------------------------------------------------

def level_set_by_brute_force(space, pair, slots, c, partner_one):
    """The nonzero v with q(v) = c supported on the pair and the slots, with
    v at the pair's partner 1 under partner_one, from every vector."""
    h, d = space.dim // 2, space.dim
    off = [s for s in range(d) if s not in (pair, pair + h, *slots)]
    return sorted(v for v in product(range(space.field.q), repeat=d)
                  if any(v) and space.raw_q(v) == c and not any(v[s] for s in off)
                  and (v[pair + h] == 1 or not partner_one))


LEVEL_SET_CELLS = [(F2, 1), (F3, 1), (F4, 1), (F5, 1), (F2, 2), (F3, 2), (F4, 2)]


@pytest.mark.parametrize("partner_one", [False, True], ids=["all", "partner-one"])
@pytest.mark.parametrize("field,n", LEVEL_SET_CELLS,
                         ids=[f"{n}-{f.q}" for f, n in LEVEL_SET_CELLS])
def test_level_set_matches_brute_force(field, n, partner_one):
    """Every v with q(v) = c on the slice appears exactly once, for c = 0, 1
    and a non-square: over the last pair with x on the even slots (the
    similitude's sphere), over the first pair with x on every other slot,
    and over the first pair with x on the pairs strictly between, as the
    lower levels take it."""
    space = SplitSpace.pointed_even(field, n)
    d, h = space.dim, space.dim // 2
    slices = [(n, [s for s in range(d) if s % h != n]), (0, [s for s in range(d) if s % h]),
              (0, [s for s in range(d) if 0 < s % h < n])]
    non_squares = [c for c in range(1, field.q) if field.raw_sqrt(c) is None]
    assert bool(non_squares) == (field.characteristic != 2)
    for c in [0, 1] + non_squares[:1]:
        for pair, slots in slices:
            swept = list(_level_set(space, pair, slots, c, partner_one))
            assert len(swept) == len(set(swept))
            assert sorted(swept) == level_set_by_brute_force(space, pair, slots, c, partner_one)
    sphere = list(_level_set(space, n, slices[0][1], 1))
    assert len(sphere) == field.q ** (2 * n + 1) - field.q ** n


def isotropic_sweep_before(ctx, k, partner_one):
    """The candidates of the levels e_{k+1} and f_{k+1} as the lower levels
    swept them before _level_set: the nonzero isotropic v = a e + b f + x,
    e = e_{k+1} at slot k, f its partner and x in W_{k+2}, a b = -q(x), with
    only b = 1 under partner_one."""
    f, n = ctx.field, ctx.n
    rng = range(f.q)
    by_product = {}
    for a in rng:
        for b in ((1,) if partner_one else rng):
            by_product.setdefault(f.raw_mul(a, b), []).append((a, b))
    pad, m = (0,) * k, n - 1 - k
    for x in product(rng, repeat=2 * m):
        xe, xf = x[:m], x[m:]
        qx = ctx.space.raw_q(pad + (0,) + xe + (0,) + pad + (0,) + xf + (0,))
        for a, b in by_product[f.raw_neg(qx)]:
            if a or b or any(x):
                yield pad + (a,) + xe + (0,) + pad + (b,) + xf + (0,)


@pytest.mark.parametrize("n,q", [(n, q) for n in (2, 3) for q in (2, 3, 4)],
                         ids=[f"{n}-{q}" for n in (2, 3) for q in (2, 3, 4)])
def test_lower_levels_sweep_the_isotropic_sets_as_before(n, q):
    """Each level below x_0 (e_1, f_1, ..., e_n) sweeps the candidates of the
    isotropic sweep it replaced, in the same order."""
    c = GroupContext(Field.of_order(q), n)
    lower = [candidates for _, _, candidates, *_ in _levels(c, [])][1:]
    assert len(lower) == 2 * n - 1
    for i, candidates in enumerate(lower):
        assert list(candidates) == list(isotropic_sweep_before(c, i // 2, i % 2 == 1))


EICHLER_CLOSES = {
    (2, 2): {2: 2}, (3, 2): {2: 4, 4: 2}, (4, 2): {2: 8, 4: 4, 6: 2},
    (2, 3): {}, (2, 4): {}, (2, 5): {}, (2, 7): {}, (2, 8): {}, (2, 9): {},
    (3, 3): {}, (3, 4): {},
}


@pytest.mark.parametrize("n,q", list(EICHLER_CLOSES), ids=[f"{n}-{q}" for n, q in EICHLER_CLOSES])
def test_eichler_step_closes_only_the_f2_misses(n, q):
    """The rule finds no word for the points f_k + x of level f_k whose x
    has exactly one of e_j, f_j for each j > k: over F_2 every auxiliary
    e_k + e_j + f_j is orthogonal to them.  An Eichler map closes each of
    these 2^(n-k) points, and no other point of any level, over any field."""
    c = GroupContext(Field.of_order(q), n)
    found = {}
    for i, p, _, m, ok in level_words(c, _quadric_raws(c.space, force=True)):
        assert ok
        if m is not None:
            found[i] = found.get(i, 0) + 1
            k = i // 2 - 1   # the level f_{k+1}, slot n + 1 + k
            assert i % 2 == 0 and p[k] == 0 and p[n + 1 + k] == 1
    assert found == EICHLER_CLOSES[n, q]


@pytest.mark.parametrize("n,q", [(n, q) for n in (2, 3, 4) for q in (2, 3, 4)],
                         ids=[f"{n}-{q}" for n in (2, 3, 4) for q in (2, 3, 4)])
def test_eichler_maps_are_so_model_members(n, q):
    """E(e_k, x) for x = e_{k+1}, f_{k+1} preserves q, has Dickson invariant
    0, fixes 1, x_0, e_k and the base points above, and takes f_k to
    f_k - x."""
    from quadrics.action import _eichler
    field = Field.of_order(q)
    c = GroupContext(field, n)
    e = [c.space.basis_vector(j) for j in range(c.dim)]
    for k in range(n - 1):
        for x in (e[k + 1], e[n + 2 + k]):
            m = _eichler(c, e[k].raws, x.raws)
            assert dickson(c.space, m) == 0 and in_so_odd(c, m)
            fixed = [c.one, c.x0, e[k]] + [e[s] for j in range(k) for s in (j, n + 1 + j)]
            assert all(m.apply(v) == v for v in fixed)
            assert m.apply(e[n + 1 + k]) == e[n + 1 + k] - x


def test_verify_homogeneous_stores_nothing_per_point():
    """Forced (2,9) sweeps 6,642 points and 800 + 81 + 8 below them: the
    chain's Schreier vectors peaked at 3.24 MB under tracemalloc, the words
    keep counts."""
    import tracemalloc
    tracemalloc.start()
    try:
        report = verify_homogeneous(F9, 2, force=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["pass"] and report["quadric_points"] == 6642
    assert peak < 1_000_000


@pytest.mark.parametrize("n,q", [(3, 3), (2, 7), (4, 2)])
def test_forced_cells_past_the_guard(n, q):
    report = verify_homogeneous(Field.of_order(q), n, force=True)
    assert report["pass"]
    assert report["orbit_size"] == count_closed_form(n, q)
    assert report["stab_size"] == group_order("even_split", n, q)
    assert report["group_size"] == group_order("odd", n, q)


# -- orders ------------------------------------------------------------------------

def test_group_order_values():
    assert group_order("odd", 1, 2) == 6
    assert group_order("odd", 1, 3) == 24
    assert group_order("odd", 2, 2) == 720
    assert group_order("odd", 2, 3) == 51840
    assert group_order("even_split", 1, 3) == 2
    assert group_order("even_split", 2, 2) == 36
    assert group_order("even_split", 2, 3) == 576


def test_group_order_ratio_is_point_count():
    for n in range(1, 7):
        for q in (2, 3, 4, 5, 7, 8, 9):
            assert group_order("odd", n, q) % group_order("even_split", n, q) == 0
            ratio = group_order("odd", n, q) // group_order("even_split", n, q)
            assert ratio == count_closed_form(n, q)


def test_group_order_rejects_bad_input():
    with pytest.raises(InvalidPrimePower):
        group_order("odd", 1, 6)
    with pytest.raises(InvalidPrimePower):
        group_order("even_split", 0, 3)


# -- verification reports -------------------------------------------------------------

@pytest.mark.parametrize("field,n,orbit_size,stab_size",
                         [(F2, 1, 6, 1), (F3, 1, 12, 2), (F2, 2, 20, 36)])
def test_verify_homogeneous(field, n, orbit_size, stab_size):
    report = verify_homogeneous(field, n)
    assert report["pass"]
    assert report["orbit_size"] == orbit_size
    assert report["stab_size"] == stab_size
    assert report["orbit_size"] * report["stab_size"] == report["group_size"]


def test_verify_similitude_orbit():
    rep4 = verify_similitude_orbit(F4, 1)
    assert rep4["pass"] and rep4["orbit_size"] == rep4["nonzero_norm_vectors"] == 180
    rep3 = verify_similitude_orbit(F3, 1)
    assert rep3["pass"]
    assert rep3["orbit_size"] == 24 and rep3["nonzero_norm_vectors"] == 48


def similitude_report_all_directions(field, n):
    """verify_similitude_orbit's report with the orbit closed at once under
    the scalars and the reflection pair of every direction: the reference
    for the orbit grown one generator at a time."""
    space = SplitSpace.pointed_even(field, n)
    nonzero_norm = [w for w in product(range(field.q), repeat=space.dim) if space.raw_q(w)]
    directions = list(dict.fromkeys(_normalize_raws(field, w) for w in nonzero_norm))
    pairs = [(v, field.raw_inv(space.raw_q(v))) for v in directions]
    a, inv_a = pairs[0]
    mul = field.raw_mul

    def image(g, w):
        if isinstance(g, int):
            return tuple(mul(g, x) for x in w)
        v, inv_q = g
        return raw_reflect(space, a, inv_a, raw_reflect(space, v, inv_q, w))

    seen = reachable(space.one_vector().raws, list(range(2, field.q)) + pairs, image)
    squares = {mul(c, c) for c in range(1, field.q)}
    expected = {w for w in nonzero_norm
                if field.characteristic == 2 or space.raw_q(w) in squares}
    return {"check": "similitude", "n": n, "field": str(field),
            "orbit_size": len(seen), "nonzero_norm_vectors": len(nonzero_norm),
            "expected_orbit_size": len(expected), "pass": seen == expected}


@pytest.mark.parametrize("field,n", [(F2, 1), (F3, 1), (F4, 1), (F5, 1), (F7, 1),
                                     (F2, 2), (F3, 2)],
                         ids=["1-2", "1-3", "1-4", "1-5", "1-7", "2-2", "2-3"])
def test_similitude_orbit_matches_all_directions_closure(field, n):
    report = verify_similitude_orbit(field, n)
    assert report == similitude_report_all_directions(field, n)
    if (field, n) == (F2, 1):   # the pairs run out: 3 of the 6 vectors
        assert not report["pass"] and report["orbit_size"] == 3
    else:
        assert report["pass"]


@pytest.mark.parametrize("field,before", [(F7, 84_672), (Field.of_order(9), 414_720)],
                         ids=["1-7", "1-9"])
def test_similitude_orbit_stops_once_complete(monkeypatch, field, before):
    """With no word for any vector, the fallback BFS grows the whole orbit
    from 1; it stops when the orbit reaches the expected size, and directions
    with v_1 != 0 come first: under a quarter of the raw_reflect calls of
    the sweep-order BFS that closed the orbit under every map it had."""

    def no_word(*args):
        raise SearchExhausted("no word")

    monkeypatch.setattr("quadrics.action._two_reflections", no_word)
    calls = counting_raw_reflect(monkeypatch)
    report = verify_similitude_orbit(field, 1)
    assert report["pass"]
    assert 0 < calls[0] < before / 4


@pytest.mark.parametrize("field,n", [(F3, 1), (F4, 1), (Field.of_order(9), 1), (F3, 2)],
                         ids=["1-3", "1-4", "1-9", "2-3"])
def test_similitude_orbit_evaluates_q_once_per_vector(monkeypatch, field, n):
    """One q per x swept off the last pair, where the level set solves
    a b = 1 - q(x), and one per sphere vector, checked on its own
    coordinates."""
    calls = 0
    raw_q = SplitSpace.raw_q

    def counted(self, raws):
        nonlocal calls
        calls += 1
        return raw_q(self, raws)

    monkeypatch.setattr(SplitSpace, "raw_q", counted)
    assert verify_similitude_orbit(field, n)["pass"]
    q = field.q
    assert calls == q ** (2 * n) + q ** (2 * n + 1) - q ** n


# -- the two-reflection words of the similitude orbit ------------------------------

F8 = Field.of_order(8)
F9 = Field.of_order(9)


def two_minus_trace(space, w):
    f = space.field
    return f.raw_sub(f.raw_add(1, 1), space.raw_trace(w))


def word_to_one(space, w):
    """The word verify_similitude_orbit checks for w, q(w) = 1: the rule's
    letters from w to 1, with r_u, u = e_1 + e_{n+2}, ahead of case 1's one
    letter; None when case 2 finds no auxiliary."""
    try:
        letters, path = _two_reflections(space, w, space.one_vector().raws, 1,
                                         _auxiliaries_to_one(space))
    except SearchExhausted:
        return None
    return [(dickson_fixer(space).raws, 1)] + letters if path == "case1" else letters


def counting_raw_reflect(monkeypatch):
    """Count every raw_reflect call, wherever it is made: the name is
    patched in each quadrics module that binds it, quadform's included,
    through which raw_word applies its letters."""
    import sys
    from quadrics import quadform
    real, calls = quadform.raw_reflect, [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quadrics" and getattr(module, "raw_reflect", None) is real:
            monkeypatch.setattr(module, "raw_reflect", counted)
    return calls


@pytest.mark.parametrize("field,w,case", [
    (F3, (0, 2, 1, 2), 1), (F3, (0, 1, 1, 1), 2),
    (F5, (0, 2, 1, 3), 1), (F5, (0, 1, 1, 1), 2),
    (F9, (0, 2, 1, 2), 1), (F9, (0, 1, 1, 1), 2),
    (F4, (0, 1, 1, 1), 2), (F8, (0, 1, 1, 1), 2),
], ids=["3-case1", "3-case2", "5-case1", "5-case2", "9-case1", "9-case2",
        "4-case2", "8-case2"])
def test_similitude_word_moves_w_to_one_and_its_reversal_does_not(field, w, case):
    """Case 1 is r_u r_{w-1} with u = e_1 + e_{n+2}; case 2 is r_z r_{w'},
    with z = 1 in odd characteristic and z = 1 + s e_{n+1} + e_k in
    characteristic 2.  Applied right to left the word lands on 1; with its
    letters in the other order it does not, in either characteristic."""
    space = SplitSpace.pointed_even(field, 1)
    one = space.one_vector().raws
    assert space.raw_q(w) == 1 and bool(two_minus_trace(space, w)) == (case == 1)
    _, path = _two_reflections(space, w, one, 1, _auxiliaries_to_one(space))
    assert path == f"case{case}"
    word = word_to_one(space, w)
    assert len(word) == 2
    (v_1, _), (v_2, _) = word
    if case == 1:
        assert v_1 == (1, 0, 1, 0)
        assert v_2 == tuple(field.raw_sub(a, o) for a, o in zip(w, one))
    elif field.characteristic != 2:
        assert v_1 == one
    else:
        assert space.raw_trace(v_1) not in (0, 1) and v_1 != one
    for v, inv_q in word:   # each 1/q, taken from an identity, is right
        assert field.raw_mul(space.raw_q(v), inv_q) == 1
    assert raw_word(space, word, w) == one
    assert raw_word(space, word[::-1], w) != one


@pytest.mark.parametrize("field,n", [(F3, 1), (F5, 1), (F9, 1), (F4, 1), (F8, 1),
                                     (F3, 2), (F4, 2)],
                         ids=["1-3", "1-5", "1-9", "1-4", "1-8", "2-3", "2-4"])
def test_every_norm_one_vector_has_a_word_outside_f2(field, n):
    space = SplitSpace.pointed_even(field, n)
    one = space.one_vector().raws
    for w in product(range(field.q), repeat=space.dim):
        if space.raw_q(w) == 1:
            assert raw_word(space, word_to_one(space, w), w) == one


def test_case_two_has_no_auxiliary_over_f2():
    """Every norm-one w of case 2 has no word over F_2, except 1 itself,
    which the rule sends to the empty word."""
    space = SplitSpace.pointed_even(F2, 1)
    one = space.one_vector().raws
    norm_one = [w for w in product(range(2), repeat=4) if space.raw_q(w) == 1]
    assert [w for w in norm_one if word_to_one(space, w) is None] == [
        w for w in norm_one if not two_minus_trace(space, w) and w != one]
    assert word_to_one(space, one) == []


def counting_grow_orbit(monkeypatch):
    """Replace action.grow_orbit by a wrapper recording the seeds of its first
    call and the number of calls."""
    import quadrics.action as action
    grow, record = action.grow_orbit, {"calls": 0, "seeds": None}

    def counted(found, *args, **kwargs):
        if record["seeds"] is None:
            record["seeds"] = set(found)
        record["calls"] += 1
        return grow(found, *args, **kwargs)

    monkeypatch.setattr(action, "grow_orbit", counted)
    return record


@pytest.mark.parametrize("field,n", [(F3, 1), (F4, 1), (F5, 1)], ids=["1-3", "1-4", "1-5"])
def test_corrupted_letter_leaves_its_vector_to_the_fallback(monkeypatch, field, n):
    """A word whose letter is corrupted fails its check, so its vector is not
    certified: the fallback BFS grows the orbit from the other vectors, and
    the report is unchanged."""
    clean = verify_similitude_orbit(field, n)
    space = SplitSpace.pointed_even(field, n)
    one = space.one_vector().raws
    # u + x_0, u = e_1 + e_{n+2}, has q = 1 and t = 1: case 1, and its own
    # w, as 1 is the square root of 1 the sweep takes
    bad = tuple(1 if i in (0, n + 1, 2 * n + 1) else 0 for i in range(space.dim))
    assert space.raw_q(bad) == 1 and field.raw_sqrt(1) == 1
    letter_u, (v, inv_q) = word_to_one(space, bad)
    corrupted = [letter_u, (v, field.raw_add(inv_q, 1))]   # a wrong 1/q(w - 1)
    assert raw_word(space, word_to_one(space, bad), bad) == one
    assert raw_word(space, corrupted, bad) != one

    def rule(space, w, *args):
        return (corrupted[1:], "case1") if w == bad else _two_reflections(space, w, *args)

    monkeypatch.setattr("quadrics.action._two_reflections", rule)
    record = counting_grow_orbit(monkeypatch)
    assert verify_similitude_orbit(field, n) == clean
    assert clean["pass"] and record["calls"] > 0
    assert bad not in record["seeds"] and one in record["seeds"]
    assert not any(tuple(field.raw_mul(c, a) for a in bad) in record["seeds"]
                   for c in range(1, field.q))
    assert len(record["seeds"]) < clean["expected_orbit_size"]


@pytest.mark.parametrize("field,n,orbit_size", [(F2, 1, 3), (F2, 2, 28), (F2, 3, 120)],
                         ids=["1-2", "2-2", "3-2"])
def test_similitude_fallback_over_f2(monkeypatch, field, n, orbit_size):
    """Over F_2 case 2 has no word, and the fallback BFS, seeded with 1 and
    the certified vectors, closes the same orbit as the all-directions
    reference: short of the expected set at (1,2), all of it above."""
    record = counting_grow_orbit(monkeypatch)
    report = verify_similitude_orbit(field, n)
    assert report == similitude_report_all_directions(field, n)
    assert record["calls"] > 0 and len(record["seeds"]) > 1
    assert report["orbit_size"] == orbit_size
    assert report["pass"] == (n > 1)


def test_similitude_odd_characteristic_needs_no_orbit(monkeypatch):
    """At (2,5) every sphere vector is certified by its word: no grow_orbit
    call, and at most two raw_reflect calls per sphere vector, one for a
    case-1 word (r_u is checked once, before the sweep)."""
    record = counting_grow_orbit(monkeypatch)
    calls = counting_raw_reflect(monkeypatch)
    report = verify_similitude_orbit(F5, 2)
    assert report["pass"] and report["expected_orbit_size"] == 6200
    assert record["calls"] == 0
    assert 0 < calls[0] <= 2 * (5 ** 5 - 5 ** 2)


def test_similitude_orbit_keeps_no_expected_set():
    """The sweep counts the expected vectors and stores only those left
    uncertified: at (2,5) a set of all 6,200 of them peaked at 0.92 MB."""
    import tracemalloc
    tracemalloc.start()
    try:
        report = verify_similitude_orbit(F5, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["pass"] and report["expected_orbit_size"] == 6200
    assert peak < 200_000
