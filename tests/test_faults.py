"""Each check of `verify homogeneous`, `verify similitude`, `verify spin` and
`count` seen to fail.

Every row of FAULTS names a check, injects one fault with monkeypatch and
names the verdict it must turn false: a key of the report's `checks`, or
one of its top-level booleans (`pass`, spin's `equal`, count's `match`).
The faults go into quadrics.action, the census block sweep of
quadrics.quadric, or a block kernel slot of quadrics.quadform._KERNELS.
The row runs through cli.main, which must then exit 1, after a clean run of
the same cell has passed.  Rows run over an odd field and over
characteristic 2, except where the fault needs one of them: the reversed
case-2 word of the first level lands on x_0 in characteristic 2 by
accident, and the Eichler maps and the similitude orbit's fallback pairs
serve only over F_2.
"""

import json
from functools import partial
from itertools import chain, islice

import pytest

import quadrics.action as action
import quadrics.quadric as quadric
from quadrics.cli import main
from quadrics.errors import SearchExhausted
from quadrics.quadform import _KERNELS, GroupElement


def verify(capsys, check, n, q):
    argv = ["count"] if check == C else ["verify", check]
    code = main(argv + ["--n", str(n), "--field", str(q)])
    return code, json.loads(capsys.readouterr().out)


def verdicts(report):
    """The keys of the report's `checks` and its top-level booleans, with
    their values."""
    top = {key: value for key, value in report.items() if isinstance(value, bool)}
    return {**report.get("checks", {}), **top}


def rule_changed(monkeypatch, top, change):
    """Pass the rule's words through change(space, letters, path): those to
    x_0 (top) or those to a base point below it, the only base points with
    a last coordinate 0."""
    real = action._two_reflections

    def rule(space, x, y, q, auxiliaries):
        letters, path = real(space, x, y, q, auxiliaries)
        return change(space, letters, path) if bool(y[-1]) == top else (letters, path)

    monkeypatch.setattr(action, "_two_reflections", rule)


def corrupted_letter(space, letters, path):
    """The last letter with 1 added to its first coordinate."""
    if not letters:
        return letters, path
    v, inv_q = letters[-1]
    return letters[:-1] + [((space.field.raw_add(v[0], 1),) + v[1:], inv_q)], path


def reversed_case2(space, letters, path):
    return (letters[::-1] if path == "case2" else letters), path


def case2_called_case1(space, letters, path):
    """A case-2 word gets the letter meant for case 1: an odd word."""
    return letters, "case1" if path == "case2" else path


def outside_even_slots(space, letters, path):
    """r_1 r_1, the identity, appended: the word still lands and is even,
    but the letter 1 = e_{n+1} + e_{2n+2} lies outside the even slots."""
    one = space.one_vector().raws
    return letters + [(one, 1), (one, 1)], path


def sweep_changed(monkeypatch, change):
    real = action._quadric_raws
    monkeypatch.setattr(action, "_quadric_raws",
                        lambda space, force=False: change(real(space, force=force)))


def levels_changed(monkeypatch, change, top=False):
    """Pass each level below x_0, or with top the level of x_0 alone,
    through change(ctx, level)."""
    real = action._levels

    def levels(ctx, points):
        for i, level in enumerate(real(ctx, points)):
            yield change(ctx, level) if bool(i) != top else level

    monkeypatch.setattr(action, "_levels", levels)


def first_auxiliary_only(ctx, level):
    base, fixed, candidates, auxiliaries, u, eichler = level
    return base, fixed, candidates, auxiliaries[:1], u, eichler


def wrong_u_inverse(ctx, level):
    """u* = e_1 + e_{n+2}, a fixed letter of every case-1 word to x_0, with
    1/q(u*) = 1 + 1: wrong over every field.  r_{u*} still fixes x_0, so
    only the check of the letter sees it."""
    base, fixed, candidates, auxiliaries, (u, inv_q), eichler = level
    return base, fixed, candidates, auxiliaries, (u, ctx.field.raw_add(inv_q, 1)), eichler


def order_changed(monkeypatch, kind):
    real = action.group_order
    monkeypatch.setattr(action, "group_order",
                        lambda k, n, q: real(k, n, q) + (k == kind))


def identity_eichler(ctx, e, x):
    return GroupElement.identity(ctx.field, ctx.dim)


def half_eichler(ctx, e, x):
    """y -> y + B(y, x) e, without the term -B(y, e) x: not an isometry."""
    f, space = ctx.field, ctx.space
    cols = [f.raw_lincomb(1, y, space.raw_b(y, x), e)
            for y in (space.basis_vector(j).raws for j in range(ctx.dim))]
    return GroupElement.from_columns(f, cols)


def no_words(*args):
    raise SearchExhausted("no word")


def sphere_changed(monkeypatch, change):
    """Pass the similitude check's unit sphere, the level set of q = 1,
    through change(vectors)."""
    real = action._level_set

    def level_set(space, pair, slots, c, partner_one=False):
        swept = real(space, pair, slots, c, partner_one)
        return change(swept) if c == 1 else swept

    monkeypatch.setattr(action, "_level_set", level_set)


def wrong_inverse_in_first_pair(monkeypatch):
    """The fallback's first pair r_a r_v, v the first direction after a with
    v_1 != 0, given 1/q(v) + 1 (0 over F_2): r_v then fixes every vector,
    and the orbit the fallback grows is the same set over F_2."""
    real = action._directions

    def directions(space):
        letters = real(space)
        i = next(i for i, (v, _) in enumerate(letters) if i and v[0])
        v, inv_q = letters[i]
        letters[i] = v, space.field.raw_add(inv_q, 1)
        return letters

    monkeypatch.setattr(action, "_directions", directions)


def blocks_changed(monkeypatch, change):
    """Pass the census point sweep's first block, one (x, z) fiber, through
    change(block)."""
    real = quadric._sweep_quadric

    def sweep(space):
        blocks = real(space)
        return chain([change(next(blocks))], blocks)

    monkeypatch.setattr(quadric, "_sweep_quadric", sweep)


def kernel_changed(monkeypatch, slot, call):
    """The block kernel in that slot of each space built from here on, called
    as call(kernel, block)."""
    build = _KERNELS[slot]
    monkeypatch.setitem(_KERNELS, slot, lambda space: partial(call, build(space)))


def first_verdict(verdict):
    """The spin kernel with its first vector's verdict replaced by verdict:
    (True, False) an idempotent that is no quadric point, (False, True) a
    quadric point that is no idempotent."""
    return lambda mp: kernel_changed(
        mp, "_idempotent_check", lambda kernel, block: [verdict] + kernel(block)[1:])


ODD, CHAR_2, F_2 = [(2, 3), (2, 5)], [(2, 4), (2, 8)], [(2, 2), (3, 2)]
H, S, SPIN, C = "homogeneous", "similitude", "spin", "count"

# row id -> (the check, the verdict that turns false, the fault, the cells)
FAULTS = {
    "corrupted-top-letter": (H, "orbit_covers_quadric",
                             lambda mp: rule_changed(mp, True, corrupted_letter), ODD + CHAR_2),
    "reversed-top-case2": (H, "orbit_covers_quadric",
                           lambda mp: rule_changed(mp, True, reversed_case2), ODD),
    "corrupted-fixed-letter": (H, "orbit_covers_quadric",
                               lambda mp: levels_changed(mp, wrong_u_inverse, top=True),
                               ODD + CHAR_2),
    "odd-top-word": (H, "orbit_stabilizer_product",
                     lambda mp: rule_changed(mp, True, case2_called_case1), ODD + CHAR_2),
    "dropped-swept-point": (H, "orbit_stabilizer_product",
                            lambda mp: sweep_changed(mp, lambda points: islice(points, 1, None)),
                            ODD + CHAR_2),
    "repeated-swept-point": (H, "orbit_stabilizer_product",
                             lambda mp: sweep_changed(mp, lambda points: chain(
                                 [next(points)] * 2, points)), ODD + CHAR_2),
    "wrong-odd-order": (H, "orbit_stabilizer_product",
                        lambda mp: order_changed(mp, "odd"), ODD + CHAR_2),
    "dropped-auxiliary-families": (H, "stabilizer_order",
                                   lambda mp: levels_changed(mp, first_auxiliary_only),
                                   ODD + CHAR_2),
    "wrong-even-order": (H, "stabilizer_order",
                         lambda mp: order_changed(mp, "even_split"), ODD + CHAR_2),
    "no-eichler-step": (H, "stabilizer_order",
                        lambda mp: mp.setattr(action, "_eichler", identity_eichler), F_2),
    "lower-letter-outside-even-slots": (H, "stabilizer_is_extended_even",
                                        lambda mp: rule_changed(mp, False, outside_even_slots),
                                        ODD + CHAR_2),
    "odd-lower-word": (H, "stabilizer_is_extended_even",
                       lambda mp: rule_changed(mp, False, case2_called_case1), ODD + CHAR_2),
    "non-isometric-eichler": (H, "stabilizer_is_extended_even",
                              lambda mp: mp.setattr(action, "_eichler", half_eichler), F_2),
    "no-words": (H, "pass", lambda mp: mp.setattr(action, "_two_reflections", no_words),
                 ODD + CHAR_2),
    "dropped-sphere-vector": (S, "pass",
                              lambda mp: sphere_changed(mp, lambda w: islice(w, 1, None)),
                              ODD + CHAR_2 + F_2),
    "repeated-sphere-vector": (S, "pass",
                               lambda mp: sphere_changed(mp, lambda w: chain([next(w)] * 2, w)),
                               ODD + CHAR_2 + F_2),
    "wrong-fallback-inverse": (S, "pass", wrong_inverse_in_first_pair, F_2),
    "idempotent-off-quadric": (SPIN, "equal", first_verdict((True, False)), ODD + CHAR_2),
    "point-not-idempotent": (SPIN, "pass", first_verdict((False, True)), ODD + CHAR_2),
    "dropped-block-point": (C, "match", lambda mp: blocks_changed(mp, lambda b: b[1:]),
                            ODD + CHAR_2),
    "repeated-block-point": (C, "match", lambda mp: blocks_changed(mp, lambda b: b[:1] + b),
                             ODD + CHAR_2),
}
CASES = [(row, n, q) for row, (_, _, _, cells) in FAULTS.items() for n, q in cells]


@pytest.mark.parametrize("row,n,q", CASES, ids=[f"{row}-{n}-{q}" for row, n, q in CASES])
def test_fault_turns_its_verdict_false(capsys, monkeypatch, row, n, q):
    check, key, inject, _ = FAULTS[row]
    code, clean = verify(capsys, check, n, q)
    assert code == 0 and all(verdicts(clean).values())
    inject(monkeypatch)
    code, report = verify(capsys, check, n, q)
    found = verdicts(report)
    assert code == 1 and found[key] is False and found.get("pass") is not True


def test_every_verdict_has_a_row(capsys):
    for check in (H, S, SPIN, C):
        _, report = verify(capsys, check, 1, 3)
        rows = {key for c, key, _, _ in FAULTS.values() if c == check}
        assert rows == set(verdicts(report))


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (1, 4), (2, 4), (1, 8)],
                         ids=["1-2", "2-2", "1-4", "2-4", "1-8"])
def test_reversed_case2_word_lands_in_characteristic_2(capsys, monkeypatch, n, q):
    """Why the reversed row runs over odd fields only: in characteristic 2
    the first level's case-2 words, letters reversed, still land on x_0, so
    the fault leaves the report passing."""
    rule_changed(monkeypatch, True, reversed_case2)
    code, report = verify(capsys, H, n, q)
    assert code == 0 and report["pass"]
