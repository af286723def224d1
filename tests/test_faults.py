"""Each check of `verify homogeneous` seen to fail.

Every row of FAULTS injects one fault into quadrics.action with monkeypatch
and names the verdict it must turn false: a key of the report's `checks`,
or `pass`.  The row runs through cli.main, which must then exit 1, after a
clean run of the same cell has passed.  Rows run over an odd field and over
characteristic 2, except where the fault needs one of them: the reversed
case-2 word of the first level lands on x_0 in characteristic 2 by
accident, and the Eichler maps serve only over F_2.
"""

import json
from itertools import chain, islice

import pytest

import quadrics.action as action
from quadrics.cli import main
from quadrics.errors import SearchExhausted
from quadrics.quadform import GroupElement


def verify(capsys, n, q):
    code = main(["verify", "homogeneous", "--n", str(n), "--field", str(q)])
    return code, json.loads(capsys.readouterr().out)


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


def levels_changed(monkeypatch, change):
    """Pass each level below x_0 through change(level)."""
    real = action._levels

    def levels(ctx, points):
        for i, level in enumerate(real(ctx, points)):
            yield change(level) if i else level

    monkeypatch.setattr(action, "_levels", levels)


def first_auxiliary_only(level):
    base, fixed, candidates, auxiliaries, u, eichler = level
    return base, fixed, candidates, auxiliaries[:1], u, eichler


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


ODD, CHAR_2, F_2 = [(2, 3), (2, 5)], [(2, 4), (2, 8)], [(2, 2), (3, 2)]

# row id -> (the verdict that turns false, the fault, the cells)
FAULTS = {
    "corrupted-top-letter": ("orbit_covers_quadric",
                             lambda mp: rule_changed(mp, True, corrupted_letter), ODD + CHAR_2),
    "reversed-top-case2": ("orbit_covers_quadric",
                           lambda mp: rule_changed(mp, True, reversed_case2), ODD),
    "odd-top-word": ("orbit_stabilizer_product",
                     lambda mp: rule_changed(mp, True, case2_called_case1), ODD + CHAR_2),
    "dropped-swept-point": ("orbit_stabilizer_product",
                            lambda mp: sweep_changed(mp, lambda points: islice(points, 1, None)),
                            ODD + CHAR_2),
    "repeated-swept-point": ("orbit_stabilizer_product",
                             lambda mp: sweep_changed(mp, lambda points: chain(
                                 [next(points)] * 2, points)), ODD + CHAR_2),
    "wrong-odd-order": ("orbit_stabilizer_product",
                        lambda mp: order_changed(mp, "odd"), ODD + CHAR_2),
    "dropped-auxiliary-families": ("stabilizer_order",
                                   lambda mp: levels_changed(mp, first_auxiliary_only),
                                   ODD + CHAR_2),
    "wrong-even-order": ("stabilizer_order",
                         lambda mp: order_changed(mp, "even_split"), ODD + CHAR_2),
    "no-eichler-step": ("stabilizer_order",
                        lambda mp: mp.setattr(action, "_eichler", identity_eichler), F_2),
    "lower-letter-outside-even-slots": ("stabilizer_is_extended_even",
                                        lambda mp: rule_changed(mp, False, outside_even_slots),
                                        ODD + CHAR_2),
    "odd-lower-word": ("stabilizer_is_extended_even",
                       lambda mp: rule_changed(mp, False, case2_called_case1), ODD + CHAR_2),
    "non-isometric-eichler": ("stabilizer_is_extended_even",
                              lambda mp: mp.setattr(action, "_eichler", half_eichler), F_2),
    "no-words": ("pass", lambda mp: mp.setattr(action, "_two_reflections", no_words),
                 ODD + CHAR_2),
}
CASES = [(row, n, q) for row, (_, _, cells) in FAULTS.items() for n, q in cells]


@pytest.mark.parametrize("row,n,q", CASES, ids=[f"{row}-{n}-{q}" for row, n, q in CASES])
def test_fault_turns_its_verdict_false(capsys, monkeypatch, row, n, q):
    key, inject, _ = FAULTS[row]
    code, clean = verify(capsys, n, q)
    assert code == 0 and clean["pass"]
    inject(monkeypatch)
    code, report = verify(capsys, n, q)
    verdict = report["pass"] if key == "pass" else report["checks"][key]
    assert code == 1 and verdict is False and report["pass"] is False


def test_every_verdict_has_a_row(capsys):
    _, report = verify(capsys, 1, 3)
    assert {key for key, _, _ in FAULTS.values()} == set(report["checks"]) | {"pass"}


@pytest.mark.parametrize("n,q", [(1, 2), (2, 2), (1, 4), (2, 4), (1, 8)],
                         ids=["1-2", "2-2", "1-4", "2-4", "1-8"])
def test_reversed_case2_word_lands_in_characteristic_2(capsys, monkeypatch, n, q):
    """Why the reversed row runs over odd fields only: in characteristic 2
    the first level's case-2 words, letters reversed, still land on x_0, so
    the fault leaves the report passing."""
    rule_changed(monkeypatch, True, reversed_case2)
    code, report = verify(capsys, n, q)
    assert code == 0 and report["pass"]
