import hashlib
import json
import time

import pytest

from quadrics.errors import (
    InvariantViolation,
    NormMismatch,
    NotOnQuadric,
    SearchExhausted,
)
from quadrics.fields import Field
from quadrics.quadform import SplitSpace, word_matrix
from quadrics.quadric import base_point, count_closed_form, enumerate_quadric
from quadrics.action import GroupContext, in_so_odd
from quadrics.transport import (
    TransportCertificate,
    case2_vector,
    dickson_fixer,
    quadric_transport,
    reflection_transport,
    transport_all,
)

F2 = Field.prime(2)
F3 = Field.prime(3)
Q = Field.rationals()


# -- reflection transport -------------------------------------------------------

def test_identity_transport():
    s = SplitSpace.even(F3, 1)
    v = s.vector([1, 1])
    cert = reflection_transport(s, v, v)
    assert cert.path == "identity" and len(cert.word) == 0
    assert cert.matrix.apply(v) == v


def test_case1_transport():
    s = SplitSpace.even(F3, 1)
    x, y = s.vector([1, 1]), s.vector([2, 2])
    cert = reflection_transport(s, x, y)
    assert cert.path == "case1"
    assert cert.word[0] == s.vector([2, 2])      # x - y = (-1, -1) ~ q = 1
    assert cert.matrix.apply(x) == y


def test_case2_transport_f2():
    s = SplitSpace.pointed_even(F2, 1)
    x, y = s.basis_vector(0), s.basis_vector(1)
    cert = reflection_transport(s, x, y)
    assert cert.path == "case2" and len(cert.word) == 2
    assert cert.matrix.apply(x) == y
    w, w_prime = cert.word
    assert s.raw_q(w.raws) and s.raw_b(x.raws, w.raws) and s.raw_b(y.raws, w.raws)
    # a hand-checked valid pair: w = (1,0,1,1), w' = x - r_w(y) = (0,1,1,1)
    by_hand = TransportCertificate(s, [s.vector([1, 0, 1, 1]), s.vector([0, 1, 1, 1])],
                                   x, y, "case2")
    assert by_hand.matrix.apply(x) == y


def test_norm_mismatch():
    s = SplitSpace.even(F3, 1)
    with pytest.raises(NormMismatch):
        reflection_transport(s, s.vector([1, 1]), s.vector([1, 2]))


def _no_auxiliary_vector_exists(s, x, y):
    # independent re-check of the case-2 search space
    return not any(
        s.raw_q(w.raws) and s.raw_b(x.raws, w.raws) and s.raw_b(y.raws, w.raws)
        for w in s.enumerate_vectors())


def test_transport_all_norm_matched_pairs():
    """Every nonzero norm-matched pair over F_2 and F_3 either receives a
    verified word of length <= 2 or is provably outside both cases.

    Over F_3 all 2176 pairs succeed.  Over F_2 exactly 18 norm-1 pairs admit
    no auxiliary vector; for those, no word of reflections of any length
    moves x to y (the norm-1 vectors split into two orbits of 3 under the
    reflection subgroup, the classical dimension-4 exception over F_2), so
    exhaustion is the correct, honestly reported outcome.
    """
    from quadrics.errors import SearchExhausted
    from quadrics.quadform import reflection_matrix

    for f, expect_exhausted in ((F2, 18), (F3, 0)):
        s = SplitSpace.pointed_even(f, 1)
        vectors = [v for v in s.enumerate_vectors() if not v.is_zero]
        by_norm = {}
        for v in vectors:
            by_norm.setdefault(s.raw_q(v.raws), []).append(v)
        exhausted = []
        for norm, bucket in by_norm.items():
            for x in bucket:
                for y in bucket:
                    try:
                        cert = reflection_transport(s, x, y)
                    except SearchExhausted:
                        assert _no_auxiliary_vector_exists(s, x, y)
                        exhausted.append((x, y))
                        continue
                    assert cert.matrix.apply(x) == y
                    assert len(cert.word) <= 2
        assert len(exhausted) == expect_exhausted
        if exhausted:
            refls = [reflection_matrix(s, v) for v in s.enumerate_vectors()
                     if s.raw_q(v.raws)]
            for x, y in exhausted:
                assert not any((a * b).apply(x) == y for a in refls for b in refls)


def test_transport_over_rationals():
    s = SplitSpace.pointed_even(Q, 1)
    x = s.vector([1, 0, 1, 0])
    y = s.one_vector()
    cert = reflection_transport(s, x, y)
    assert cert.matrix.apply(x) == y


def test_rational_sweep_is_drawn_lazily():
    # no structured vector serves e_1 -> e_2, and the first sweep vector
    # (-5, ..., -5) does; listing the whole sweep first would build 11^6
    # vectors before reaching it
    s = SplitSpace.pointed_even(Q, 2)
    x, y = s.basis_vector(0), s.basis_vector(1)
    start = time.perf_counter()
    cert = reflection_transport(s, x, y)
    elapsed = time.perf_counter() - start
    assert cert.path == "case2" and cert.verified
    assert cert.word[0] == s.vector([-5] * 6)
    assert elapsed < 0.2


@pytest.mark.parametrize("space,x,y", [
    (SplitSpace.even(Q, 3), [0] * 6, [0] * 5 + [1]),
], ids=["zero-over-Q"])
def test_impossible_case2_search_is_refused_at_once(space, x, y):
    # B(x, .) vanishes, so no auxiliary vector exists; sweeping all 11^6
    # candidates to learn that takes tens of seconds
    start = time.perf_counter()
    with pytest.raises(SearchExhausted):
        reflection_transport(space, space.vector(x), space.vector(y))
    assert time.perf_counter() - start < 1


# -- quadric transport ------------------------------------------------------------

def test_quadric_transport_base_point():
    c = GroupContext(F3, 1)
    cert = quadric_transport(c, base_point(c.space))
    assert cert.path == "identity" and cert.dickson == 0


def test_quadric_transport_example_f3():
    c = GroupContext(F3, 1)
    cert = quadric_transport(c, c.space.vector([0, 1, 0, 0]))
    assert cert.path == "case1"
    assert cert.word[0] == c.space.vector([0, 1, 0, 2])
    assert cert.word[1] == dickson_fixer(c)
    assert cert.word[1] == c.space.vector([1, 0, 1, 0])
    assert cert.dickson == 0
    assert cert.matrix.apply(c.x0) == c.space.basis_vector(1)


def test_dickson_fixer_properties():
    for f, n in [(F2, 1), (F3, 1), (F3, 2)]:
        c = GroupContext(f, n)
        u = dickson_fixer(c)
        assert c.space.eval_q(u) == f.one
        assert c.space.trace(u) == f.zero
        assert c.space.eval_b(u, c.x0) == f.zero


def test_not_on_quadric():
    c = GroupContext(F3, 1)
    with pytest.raises(NotOnQuadric):
        quadric_transport(c, c.space.vector([0, 1, 0, 1]))    # t = 2


@pytest.mark.parametrize("q,n", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)])
def test_transport_every_point(q, n):
    c = GroupContext(Field.of_order(q), n)
    certs, stats = transport_all(c)
    assert len(certs) == count_closed_form(n, q)
    for cert in certs:
        assert cert.verified
        assert cert.dickson == 0
        assert in_so_odd(c, cert.matrix)
        assert cert.matrix.apply(c.x0) == cert.target
        assert len(cert.word) == (0 if cert.path == "identity" else 2)
        if cert.path == "case2":
            assert cert.word[1] == case2_vector(c)
        for v in cert.word:
            assert c.space.trace(v) == c.field.zero


@pytest.mark.parametrize("field", [F2, F3, Field.extension(2, 2), Q], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_case2_vector_meets_its_guarantees(field, n):
    # q(a) = -1, t(a) = 0, B(x_0, a) = 1, and B(w, a) = 1 for w_{n+1} = 0
    c = GroupContext(field, n)
    a, s, one = case2_vector(c), c.space, field.one
    assert s.eval_q(a) == -one and s.trace(a) == field.zero
    assert s.eval_b(c.x0, a) == one
    w = s.vector([1] + [0] * (2 * n) + [1])    # e_1 + x_0
    assert s.eval_q(w) == field.zero and s.trace(w) == one
    assert s.eval_b(w, a) == one


def test_quadric_transport_over_rationals():
    c = GroupContext(Q, 1)
    from quadrics.quadric import IntrinsicQuadricPoint, to_ambient
    # q(p - x_0) != 0: single reflection plus the Dickson fixer
    case1 = to_ambient(IntrinsicQuadricPoint.of(Q, [1], [-6], 3))   # -6 = 3(1-3)
    cert = quadric_transport(c, case1)
    assert cert.path == "case1" and cert.verified and cert.dickson == 0
    assert cert.matrix.apply(c.x0) == case1.w

    # q(p - x_0) = 0 (z = 1, p != x_0): the structured case-2 candidate fires
    case2 = to_ambient(IntrinsicQuadricPoint.of(Q, [0], [7], 1))
    cert2 = quadric_transport(c, case2)
    assert cert2.path == "case2" and cert2.verified and cert2.dickson == 0
    assert cert2.matrix.apply(c.x0) == case2.w


def test_transport_words_are_trace_zero_and_fix_one():
    c = GroupContext(F3, 1)
    for p in enumerate_quadric(c.space):
        cert = quadric_transport(c, p)
        assert cert.matrix.apply(c.one) == c.one


def test_case2_vector_is_built_only_for_case2(monkeypatch):
    # and at most once per context: a second case-2 point reuses the letter
    import quadrics.transport as transport
    built = []
    monkeypatch.setattr(transport, "case2_vector",
                        lambda ctx: built.append(1) or case2_vector(ctx))
    c = GroupContext(F3, 1)
    paths = [quadric_transport(c, c.space.vector(p)).path
             for p in ([0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 1])]
    assert paths == ["identity", "case1", "case2"] and built == [1]
    assert quadric_transport(c, c.space.vector([2, 0, 0, 1])).path == "case2"
    assert built == [1]
    quadric_transport(GroupContext(F3, 1), c.space.vector([1, 0, 0, 1]))
    assert built == [1, 1]


def test_a_without_its_guarantees_is_an_invariant_violation(monkeypatch):
    import quadrics.transport as transport
    c = GroupContext(F3, 1)
    s, target = c.space, c.space.vector([1, 0, 0, 1])
    # a vector that serves the recipe but leaves the trace-0 subspace
    traced = next(v for v in s.enumerate_vectors()
                  if s.raw_trace(v.raws) and s.raw_q(v.raws)
                  and s.raw_b(c.x0.raws, v.raws) and s.raw_b(target.raws, v.raws))
    for bad in (s.zero_vector(), traced):
        # a context keeps the letter it first built, so each bad vector
        # reaches the rule through a fresh one
        reached = []
        monkeypatch.setattr(transport, "case2_vector",
                            lambda ctx, bad=bad: reached.append(bad) or bad)
        with pytest.raises(InvariantViolation):
            quadric_transport(GroupContext(F3, 1), target)
        assert reached == [bad]


def test_a_word_vector_of_norm_zero_fails_construction():
    """The rule takes every norm from an identity and checks none: q of each
    letter is checked by verify(), which construction runs."""
    s = SplitSpace.pointed_even(F3, 1)
    x = s.basis_vector(0)   # q(e_1) = 0
    with pytest.raises(InvariantViolation):
        TransportCertificate(s, [x], x, x, "case1")


@pytest.mark.parametrize("field", [Field.prime(5), Field.extension(2, 2), Q], ids=["5", "4", "Q"])
def test_every_transport_and_the_similitude_orbit_use_the_one_rule(monkeypatch, field):
    """reflection_transport, quadric_transport and verify_similitude_orbit
    each call transport._two_reflections, and the
    rule evaluates no q.  The q of each candidate it draws is the caller's,
    evaluated while the count is off."""
    import quadrics.action as action
    import quadrics.transport as transport
    from quadrics.action import verify_similitude_orbit
    rule, calls, inside, q_inside = transport._two_reflections, [0], [False], [0]

    def drawn(auxiliaries):
        it = iter(auxiliaries)
        while True:
            inside[0] = False
            letter = next(it, None)
            inside[0] = True
            if letter is None:
                return
            yield letter

    def counted_rule(space, x, y, q, auxiliaries):
        calls[0] += 1
        inside[0] = True
        try:
            return rule(space, x, y, q, drawn(auxiliaries))
        finally:
            inside[0] = False

    raw_q = SplitSpace.raw_q

    def counted_q(self, raws):
        q_inside[0] += inside[0]
        return raw_q(self, raws)

    monkeypatch.setattr(transport, "_two_reflections", counted_rule)
    monkeypatch.setattr(action, "_two_reflections", counted_rule)
    monkeypatch.setattr(SplitSpace, "raw_q", counted_q)
    s, c = SplitSpace.pointed_even(field, 1), GroupContext(field, 1)
    paths = []
    callers = {
        "reflection_transport": lambda: [
            reflection_transport(s, x, y).path for x, y in
            ((s.basis_vector(0), s.basis_vector(1)), (s.vector([1, 0, 1, 0]), s.one_vector()))],
        "quadric_transport": lambda: [
            quadric_transport(c, c.space.vector(p)).path for p in ([0, 1, 0, 0], [1, 0, 0, 1])],
    }
    if field.is_finite:
        callers["verify_similitude_orbit"] = lambda: [verify_similitude_orbit(field, 1)["pass"]]
    for name, call in callers.items():
        before = calls[0]
        paths += call()
        assert calls[0] > before, name
    assert q_inside[0] == 0
    assert {"case1", "case2"} <= set(paths)


# -- certificates -----------------------------------------------------------------

def test_certificate_serialization():
    c = GroupContext(F3, 1)
    cert = quadric_transport(c, c.space.vector([0, 1, 0, 0]))
    record = cert.to_dict()
    assert record["word"] == [["0", "1", "0", "2"], ["1", "0", "1", "0"]]
    assert record["scalar"] is None
    assert record["dickson"] == 0
    assert record["source"] == ["0", "0", "0", "1"]
    assert record["target"] == ["0", "1", "0", "0"]
    assert record["verified"] is True


def test_certificate_reverify():
    c = GroupContext(F2, 1)
    for p in enumerate_quadric(c.space):
        cert = quadric_transport(c, p)
        assert cert.verify()


def test_a_certificate_is_its_word():
    # the matrix is derived from the word on each read, never stored
    assert "matrix" not in TransportCertificate.__slots__
    c = GroupContext(Field.prime(5), 1)
    for point in ([0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 1]):
        cert = quadric_transport(c, c.space.vector(point))
        assert cert.matrix == word_matrix(c.space, cert.word)
        assert cert.matrix.apply(cert.source) == cert.target
        with pytest.raises(AttributeError):
            object.__setattr__(cert, "matrix", cert.matrix)


def test_reverify_checks_the_word():
    # a word swapped for another certificate's fails re-verification, and so
    # does a word with an isotropic letter, which verify() refuses quietly
    c = GroupContext(Field.prime(5), 1)
    case1 = quadric_transport(c, c.space.vector([0, 1, 0, 0]))
    case2 = quadric_transport(c, c.space.vector([1, 0, 0, 1]))
    assert (case1.path, case2.path) == ("case1", "case2")
    words = case1.word, case2.word
    for cert, foreign in ((case1, words[1]), (case2, words[0])):
        assert cert.verify()
        object.__setattr__(cert, "word", foreign)
        assert not cert.verify()
    object.__setattr__(case1, "word", words[0][:1] + (c.x0,))   # q(x_0) = 0
    assert not case1.verify()


@pytest.mark.parametrize("field", [F2, F3], ids=str)
def test_reverify_recomputes_the_dickson_invariant(field):
    # a recorded invariant that the word's matrix does not have fails
    # re-verification
    c = GroupContext(field, 1)
    cert = quadric_transport(c, c.space.vector([0, 1, 0, 0]))
    assert cert.verify() and cert.dickson == 0
    object.__setattr__(cert, "dickson", 1)
    assert not cert.verify()


@pytest.mark.parametrize("point,path", [([0, 0, 0, 1], "identity"),
                                        ([0, 1, 0, 0], "case1"),
                                        ([1, 0, 0, 1], "case2")])
def test_construction_runs_one_gram_pass_and_one_dickson(monkeypatch, point, path):
    """Construction also evaluates q once on the point (is_on_quadric) and
    once per letter (verify; the matrix is built from the rule's letters);
    the Gram pass is one Gram kernel call, which evaluates no raw_q:
    q(point) = q(x_0) = 0 is not evaluated again for the rule."""
    import quadrics.quadform as quadform
    import quadrics.transport as transport
    calls = {"gram": 0, "dickson": 0}
    q_calls, raw_q = [0], SplitSpace.raw_q

    def counted_q(self, raws):
        q_calls[0] += 1
        return raw_q(self, raws)

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    dickson = counted("dickson", quadform._dickson)
    monkeypatch.setattr(quadform, "_dickson", dickson)
    monkeypatch.setattr(transport, "_dickson", dickson)
    c = GroupContext(F3, 1)
    c.space._gram = counted("gram", c.space._gram)
    target = c.space.vector(point)
    monkeypatch.setattr(SplitSpace, "raw_q", counted_q)
    cert = quadric_transport(c, target)
    assert cert.path == path
    assert calls == {"gram": 1, "dickson": 1}
    assert q_calls == [1 + len(cert.word)]
    assert cert.verify()
    assert calls == {"gram": 2, "dickson": 2}
    assert q_calls == [1 + 2 * len(cert.word)]


def test_certificates_are_built_without_matrix_products(monkeypatch):
    # every word becomes a matrix column by column through raw_reflect
    F4 = Field.extension(2, 2)
    calls = []
    for field in (F3, F4):
        real = field.matmul
        monkeypatch.setattr(field, "matmul",
                            lambda a, b, real=real: calls.append(1) or real(a, b))
    c = GroupContext(F3, 1)
    certs = [quadric_transport(c, c.space.vector(p))
             for p in ([0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 1])]
    assert calls == []
    s = SplitSpace.pointed_even(F4, 1)
    one = s.one_vector()
    for v in s.enumerate_vectors():
        if s.raw_q(v.raws) == 1:
            try:
                certs.append(reflection_transport(s, v, one))
            except SearchExhausted:   # the reflection-orbit split of characteristic 2
                pass
    assert sorted({cert.path for cert in certs}) == ["case1", "case2", "identity"]
    assert {cert.space.field for cert in certs if cert.path == "case2"} == {F3, F4}
    assert all(cert.verified for cert in certs)
    assert calls == []


def test_each_transport_builds_one_certificate(monkeypatch):
    built = []
    real = TransportCertificate.__init__

    def counted(self, *args):
        built.append(args[-1])
        real(self, *args)

    monkeypatch.setattr(TransportCertificate, "__init__", counted)
    s3 = SplitSpace.pointed_even(F3, 1)
    c = GroupContext(F3, 1)
    calls = [lambda: reflection_transport(s3, s3.vector([1, 0, 1, 0]), s3.one_vector()),
             lambda: reflection_transport(s3, s3.basis_vector(0), s3.basis_vector(1))]
    calls += [lambda p=p: quadric_transport(c, c.space.vector(p))
              for p in ([0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 1])]
    for call in calls:
        before = len(built)
        cert = call()
        assert built[before:] == [cert.path]
    assert built == ["case1", "case2", "identity", "case1", "case2"]


# -- golden words -------------------------------------------------------------------

def _outcome(s, x, y):
    """[path, scalar, word] of reflection_transport as its record prints
    them, or the class name of its refusal."""
    try:
        record = reflection_transport(s, x, y).to_dict()
    except SearchExhausted as exc:
        return type(exc).__name__
    return [record["path"], record["scalar"], record["word"]]


WORDS_SHA256 = {
    ("reflection", "pointed_even", "3"): "e700026205a8a580fda0857ecd837ef4267e58b4e0f5a2e7fa1c56a24e53ebae",
}


@pytest.mark.parametrize("kind,shape,spec", sorted(WORDS_SHA256))
def test_transport_words_golden_digest(kind, shape, spec):
    # every word, path and refusal of reflection_transport between vectors of
    # equal norm, pinned byte for byte
    s = SplitSpace(Field.parse(spec), shape, 1)
    vectors = list(s.enumerate_vectors())
    records = [[x.to_strings(), y.to_strings(), _outcome(s, x, y)]
               for x in vectors for y in vectors if s.raw_q(x.raws) == s.raw_q(y.raws)]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == WORDS_SHA256[(kind, shape, spec)]
