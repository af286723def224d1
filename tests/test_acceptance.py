"""Acceptance suite: one test per criterion, each printing one summary line.

All comparisons are exact (integer and field-element equality); the time
budgets of the slow criteria are asserted as part of the test.
"""

import random
import time

from quadrics.errors import SearchExhausted
from quadrics.fields import Field
from quadrics.quadform import SplitSpace, dickson, reflect, reflection_matrix
from quadrics.quadric import count_closed_form, count_recursive, enumerate_quadric
from quadrics.action import (
    GroupContext,
    enumerate_group,
    enumerate_isometries,
    group_order,
    in_so_odd,
    verify_homogeneous,
    verify_similitude_orbit,
)
from quadrics.spinfactor import verify_projective_space
from quadrics.transport import reflection_transport, transport_all

COUNT_GRID = [(n, q) for n in (1, 2) for q in (2, 3, 4, 5)] + [(3, 2), (3, 3)]
HOMOGENEOUS_GRID = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3)]
SPIN_GRID = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3)]


def _report(name, ok, detail):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_point_count_identity():
    start = time.time()
    results = []
    for n, q in COUNT_GRID:
        space = SplitSpace.pointed_even(Field.of_order(q), n)
        counted = len(enumerate_quadric(space))
        results.append(counted == count_closed_form(n, q) == q ** (2 * n) + q ** n)
    elapsed = time.time() - start
    ok = all(results) and elapsed < 10.0
    _report("1 point-count identity", ok,
            f"{len(COUNT_GRID)} grid cells exact in {elapsed:.2f}s")


def test_criterion_2_recursion_equals_closed_form():
    start = time.time()
    ok = all(count_recursive(n, q) == count_closed_form(n, q)
             for n in range(1, 7)
             for q in (2, 3, 4, 5, 7, 8, 9, 25, 27))
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _report("2 recursion = closed form", ok, f"54 identities exact in {elapsed:.2f}s")


def test_criterion_3_group_orders_vs_brute_force():
    start = time.time()
    ctx = GroupContext(Field.prime(2), 1)
    # The 1-fixing isometry group with Dickson 0 is the faithful model of the
    # rank-3 special orthogonal group; its brute-forced order matches the
    # classical formula.  The Dickson-unrestricted stabilizer is exactly twice
    # as large (the extra coset is r_1 times the model), which is pinned too.
    so_model = enumerate_isometries(ctx.space, fix_one=True, dickson_value=0)
    o_model = enumerate_group(ctx, "o_odd")
    so2 = enumerate_isometries(SplitSpace.even(Field.prime(3), 1), dickson_value=0)
    so4 = enumerate_isometries(SplitSpace.even(Field.prime(2), 2), dickson_value=0)
    checks = [
        len(so_model) == 6 == group_order("odd", 1, 2),
        len(o_model) == 12 == 2 * group_order("odd", 1, 2),
        len(so2) == 2 == group_order("even_split", 1, 3),
        len(so4) == 36 == group_order("even_split", 2, 2),
    ]
    elapsed = time.time() - start
    ok = all(checks) and elapsed < 60.0
    _report("3 group orders vs brute force", ok,
            f"|SO3(F2)|=6, |Stab_1|=12, |SO2(F3)|=2, |SO4(F2)|=36 in {elapsed:.1f}s")


def test_criterion_4_homogeneous_space():
    start = time.time()
    details = []
    ok = True
    for n, q in HOMOGENEOUS_GRID:
        report = verify_homogeneous(Field.of_order(q), n)
        ok = ok and report["pass"]
        details.append(f"({n},{q}):{report['orbit_size']}x{report['stab_size']}")
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    _report("4 homogeneous space", ok, f"{'; '.join(details)} in {elapsed:.1f}s")


def test_criterion_5_constructive_transitivity():
    start = time.time()
    total = verified = 0
    ok = True
    for n, q in HOMOGENEOUS_GRID:
        ctx = GroupContext(Field.of_order(q), n)
        certs, stats = transport_all(ctx)
        total += len(certs)
        for cert in certs:
            good = (cert.verified and cert.dickson == 0
                    and in_so_odd(ctx, cert.matrix)
                    and cert.matrix.apply(ctx.one) == ctx.one
                    and cert.matrix.apply(ctx.x0) == cert.target
                    and len(cert.word) <= 3)
            verified += good
            ok = ok and good
        ok = ok and len(certs) == count_closed_form(n, q)
    elapsed = time.time() - start
    _report("5 constructive transitivity", ok,
            f"{verified}/{total} certificates verified in {elapsed:.1f}s")


def test_criterion_6_reflection_laws():
    start = time.time()
    failures = 0
    rng = random.Random(101)

    fields = [Field.prime(2), Field.prime(3), Field.extension(2, 2), Field.prime(5)]
    for f in fields:
        s = SplitSpace.pointed_even(f, 1)
        aniso = [v for v in s.enumerate_vectors() if s.raw_q(v.raws)]
        sample = [v for v in s.enumerate_vectors()]
        # q-preservation and involutivity
        for v in aniso:
            for w in sample:
                image = reflect(s, v, w)
                failures += s.eval_q(image) != s.eval_q(w)
                failures += reflect(s, v, image) != w
        # reflections have Dickson 1; 500 random words obey additivity
        refls = [reflection_matrix(s, v) for v in aniso]
        failures += sum(dickson(s, r) != 1 for r in refls)
        for _ in range(500):
            length = rng.randrange(1, 6)
            word = [rng.choice(refls) for _ in range(length)]
            m = word[0]
            for r in word[1:]:
                m = m * r
            failures += dickson(s, m) != length % 2

    # two-case transport on all norm-matched pairs of nonzero vectors;
    # over F_2 exactly 18 norm-1 pairs provably admit no auxiliary vector
    # (verified by re-enumeration) and are correctly reported as exhausted
    for f, allowed_exhaustions in ((Field.prime(2), 18), (Field.prime(3), 0)):
        s = SplitSpace.pointed_even(f, 1)
        vectors = [v for v in s.enumerate_vectors() if not v.is_zero]
        exhausted = 0
        for x in vectors:
            for y in vectors:
                if s.raw_q(x.raws) != s.raw_q(y.raws):
                    continue
                try:
                    cert = reflection_transport(s, x, y)
                except SearchExhausted:
                    genuinely = not any(
                        s.raw_q(w.raws) and s.raw_b(x.raws, w.raws)
                        and s.raw_b(y.raws, w.raws)
                        for w in s.enumerate_vectors())
                    failures += not genuinely
                    exhausted += 1
                    continue
                failures += cert.matrix.apply(x) != y
                failures += len(cert.word) > 2
        failures += exhausted != allowed_exhaustions

    elapsed = time.time() - start
    _report("6 reflection laws", failures == 0,
            f"zero failures across property sweeps in {elapsed:.1f}s")


def test_criterion_7_spin_factor_equivalence():
    start = time.time()
    ok = True
    counts = []
    for n, q in SPIN_GRID:
        report = verify_projective_space(Field.of_order(q), n)
        ok = ok and report["pass"]
        ok = ok and report["idempotents"] == count_closed_form(n, q)
        counts.append(f"({n},{q}):{report['idempotents']}")
    elapsed = time.time() - start
    _report("7 spin-factor equivalence", ok, f"{'; '.join(counts)} in {elapsed:.1f}s")


def test_criterion_8_similitude_orbit_shadow():
    start = time.time()
    rep4 = verify_similitude_orbit(Field.extension(2, 2), 1)
    rep3 = verify_similitude_orbit(Field.prime(3), 1)
    ok = (rep4["pass"] and rep4["orbit_size"] == rep4["nonzero_norm_vectors"]
          and rep3["pass"] and rep3["orbit_size"] == 24
          and rep3["nonzero_norm_vectors"] == 48)
    elapsed = time.time() - start
    _report("8 similitude orbit shadow", ok,
            f"F4: {rep4['orbit_size']}/180 transitive; F3: 24 of 48 in {elapsed:.1f}s")
