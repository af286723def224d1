"""Size guards, one per kind of enumeration.  Each command compares a
closed-form size with its guard, from (q, n) before any space is built, and
raises TooLarge above it; force=True (the CLI's --force) skips the check.

digit_limit() is not a work bound and --force does not skip it: a report
prints its counts in decimal, and Python converts no int of more digits than
its limit to a string."""

import sys

ENUM_GUARD = 10 ** 8      # quadric points, q^(2n+1), and spin-check vectors, q^dim
VECTOR_GUARD = 10 ** 8    # vectors swept for reflections and the similitude orbit
BRUTE_GUARD = 10 ** 9     # candidate cap q^(dim^2) for direct enumeration
CLOSURE_GUARD = 10 ** 6   # the SO-model listed by so_model_closure, and |Stab(x_0)| in
                          # verify_homogeneous; its level words never list Stab(x_0), so
                          # this does not bound their work, and it refuses (n, q) = (3, 3),
                          # about 0.02 s forced (ROADMAP.md, item 6: guards in the units
                          # of the work)


def exceeds(q, e, guard):
    """q^e > guard for a field order q >= 2, without computing a power past
    the guard: q^e >= 2^e > guard once e reaches guard's bit length."""
    return e >= guard.bit_length() or q ** e > guard


def digit_limit():
    """The most decimal digits a printed count, q^(2n) + q^n, may have: the
    interpreter's int-to-string limit (4300 by default, set by
    PYTHONINTMAXSTRDIGITS or sys.set_int_max_str_digits), or None where it
    is 0 or the interpreter has none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        return None
    return get() or None
