"""Constructive transitivity: reflection words with verified certificates.

Every quadric point is reached from x_0 by a word of at most two trace-0
reflections (so the word fixes 1) in Dickson invariant 0, in closed form:
r_{w - x_0} followed by the fixed reflection r_{e_1 + e_{n+2}} when
q(w - x_0) != 0, else the pair [w - r_a(x_0), a] with a = e_{n+1} - e_{2n+2}.
A certificate is its word: its matrix is derived from the word, and it is
verified before being returned.

Run with:  python demos/05_transport_certificates.py
"""

import json

from quadrics import Field, GroupContext, SplitSpace, quadric_transport, transport_all
from quadrics.errors import SearchExhausted
from quadrics.transport import reflection_transport

F2 = Field.prime(2)
F3 = Field.prime(3)

# One certificate in detail.
ctx = GroupContext(F3, 1)
cert = quadric_transport(ctx, ctx.space.vector([0, 1, 0, 0]))
print("certificate for e_2 over F_3:")
print(json.dumps(cert.to_dict(), indent=2))

# Transport every point of several small quadrics; tally which case fired.
for n, q in [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3)]:
    c = GroupContext(Field.of_order(q), n)
    certs, stats = transport_all(c)
    print(f"n={n}, q={q}: {len(certs)} certificates, all verified; paths {stats}")

# General norm-matched pairs: the two-case recipe works everywhere over F_3,
# but over F_2 a handful of norm-1 pairs admit no auxiliary vector at all;
# those pairs cannot be joined by any word of reflections (the classical
# dimension-4 exception) and the search reports exhaustion honestly.
s = SplitSpace.pointed_even(F2, 1)
x, y = s.vector([0, 1, 0, 1]), s.vector([0, 1, 1, 1])
try:
    reflection_transport(s, x, y)
except SearchExhausted as exc:
    print(f"\nover F_2, moving {x.to_strings()} to {y.to_strings()}: {exc}")
