"""Exact field arithmetic: prime fields F_p, small extensions GF(p^k), and Q.

Finite field elements are carried as packed integer indices: the residue
for a prime field, sum(c_i * p**i) for the coefficient vector (c_0, ..,
c_{k-1}) of an extension.  Packing keeps vectors and matrices hashable and
cheap to compare; rationals are carried as Fraction.  All representations
are canonical, so equality is representation equality.  Each Field binds the
raw operations, the linear-combination kernel and the string formatter on
these representations for its kind when it is built.  It compiles a form
or Gram kernel for an index-pair tuple on request, and a matmul or matvec
kernel on the first product of each dimension; every generated kernel is
one straight-line expression whose arithmetic comes from Field._term_sum.
Other modules compute and print only through them.
"""

import re
from fractions import Fraction
from functools import cache, partial
from math import isqrt
from operator import add, mul, neg, sub

from .errors import (
    DivisionByZero,
    FieldMismatch,
    InfiniteField,
    InvalidElement,
    InvalidPrimePower,
    NoModulusAvailable,
    NonPrimeCharacteristic,
    UnsupportedSize,
)

ORDER_CAP = 1024
DEGREE_CAP = 4

# One fixed monic irreducible modulus per supported (p, k), written as the
# coefficient tuple (c_0, c_1, ..., c_k) of c_0 + c_1*t + ... + t^k.
MODULI = {
    (2, 2): (1, 1, 1),        # t^2 + t + 1
    (2, 3): (1, 1, 0, 1),     # t^3 + t + 1
    (2, 4): (1, 1, 0, 0, 1),  # t^4 + t + 1
    (3, 2): (1, 0, 1),        # t^2 + 1
    (3, 3): (1, 2, 0, 1),     # t^3 + 2t + 1
    (5, 2): (2, 0, 1),        # t^2 + 2
}

# One term of an extension element: c*g^k, c*g, g^k, g, or an integer c.
_TERM = re.compile(r"(?:(\d+)\*)?g(?:\^(\d+))?|(\d+)", re.ASCII)


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# for every n below this bound (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    """Exact primality: deterministic Miller-Rabin below _MR_BOUND, trial
    division up to sqrt(n) above it."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        return all(n % d for d in range(2, isqrt(n) + 1))
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime_power(q):
    """Return (p, k) with q = p^k, or None if q is not a prime power.  Below
    _MR_BOUND each exact k-th root of q is tested for primality; above it
    the least prime factor is found by trial division."""
    if q < 2:
        return None
    if q < _MR_BOUND:
        for k in range(1, q.bit_length()):
            # for k >= 2 an exact root is below 2^41, where the rounded
            # float root is off by far less than 1/2
            p = q if k == 1 else round(q ** (1 / k))
            if p ** k == q and is_prime(p):
                return p, k
        return None
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


@cache
def _compiled(source):
    """The code object of a generated kernel's source, compiled once."""
    return compile(source, "<quadrics kernel>", "eval")


def _names(prefix, d):
    return ", ".join(f"{prefix}{i}" for i in range(d))


class _ByDimension(dict):
    """d -> kernel, each built by build(d) on its first lookup."""

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, d):
        kernel = self[d] = self.build(d)
        return kernel


class Field:
    """Descriptor of F_p, GF(p^k) with a fixed modulus, or the rationals."""

    __slots__ = (
        "kind", "p", "k", "q", "modulus", "key",
        "_add", "_mul", "_inv", "_neg", "_sqrt", "_hash",
        "raw_add", "raw_sub", "raw_neg", "raw_mul", "raw_inv", "raw_lincomb",
        "raw_str", "raw_parse", "matmul", "matvec", "_matmuls", "_matvecs",
    )

    def __init__(self, kind, p=0, k=1):
        if kind not in ("prime", "extension", "rational"):
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p
        self.k = k
        self._sqrt = None
        if kind == "rational":
            self.q = None
            self.modulus = None
        else:
            # the caps first: past _MR_BOUND is_prime is a trial division
            if k < 1 or k > DEGREE_CAP:
                raise UnsupportedSize(f"extension degree {k} not supported (max {DEGREE_CAP})")
            q = p ** k
            if q > ORDER_CAP:
                raise UnsupportedSize(f"field order {q} exceeds cap {ORDER_CAP}")
            if not is_prime(p):
                raise NonPrimeCharacteristic(f"{p} is not prime")
            self.q = q
            if kind == "prime":
                self.modulus = None
            else:
                if (p, k) not in MODULI:
                    raise NoModulusAvailable(f"no built-in modulus for GF({p}^{k})")
                self.modulus = MODULI[p, k]
                self._build_tables()
        self.key = (kind, p, k)
        self._hash = hash(self.key)
        self._bind_kernels()

    # -- construction -----------------------------------------------------

    @classmethod
    def prime(cls, p):
        return cls("prime", p, 1)

    @classmethod
    def extension(cls, p, k):
        if k == 1:
            return cls.prime(p)
        return cls("extension", p, k)

    @classmethod
    def rationals(cls):
        return cls("rational", 0, 1)

    @classmethod
    def parse(cls, spec):
        """Build a field from a string such as "5", "2^3", "8", or "Q"; a bare
        integer is the order of the field."""
        spec = spec.strip()
        if spec in ("Q", "QQ", "rational", "rationals"):
            return cls.rationals()
        try:
            if not spec.isascii() or "_" in spec:   # int() reads 3_1 and Unicode digits
                raise ValueError
            numbers = [int(part) for part in spec.split("^", 1)]
        except ValueError:
            raise InvalidPrimePower(
                f"cannot read field {spec!r}: expected p^k, a prime power q, or Q") from None
        return cls.extension(*numbers) if len(numbers) == 2 else cls.of_order(*numbers)

    @classmethod
    def of_order(cls, q):
        if q > ORDER_CAP:   # before any primality test
            raise UnsupportedSize(f"field order {q} exceeds cap {ORDER_CAP}")
        pk = is_prime_power(q)
        if pk is None:
            raise NonPrimeCharacteristic(f"{q} is not a prime power")
        return cls.extension(*pk)

    def _build_tables(self):
        p, k, q, mod = self.p, self.k, self.q, self.modulus
        coeffs = [self._unpack_raw(i) for i in range(q)]
        mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                prod = [0] * (2 * k - 1)
                ca, cb = coeffs[a], coeffs[b]
                for i in range(k):
                    if ca[i]:
                        for j in range(k):
                            prod[i + j] = (prod[i + j] + ca[i] * cb[j]) % p
                for i in range(2 * k - 2, k - 1, -1):
                    c = prod[i]
                    if c:
                        prod[i] = 0
                        for j in range(k):
                            prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
                v = self._pack(prod[:k])
                mul[a][b] = v
                mul[b][a] = v
        add = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                v = self._pack([(x + y) % p for x, y in zip(coeffs[a], coeffs[b])])
                add[a][b] = v
                add[b][a] = v
        neg = [self._pack([(-c) % p for c in coeffs[a]]) for a in range(q)]
        inv = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul[a][b] == 1:
                    inv[a] = b
                    break
            else:   # F_p[t]/(m) is a field exactly when m is irreducible
                raise NoModulusAvailable(f"built-in modulus {mod} for GF({p}^{k}) is reducible")
        self._add, self._mul, self._neg, self._inv = add, mul, neg, inv

    def _pack(self, coeffs):
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + (c % self.p)
        return v

    def _unpack_raw(self, idx):
        coeffs = []
        for _ in range(self.k):
            coeffs.append(idx % self.p)
            idx //= self.p
        return coeffs

    # -- raw arithmetic on packed representations --------------------------

    def _bind_kernels(self):
        """Bind the raw operations of this field's kind, once: prime fields
        reduce mod p, extensions read the tables, and Q computes with
        Fraction, so no call branches on the kind.  raw_lincomb(a, x, b, y)
        is the tuple a x + b y of two vectors.  raw_str is str of an
        element: the residue or the fraction, and in an extension the sum
        c_0+c_1*g+c_2*g^2+... of every coefficient, rendered once per
        element and kept, and raw_parse its inverse.  matmul takes two row
        tuples and matvec a row tuple and a vector; each passes the rows to
        the straight-line kernel for their dimension d = len(a), which is
        generated and compiled on the first call for that d and kept per
        field."""
        if self.kind == "extension":
            add_t, mul_t, neg_t, inv_t = self._add, self._mul, self._neg, self._inv

            def lincomb(a, x, b, y):
                row_a, row_b = mul_t[a], mul_t[b]
                return tuple([add_t[row_a[s]][row_b[t]] for s, t in zip(x, y)])

            unpack = self._unpack_raw

            @cache
            def raw_str(a):
                return "+".join(f"{c}*g^{i}" if i > 1 else (f"{c}*g" if i == 1 else str(c))
                                for i, c in enumerate(unpack(a)))

            self.raw_add = lambda a, b: add_t[a][b]
            self.raw_sub = lambda a, b: add_t[a][neg_t[b]]
            self.raw_neg = neg_t.__getitem__
            self.raw_mul = lambda a, b: mul_t[a][b]
            inv = inv_t.__getitem__
            raw_parse = self._parse_extension
        elif self.kind == "prime":
            p = self.p

            def lincomb(a, x, b, y):
                return tuple([(a * s + b * t) % p for s, t in zip(x, y)])

            self.raw_add = lambda a, b: (a + b) % p
            self.raw_sub = lambda a, b: (a - b) % p
            self.raw_neg = lambda a: -a % p
            self.raw_mul = lambda a, b: a * b % p
            inv = lambda a: pow(a, -1, p)
            raw_str = str
            read = lambda text: int(text) % p
        else:
            def lincomb(a, x, b, y):
                if a == 1:   # skips a Fraction product per coordinate
                    return tuple([s + b * t for s, t in zip(x, y)])
                return tuple([a * s + b * t for s, t in zip(x, y)])

            self.raw_add, self.raw_sub, self.raw_neg, self.raw_mul = add, sub, neg, mul
            inv = partial(Fraction, 1)   # 1 / a would be a float for an int a
            raw_str = str
            read = Fraction

        if self.kind != "extension":
            def raw_parse(text):
                text = text.strip()
                try:
                    if not text.isascii() or "_" in text:   # as in Field.parse
                        raise ValueError
                    return read(text)
                except (ValueError, ZeroDivisionError):
                    raise InvalidElement(f"cannot read {text!r} as an element "
                                         f"of field {self}") from None

        def raw_inv(a):
            if not a:
                raise DivisionByZero("inverse of zero")
            return inv(a)

        self.raw_inv, self.raw_lincomb, self.raw_str = raw_inv, lincomb, raw_str
        self.raw_parse = raw_parse
        matmuls = self._matmuls = _ByDimension(self._matmul_kernel)
        matvecs = self._matvecs = _ByDimension(self._matvec_kernel)
        self.matmul = lambda a, b: matmuls[len(a)](*a, *b)
        self.matvec = lambda a, v: matvecs[len(a)](*a, *v)

    # -- generated kernels -------------------------------------------------

    def _term_sum(self, terms):
        """Source of the sum of x*y over the source pairs (x, y) in terms:
        one sum reduced once mod p, nested add/mul table lookups in an
        extension, a plain sum over Q.  Every generated kernel's arithmetic
        is written here."""
        if self.kind == "extension":
            (x, y), *rest = terms
            body = f"mul[{x}][{y}]"
            for x, y in rest:
                body = f"add[{body}][mul[{x}][{y}]]"
            return body
        body = " + ".join(f"{x}*{y}" for x, y in terms)
        return f"({body}) % {self.p}" if self.kind == "prime" else body

    def _kernel(self, source):
        """The function of a generated lambda, its source compiled once per
        distinct source and bound to this field's tables."""
        return eval(_compiled(source),
                    {"add": self._add, "mul": self._mul} if self.kind == "extension" else {})

    def bilinear(self, pairs):
        """f(u, w) = sum of u_i w_j over the index pairs (i, j), as one
        straight-line expression built from the indices and p alone;
        nothing is compiled until a kernel is asked for."""
        body = self._term_sum([(f"u[{i}]", f"w[{j}]") for i, j in pairs])
        return self._kernel(f"lambda u, w: {body}")

    def gram(self, pairs, d):
        """f(c0, .., c{d-1}) = (q(c0), .., q(c{d-1}), B(ci, cj) for i < j) for
        the form q(x) = sum of x_i x_j over the index pairs (i, j) and its
        polarization B, as one straight-line expression.  The diagonal is q
        itself: B(c, c) = 2q(c) vanishes in characteristic 2."""
        both = pairs + tuple((j, i) for i, j in pairs)
        values = [self._term_sum([(f"c{a}[{i}]", f"c{a}[{j}]") for i, j in pairs])
                  for a in range(d)]
        values += [self._term_sum([(f"c{a}[{i}]", f"c{b}[{j}]") for i, j in both])
                   for a in range(d) for b in range(a + 1, d)]
        return self._kernel(f"lambda {_names('c', d)}: ({', '.join(values)},)")

    def _matmul_kernel(self, d):
        """lambda a0, .., b0, ..: the rows of a b, given the d rows of each."""
        rows = ", ".join(
            "(" + ", ".join(self._term_sum([(f"a{i}[{k}]", f"b{k}[{j}]") for k in range(d)])
                            for j in range(d)) + ",)"
            for i in range(d))
        return self._kernel(f"lambda {_names('a', d)}, {_names('b', d)}: ({rows},)")

    def _matvec_kernel(self, d):
        """lambda a0, .., v0, ..: a v, given the d rows of a and the d
        coordinates of v."""
        coords = ", ".join(self._term_sum([(f"a{i}[{k}]", f"v{k}") for k in range(d)])
                           for i in range(d))
        return self._kernel(f"lambda {_names('a', d)}, {_names('v', d)}: ({coords},)")

    @property
    def is_finite(self):
        return self.kind != "rational"

    @property
    def characteristic(self):
        return self.p if self.is_finite else 0

    def raw_div(self, a, b):
        return self.raw_mul(a, self.raw_inv(b))

    def raw_sqrt(self, a):
        """A square root of a, or None; the enumeration-first root is returned."""
        if self._sqrt is None:
            if not self.is_finite:
                raise InfiniteField("square roots are only searched in finite fields")
            table = {}
            for s in range(self.q):
                sq = self.raw_mul(s, s)
                if sq not in table:
                    table[sq] = s
            self._sqrt = table
        return self._sqrt.get(a)

    # -- elements ----------------------------------------------------------

    @property
    def zero(self):
        return FieldElement(self, Fraction(0) if self.kind == "rational" else 0)

    @property
    def one(self):
        return FieldElement(self, Fraction(1) if self.kind == "rational" else 1)

    def element(self, value):
        """Coerce an int, Fraction, or FieldElement into this field."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldMismatch(f"{value!r} is not in {self}")
            return value
        if self.kind == "rational":
            return FieldElement(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise FieldMismatch(f"{value} is not an integer")
            value = value.numerator
        # integers embed through the prime subfield
        return FieldElement(self, int(value) % self.p)

    def from_coeffs(self, coeffs):
        """Extension element with coefficient vector (c_0, ..., c_{k-1})."""
        if self.kind != "extension":
            raise FieldMismatch("coefficient vectors describe extension elements only")
        if len(coeffs) != self.k:
            raise FieldMismatch(f"expected {self.k} coefficients")
        return FieldElement(self, self._pack(list(coeffs)))

    @property
    def generator(self):
        """The class of t in GF(p^k)."""
        if self.kind != "extension":
            raise FieldMismatch("only extension fields have a polynomial generator")
        return FieldElement(self, self.p)

    def elements(self):
        """All elements in enumeration order: 0 first, then 1, then the rest."""
        if not self.is_finite:
            raise InfiniteField("cannot enumerate the rationals")
        return [FieldElement(self, r) for r in range(self.q)]

    def parse_element(self, text):
        """Inverse of str(element), read by raw_parse."""
        return FieldElement(self, self.raw_parse(text))

    def _parse_extension(self, text):
        """raw_parse of an extension: a sum of terms c, g, g^k, c*g and c*g^k,
        each optionally signed and taken in the field, so a power of g may
        exceed the degree."""
        text = text.strip()
        signed = re.split(r"([+-])", text)
        if signed[0].strip() or len(signed) == 1:
            signed.insert(0, "+")
        else:
            del signed[0]   # a leading sign
        value = 0
        for sign, term in zip(signed[::2], signed[1::2]):
            match = _TERM.fullmatch(term.strip())
            if match is None:
                raise InvalidElement(
                    f"cannot read {term.strip()!r} in {text!r} as an element of field {self}")
            coeff, power, const = match.groups()
            if const is not None:
                x = int(const) % self.p
            else:
                x = self.raw_mul((self.generator ** int(power or 1)).rep, int(coeff or 1) % self.p)
            value = self.raw_sub(value, x) if sign == "-" else self.raw_add(value, x)
        return value

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other):
        return self is other or isinstance(other, Field) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if self.kind == "rational":
            return "Field(Q)"
        if self.kind == "prime":
            return f"Field(F_{self.p})"
        return f"Field(GF({self.p}^{self.k}))"

    def __str__(self):
        if self.kind == "rational":
            return "Q"
        if self.kind == "prime":
            return str(self.p)
        return f"{self.p}^{self.k}"


class FieldElement:
    """Immutable element of a Field, in canonical representation."""

    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other.rep
        if isinstance(other, int) or (self.field.kind == "rational" and isinstance(other, Fraction)):
            return self.field.element(other).rep
        return NotImplemented

    def __add__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_add(self.rep, rep))

    __radd__ = __add__

    def __sub__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_sub(self.rep, rep))

    def __rsub__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_sub(rep, self.rep))

    def __mul__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_mul(self.rep, rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_div(self.rep, rep))

    def __rtruediv__(self, other):
        rep = self._coerce(other)
        if rep is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.field.raw_div(rep, self.rep))

    def __neg__(self):
        return FieldElement(self.field, self.field.raw_neg(self.rep))

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inv(self):
        return FieldElement(self.field, self.field.raw_inv(self.rep))

    def sqrt(self):
        """A square root in the same field, or None if there is none."""
        root = self.field.raw_sqrt(self.rep)
        return None if root is None else FieldElement(self.field, root)

    @property
    def is_zero(self):
        return not self.rep

    @property
    def coeffs(self):
        if self.field.kind != "extension":
            raise FieldMismatch("coefficient vectors describe extension elements only")
        return tuple(self.field._unpack_raw(self.rep))

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.rep == other.rep
        if isinstance(other, (int, Fraction)):
            return self == self.field.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field._hash, self.rep))

    def __bool__(self):
        return bool(self.rep)

    def __str__(self):
        return self.field.raw_str(self.rep)

    def __repr__(self):
        return f"<{self} in {self.field}>"
