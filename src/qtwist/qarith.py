"""Exact arithmetic in Z[q], Q(q) and the localization Z[q]_(p,q-1).

Polynomials in q are represented as tuples of arbitrary-precision integers
in ascending degree: a_0 + a_1*q + ... + a_n*q^n corresponds to
(a_0, a_1, ..., a_n) with a_n != 0, and () for the zero polynomial.

Products use the schoolbook loop unless both operands have at least
``KRONECKER_CUTOFF`` (24) terms; then they go by Kronecker substitution
(Kronecker 1882; Harvey, J. Symb. Comput. 2009): each operand is packed
into one integer in base 2^k, the two integers are multiplied once by
CPython's Karatsuba, and the product's signed base-2^k digits are its
coefficients.  k is the sum of the operands' largest coefficient bit
lengths, plus the bit length of the shorter length, plus a sign bit,
rounded up to whole bytes so that packing and unpacking go through
``int.to_bytes``/``int.from_bytes``.  Below the cutoff, or when one
operand is short, the conversions cost more than the loop.

Fractions num/den of such polynomials are kept in a canonical form: num and
den coprime over Q[q], their integer contents coprime, lc(den) > 0; so
equality is structural.  Untrusted input (the public constructor,
``from_json``) is reduced by a gcd of num and den in ``_reduce_pair``.
Operations on canonical operands use Henrici's method (JACM 1956; Knuth,
TAOCP 2, 4.5.1), as ``fractions.Fraction`` does: a product takes the gcds
of each numerator with the other denominator, a sum the gcd g of the
denominators and then that of g with the new numerator, and neither takes
a gcd of the full result.  ``LocScalar`` is such a fraction regarded in
the localization of Z[q] at (p, q-1), p given by the caller.

q-analogs: ``q_int(n)`` = 1 + q + ... + q^(n-1), ``q_factorial``,
``q_binomial`` (Gaussian binomial, computed by the q-Pascal recurrence),
and cyclotomic polynomials used for exact division decisions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class NotDivisibleError(ArithmeticError):
    """Exact division failed; carries a witness (remainder or coefficient)."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# integer polynomial kernel (tuples of ints, ascending degree)
# ---------------------------------------------------------------------------

def _trim(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _neg(a):
    return tuple(-c for c in a)


KRONECKER_CUTOFF = 24   # both operands need this many terms for _mul_kronecker


def _mul(a, b):
    if len(a) >= KRONECKER_CUTOFF and len(b) >= KRONECKER_CUTOFF:
        return _mul_kronecker(a, b)
    return _mul_schoolbook(a, b)


def _mul_schoolbook(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _trim(out)


def _kron_pack(a, w):
    """The integer sum of a[i] * 256^(w*i); needs |a[i]| < 256^w."""
    if min(a) >= 0:
        return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")
    zero = bytes(w)
    pos = b"".join([c.to_bytes(w, "little") if c > 0 else zero for c in a])
    neg = b"".join([(-c).to_bytes(w, "little") if c < 0 else zero for c in a])
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _kron_unpack(x, w, m):
    """The m signed base-256^w digits of x, each in [-256^w / 2, 256^w / 2).

    Adding 256^w / 2 to every digit makes them all non-negative, so the
    digits are read straight off the bytes with no carry between them.
    """
    half = 1 << (8 * w - 1)
    x += int.from_bytes((bytes(w - 1) + b"\x80") * m, "little")
    s = x.to_bytes(w * m, "little")
    return [int.from_bytes(s[i:i + w], "little") - half for i in range(0, w * m, w)]


def _mul_kronecker(a, b):
    """Product by Kronecker substitution: evaluate both operands at q = 256^w,
    multiply the two integers once, and read the coefficients off the digits.

    A product coefficient is a sum of min(len(a), len(b)) terms, each below
    2^(bits(a) + bits(b)) in absolute value, so with a sign bit on top it
    fits in k = bits(a) + bits(b) + bitlen(min length) + 1 bits; w is k in
    whole bytes.
    """
    if not a or not b:
        return ()
    k = (max(max(a), -min(a)).bit_length() + max(max(b), -min(b)).bit_length()
         + min(len(a), len(b)).bit_length() + 1)
    w = (k + 7) >> 3
    x = _kron_pack(a, w)
    y = x if b is a else _kron_pack(b, w)   # x * x takes CPython's squaring path
    return _trim(_kron_unpack(x * y, w, len(a) + len(b) - 1))


def _scale(a, k):
    if k == 0:
        return ()
    return tuple(c * k for c in a)


def _content(a):
    g = 0
    for c in a:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def _primitive(a):
    """Primitive part with positive leading coefficient."""
    if not a:
        return ()
    g = _content(a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a)


def _divmod_int(a, b):
    """Division in Z[q]; quotient coefficients must stay integral.

    Requires lc(b) to divide every intermediate leading coefficient
    (always true when b is monic).  Raises NotDivisibleError otherwise.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    lb = b[-1]
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        if c % lb:
            raise NotDivisibleError("non-integral quotient coefficient", witness=c)
        f = c // lb
        q[i - db] = f
        for j, bj in enumerate(b):
            a[i - db + j] -= f * bj
    return _trim(q), _trim(a)


def _divexact(a, b):
    q, r = _divmod_int(a, b)
    if r:
        raise NotDivisibleError("nonzero remainder", witness=r)
    return q


def _pseudo_rem(a, b):
    """prem(a, b): remainder of lc(b)^(da-db+1) * a by b, over Z."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    a = list(a)
    for i in range(da, db - 1, -1):
        c = a[i]
        for j in range(len(a)):
            a[j] *= lb
        if c:
            for j, bj in enumerate(b):
                a[i - db + j] -= c * bj
        a[i] = 0
    return _trim(a)


def _gcd(a, b):
    """Primitive gcd in Z[q] (a gcd over Q[q], normalized)."""
    if not a:
        return _primitive(b)
    if not b:
        return _primitive(a)
    if len(a) == 1 or len(b) == 1:   # nonzero constants are units over Q
        return (1,)
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) == 1:
            return (1,)
        r = _pseudo_rem(a, b)
        a, b = b, _primitive(r)
    return a


def power(base, n, one):
    """base ** n by square-and-multiply; one is the unit of base's ring."""
    if n < 0:
        raise ValueError("negative power")
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


class QPoly:
    """Integer-coefficient polynomial in q, canonical (no trailing zeros)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if isinstance(coeffs, QPoly):
            self.coeffs = coeffs.coeffs
        elif isinstance(coeffs, int):
            self.coeffs = (coeffs,) if coeffs else ()
        else:
            cs = tuple(coeffs)
            for c in cs:
                if not isinstance(c, int):
                    raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
            self.coeffs = _trim(cs)

    @classmethod
    def _raw(cls, coeffs):
        """Trusted constructor: coeffs is an already-trimmed tuple of ints."""
        self = object.__new__(cls)
        self.coeffs = coeffs
        return self

    # -- basic structure ----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly._raw(_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return QPoly._raw(_neg(self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return QPoly._raw(_scale(self.coeffs, other))
        if not isinstance(other, QPoly):
            return NotImplemented
        return QPoly._raw(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, ONE)

    # -- substitutions and evaluation ----------------------------------------

    def stretch(self, k):
        """Substitute q -> q^k (k >= 1)."""
        if k == 1 or not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return QPoly(out)

    def shifted(self, k):
        """Multiply by q^k."""
        if not self.coeffs:
            return self
        return QPoly((0,) * k + self.coeffs)

    def eval_int(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def at_one(self):
        return self.eval_int(1)

    def to_q_minus_one(self):
        """Rewrite in the variable t = q - 1; returns ascending t-coefficients."""
        a = list(self.coeffs)
        n = len(a)
        for i in range(n):        # Ruffini-Horner shift by +1
            for j in range(n - 1, i, -1):
                a[j - 1] += a[j]
        return tuple(a)

    # -- division -------------------------------------------------------------

    def divexact(self, other):
        """Exact division in Z[q]; raises NotDivisibleError if not exact."""
        if isinstance(other, int):
            other = QPoly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return self
        return QPoly._raw(_divexact(self.coeffs, other.coeffs))

    def divides(self, other):
        try:
            other.divexact(self)
            return True
        except NotDivisibleError:
            return False

    def content(self):
        return _content(self.coeffs)

    # -- presentation -----------------------------------------------------------

    def __repr__(self):
        return f"QPoly({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                v = "q" if i == 1 else f"q^{i}"
                if c == 1:
                    parts.append(v)
                elif c == -1:
                    parts.append(f"-{v}")
                else:
                    parts.append(f"{c}*{v}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # -- serialization ------------------------------------------------------------

    def to_json(self):
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, list) or not all(
                type(c) is int
                or type(c) is str and c.isascii() and c.removeprefix("-").isdigit()
                for c in data):
            raise ValueError(f"a q-polynomial is an array of decimal strings, got {data!r}")
        return cls([int(c) for c in data])


ZERO = QPoly()
ONE = QPoly(1)
Q = QPoly((0, 1))


# ---------------------------------------------------------------------------
# q-analogs
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def q_int(n):
    """The q-analog 1 + q + ... + q^(n-1); q_int(0) = 0."""
    if n < 0:
        raise ValueError("q_int needs n >= 0")
    return QPoly((1,) * n)


@lru_cache(maxsize=None)
def q_factorial(n):
    """Product of q_int(j) for j = 1..n."""
    if n < 0:
        raise ValueError("q_factorial needs n >= 0")
    if n == 0:
        return ONE
    return q_factorial(n - 1) * q_int(n)


@lru_cache(maxsize=None)
def q_binomial(n, k):
    """Gaussian binomial coefficient, a polynomial in q.

    Built with the recurrence C(n,k) = C(n-1,k-1) + q^k C(n-1,k); equal to
    the exact quotient q_factorial(n) / (q_factorial(k) q_factorial(n-k)).
    """
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"q_binomial out of range: n={n}, k={k}")
    if k == 0 or k == n:
        return ONE
    return q_binomial(n - 1, k - 1) + q_binomial(n - 1, k).shifted(k)


@lru_cache(maxsize=None)
def q_int_pow(n, j):
    """q_int(n) in the variable q^j."""
    return q_int(n).stretch(j)


@lru_cache(maxsize=None)
def q_binomial_pow(n, k, j):
    """Gaussian binomial in the variable q^j."""
    return q_binomial(n, k).stretch(j)


@lru_cache(maxsize=None)
def q_factorial_pow(n, j):
    return q_factorial(n).stretch(j)


@lru_cache(maxsize=None)
def cyclotomic(d):
    """The d-th cyclotomic polynomial, by exact division of q^d - 1."""
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    num = QPoly((-1,) + (0,) * (d - 1) + (1,))
    for e in range(1, d):
        if d % e == 0:
            num = num.divexact(cyclotomic(e))
    return num


def q_factorial_cyclotomic_exponents(n, j=1):
    """Exponent of each cyclotomic factor in q_factorial(n) stretched by j.

    q_int(m) = prod_{d | m, d > 1} cyclotomic(d), so the factorial collects
    floor(n/d) copies of cyclotomic(d); stretching by j turns the factor
    cyclotomic(d) of q_int(m) into prod of cyclotomic(e) over the e with
    lcm-type condition e | d*j, e not | j applied to q^(d*j)-1 / q^j-1.
    Returned as a dict {d: exponent} with the stretch already resolved.
    """
    out = {}
    for m in range(2, n + 1):
        # q_int(m) at q^j = (q^(mj)-1)/(q^j-1): cyclotomic(e) for e | mj, e not | j
        for e in _divisors(m * j):
            if j % e:
                out[e] = out.get(e, 0) + 1
    return out


@lru_cache(maxsize=None)
def _divisors(n):
    small, large = [], []
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
    return tuple(small + large[::-1])


# ---------------------------------------------------------------------------
# canonical fractions
# ---------------------------------------------------------------------------

def _coprime(num, den):
    """Canonical form of a pair coprime over Q[q]: content out, lc(den) > 0."""
    if not num:
        return (), (1,)
    c = math.gcd(_content(num), _content(den))
    if den[-1] < 0:
        c = -c
    if c != 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    return num, den


def _reduce_pair(num, den):
    """Canonicalize an arbitrary (num, den) pair of coefficient tuples."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if num and len(den) > 1:
        g = _gcd(num, den)
        if g != (1,):
            num, den = _divexact(num, g), _divexact(den, g)
    return _coprime(num, den)


class _Frac:
    """Canonical-fraction machinery, the base of LocScalar."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        if isinstance(num, int):
            num = QPoly(num)
        if isinstance(den, int):
            den = QPoly(den)
        if isinstance(num, _Frac):
            num, den = num.num, num.den * den
        self.num, self.den = map(QPoly._raw, _reduce_pair(num.coeffs, den.coeffs))

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def _coerce(self, other):
        if isinstance(other, _Frac):
            return other
        if isinstance(other, (int, QPoly)):
            return type(self)(other)
        return NotImplemented

    @classmethod
    def _from_pair(cls, num, den):
        """Trusted constructor: (num, den) is a canonical pair of tuples."""
        self = object.__new__(cls)
        self.num, self.den = QPoly._raw(num), QPoly._raw(den)
        return self

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        na, da, nb, db = self.num.coeffs, self.den.coeffs, other.num.coeffs, other.den.coeffs
        if da == (1,) and db == (1,):
            return self._from_pair(_add(na, nb), da)
        g = _gcd(da, db)
        s, dbg = (da, db) if g == (1,) else (_divexact(da, g), _divexact(db, g))
        t = _add(_mul(na, dbg), _mul(nb, s))
        g2 = _gcd(t, g)          # gcd(t, s * db), since s and dbg are prime to t
        if g2 != (1,):
            t, db = _divexact(t, g2), _divexact(db, g2)
        return self._from_pair(*_coprime(t, _mul(s, db)))

    __radd__ = __add__

    def __neg__(self):
        return self._from_pair(_neg(self.num.coeffs), self.den.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        na, da, nb, db = self.num.coeffs, self.den.coeffs, other.num.coeffs, other.den.coeffs
        if da == (1,) and db == (1,):
            return self._from_pair(_mul(na, nb), da)
        # cross-reduce: the products of the coprime parts are coprime
        g1 = _gcd(na, db)
        if g1 != (1,):
            na, db = _divexact(na, g1), _divexact(db, g1)
        g2 = _gcd(nb, da)
        if g2 != (1,):
            nb, da = _divexact(nb, g2), _divexact(da, g2)
        return self._from_pair(*_coprime(_mul(na, nb), _mul(da, db)))

    __rmul__ = __mul__

    def _inverse(self):
        if not self.num:
            raise ZeroDivisionError("division by zero fraction")
        return self._from_pair(*_coprime(self.den.coeffs, self.num.coeffs))

    def __truediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self * other._inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other * self._inverse()

    def __pow__(self, n):
        if n < 0:
            return self._inverse() ** (-n)
        return self._from_pair(*_coprime((self.num ** n).coeffs, (self.den ** n).coeffs))

    # -- substitutions / evaluation -----------------------------------------

    def subs_qpow(self, k):
        """Substitute q -> q^k.  Canonical form is preserved."""
        return self._from_pair(self.num.stretch(k).coeffs, self.den.stretch(k).coeffs)

    def at_one(self):
        """Value at q = 1, as an exact Fraction."""
        return Fraction(self.num.at_one(), self.den.at_one())

    def is_polynomial(self):
        return self.den == ONE

    # -- presentation ----------------------------------------------------------

    def __repr__(self):
        return f"{type(self).__name__}({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data):
        return cls(QPoly.from_json(data["num"]), QPoly.from_json(data["den"]))


class LocScalar(_Frac):
    """Element of Q(q) regarded in the localization Z[q]_(p,q-1).

    The prime p is not stored; membership (denominator a unit at q = 1
    modulo p) is checked where p is known.
    """

    __slots__ = ()

    def in_localization(self, p):
        return self.den.at_one() % p != 0


ZERO_SCALAR = LocScalar(ZERO)
ONE_SCALAR = LocScalar(ONE)


def is_unit(z, p):
    """Whether z is invertible in the localization at (p, q-1).

    True iff z lies in the localization and its numerator does not vanish
    at q = 1 modulo p.
    """
    return (not z.is_zero()
            and z.den.at_one() % p != 0
            and z.num.at_one() % p != 0)


def divide_exact(z, d):
    """Divide z by d in the localization, or raise NotDivisibleError.

    d may be an integer (divisibility iff every numerator coefficient is
    a multiple of d) or a QPoly with unit content such as a cyclotomic
    q-analog (divisibility iff polynomial division of the numerator is
    exact; valid because the denominator is a unit, coprime to d).
    """
    if not isinstance(d, (int, QPoly)):
        raise TypeError(f"cannot divide by {type(d).__name__}")
    if z.is_zero():
        return z
    if isinstance(d, QPoly):          # raises NotDivisibleError with witness
        return z._from_pair(z.num.divexact(d).coeffs, z.den.coeffs)
    for c in z.num.coeffs:
        if c % d:
            raise NotDivisibleError(
                f"numerator coefficient {c} not divisible by {d}", witness=c)
    return z._from_pair(tuple(c // d for c in z.num.coeffs), z.den.coeffs)


def divide_by_cyclotomic_product(z, factors):
    """Divide the fraction z by prod cyclotomic(d)^e without a generic gcd.

    ``factors`` maps cyclotomic index d to an exponent e >= 0.  Copies of
    cyclotomic(d) that divide the numerator exactly are cancelled by trial
    division; the rest join the denominator, which stays coprime to the
    numerator (cyclotomics are irreducible over Q), so the result is
    already canonical.
    """
    if z.is_zero():
        return z
    num = z.num
    extra = ONE
    for d, e in sorted(factors.items()):
        phi = cyclotomic(d)
        for _ in range(e):
            try:
                num = num.divexact(phi)
            except NotDivisibleError:
                extra = extra * phi
    return z._from_pair(num.coeffs, (z.den * extra).coeffs)


# ---------------------------------------------------------------------------
# helpers for randomized suites
# ---------------------------------------------------------------------------

def random_qpoly(rng, degree, bound=9):
    return QPoly([rng.randint(-bound, bound) for _ in range(degree + 1)])


def random_locscalar(rng, p, degree=3, bound=9):
    """Random element of the localization: unit denominator at (p, q-1)."""
    num = random_qpoly(rng, rng.randint(0, degree), bound)
    while True:
        den = random_qpoly(rng, rng.randint(0, degree), bound)
        if not den.is_zero() and den.at_one() % p != 0:
            return LocScalar(num, den)
