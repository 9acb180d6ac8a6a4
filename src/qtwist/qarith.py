"""Exact arithmetic in Z[q], Q(q) and the localization Z[q]_(p,q-1).

Polynomials in q are represented as tuples of arbitrary-precision integers
in ascending degree: a_0 + a_1*q + ... + a_n*q^n corresponds to
(a_0, a_1, ..., a_n) with a_n != 0, and () for the zero polynomial.

Products use the schoolbook loop, which skips the zero coefficients of
both operands (it walks a list of b's nonzero terms), unless both have
``KRONECKER_CUTOFF`` (6) or more nonzero ones.  Every packed product is
one ``_kron_sum``: Kronecker substitution (Kronecker 1882; Harvey, J.
Symb. Comput. 2009) packs each operand into one integer at q = X = 256^w,
multiplies and adds the integers, and reads the coefficients off the
signed base-X digits, with 8w >= bits(S) + 1 for S = sum max|a| max|b|
min(nnz a, nnz b) over the pairs, a bound on every coefficient.  w is
rounded up to 1, 2, 4 or 8 bytes where that fits, so that the digits
convert through an ``array`` in C, and wider ones through 8-byte limbs;
up to 4 terms pack faster by shifts.

Exact division a / b with ``DIVISION_CUTOFF`` (32) or more terms in a is
one integer ``divmod`` at such an X, 8w >= bits(a) + bits(|b|_1) + 2
(|b|_1 = sum |b_i|).  If b | a in Z[q] then b(X) | a(X), so a nonzero
integer remainder proves b does not divide a; it is the witness of the
``NotDivisibleError``.  Otherwise the quotient's signed base-X digits c
are the answer if max|c_i| * |b|_1 < X/2: then every coefficient of c*b,
and of a, is a signed base-X digit and (c*b)(X) = a(X), so c*b = a.  If
that bound fails, and for short dividends, the loop ``_divmod_int``
divides.

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

A gcd is one integer gcd (GCDHEU: Char, Geddes and Gonnet, JSC 1989;
Geddes, Czapor and Labahn 1992, 7.7).  With M the largest |coefficient| of
a and b, X = 256^w > 2M + 2 and h = gcd(a(X), b(X)).  A common factor G of
degree >= 1 has its roots in |z| <= 1 + M < X/2, so |G(X)| > X/2, and G(X)
divides h: h < X/2 proves the gcd is 1.  Else the primitive part g of the
signed base-X digits of h is the gcd if it divides a and b: then the gcd
is g*c with c(X) dividing the digits' content, at most X/2, which a c of
degree >= 1 cannot.  a/g and b/g, the exact quotients that accepted g, are
returned with it, so the fraction operations divide no further.  If g is
no common divisor, Euclid by primitive pseudo-remainders decides.

q-analogs: ``q_int(n)`` = 1 + q + ... + q^(n-1), ``q_factorial``,
``q_binomial`` (Gaussian binomial, computed by the q-Pascal recurrence),
and cyclotomic polynomials used for exact division decisions.
"""

from __future__ import annotations

import math
import sys
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, lshift, rshift, sub


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
    while n and not coeffs[n - 1]:
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


KRONECKER_CUTOFF = 6    # nonzero terms each operand of _mul needs to be packed
DIVISION_CUTOFF = 32    # dividends of this many terms go to _divexact_packed first
HORNER_TERMS = 4        # _kron_pack packs operands this short by shifts, not as bytes


def _mul(a, b):
    if a == (1,) or b == (1,):       # a unit cofactor or denominator
        return b if a == (1,) else a
    if (len(a) - a.count(0) >= KRONECKER_CUTOFF
            and len(b) - b.count(0) >= KRONECKER_CUTOFF):
        return _trim(_kron_sum([(a, b)]))
    return _mul_schoolbook(a, b)


def _mul_schoolbook(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in terms:
                out[i + j] += ai * bj
    return _trim(out)


# the signed array type of each digit width that has one, where array
# items are little-endian like the packed integers, and the item size each
# narrower width rounds up to
_ITEM_CODES = {array(c).itemsize: c for c in "bhiq"} if sys.byteorder == "little" else {}
_ITEM_FIT = {w: min(s for s in _ITEM_CODES if s >= w) for w in range(max(_ITEM_CODES, default=0))}


def _digit_bytes(bits):
    """Bytes per digit of this many bits: an array item size if one fits."""
    w = (bits + 7) >> 3
    return _ITEM_FIT.get(w, w)


def _kron_pack(a, w):
    """The integer sum of a[i] * 256^(w*i); needs -256^w / 2 <= a[i] < 256^w / 2.

    Short operands pack by shifts; longer ones as the bytes of a[i] + 256^w / 2
    (an array item flips its top bit, a wider digit is unsigned), less that offset."""
    if len(a) <= HORNER_TERMS:
        x, s = 0, 8 * w
        for c in reversed(a):
            x = (x << s) + c
        return x
    o = int.from_bytes((bytes(w - 1) + b"\x80") * len(a), "little")
    if w in _ITEM_CODES:
        return (int.from_bytes(array(_ITEM_CODES[w], a).tobytes(), "little") ^ o) - o
    h = 1 << (8 * w - 1)
    return int.from_bytes(b"".join([(c + h).to_bytes(w, "little") for c in a]), "little") - o


def _kron_unpack(x, w, m):
    """The m signed base-256^w digits of x, each in [-256^w / 2, 256^w / 2),
    or OverflowError.  Adding 256^w / 2 to every digit makes the bytes
    carry-free, and flipping each top bit back leaves two's complements.  Wider
    digits are read by 8-byte limbs from the top (signed) down, one slice per
    byte gathering a limb of every digit, and one shift and add joining it."""
    o = int.from_bytes((bytes(w - 1) + b"\x80") * m, "little")
    s = ((x + o) ^ o).to_bytes(w * m, "little")
    if w in _ITEM_CODES:
        return array(_ITEM_CODES[w], s).tolist()
    out, e = None, w                    # bytes e - b .. e - 1 of each digit go next
    while e:
        b = min(e, 8)
        at = 8 - b if out is None else 0        # the top limb fills a signed item's top
        limb = bytearray(8 * m)
        for j in range(b):
            limb[at + j::8] = s[e - b + j::w]
        limb = array("q" if out is None else "Q", limb)
        if sys.byteorder == "big":
            limb.byteswap()
        if out is not None:
            out = list(map(add, map(lshift, out, repeat(8 * b)), limb))
        else:
            out = list(map(rshift, limb, repeat(8 * at))) if at else limb.tolist()
        e -= b
    return out


def _kron_sum(pairs):
    """sum a*b over pairs of nonzero operands, packed at the one q = 256^w that the
    bound S of the module docstring sets.  A pair with b is a packs once and squares.
    A zero operand would give its pair no share of S, so the other could overflow
    its digits; ``_mul`` and ``mul_rows`` pass none."""
    s = m = x = 0
    for a, b in pairs:
        s += (max(max(a), -min(a)) * max(max(b), -min(b))
              * min(len(a) - a.count(0), len(b) - b.count(0)))
        m = max(m, len(a) + len(b) - 1)
    w = _digit_bytes(s.bit_length() + 1)
    for a, b in pairs:
        y = _kron_pack(a, w)
        x += y * (y if b is a else _kron_pack(b, w))    # y * y takes CPython's squaring path
    return _kron_unpack(x, w, m)


def mul_q_int(a, n):
    """a (trimmed) times (n)_q: coefficient i is a[i-n+1] + ... + a[i], by prefix sums."""
    s = [0, *accumulate(a)]
    return tuple(map(sub, s[1:] + s[-1:] * (n - 1), [0] * (n - 1) + s[:-1])) if a and n else ()


def _stretch(a, k, zero=0):
    """a with q -> q^k (k >= 1), as a tuple; with another zero, any sequence."""
    if k == 1 or not a:
        return tuple(a)
    out = [zero] * ((len(a) - 1) * k + 1)
    out[::k] = a
    return tuple(out)


def _scale(a, k):
    if k == 0:
        return ()
    return tuple(c * k for c in a)


def _content(a):
    return math.gcd(*a)


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
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        if c % lb:
            raise NotDivisibleError("non-integral quotient coefficient", witness=c)
        f = c // lb
        q[i - db] = f
        for j, bj in terms:
            a[i - db + j] -= f * bj
    return _trim(q), _trim(a)


def _divexact(a, b):
    if len(a) >= DIVISION_CUTOFF:
        q = _divexact_packed(a, b)
        if q is not None:
            return q
    q, r = _divmod_int(a, b)
    if r:
        raise NotDivisibleError("nonzero remainder", witness=r)
    return q


def _divexact_packed(a, b):
    """a / b by one integer division at q = 256^w (see the module
    docstring), or None when the digit bound fails.  w leaves room for a
    quotient with coefficients up to twice as large as a's."""
    norm = sum(map(abs, b))
    w = _digit_bytes(max(max(a), -min(a)).bit_length() + norm.bit_length() + 2)
    x, r = divmod(_kron_pack(a, w), _kron_pack(b, w))
    if r:
        raise NotDivisibleError("nonzero remainder", witness=r)
    try:
        c = _kron_unpack(x, w, len(a) - len(b) + 1)
    except OverflowError:           # x has more digits than a quotient would
        return None
    return tuple(c) if max(max(c), -min(c)) * norm < 1 << (8 * w - 1) else None


def _pseudo_rem(a, b):
    """prem(a, b): remainder of lc(b)^(da-db+1) * a by b, over Z."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    terms = [(j, bj) for j, bj in enumerate(b[:-1]) if bj]
    a = list(a)
    for i in range(da, db - 1, -1):
        c = a[i]
        if lb != 1:              # a[i + 1:] is already zero, a[i] is zeroed below
            a[:i] = [x * lb for x in a[:i]]
        if c:
            for j, bj in terms:
                a[i - db + j] -= c * bj
        a[i] = 0
    return _trim(a)


def _gcd_cofactors(a, b):
    """(g, a / g, b / g), g the primitive gcd of a and b (see the module
    docstring); g = (1,) if a or b is a constant, a unit over Q, or zero."""
    if len(a) <= 1 or len(b) <= 1:
        return (1,), a, b
    w = _digit_bytes(max(max(a), -min(a), max(b), -min(b)).bit_length() + 2)
    h = math.gcd(_kron_pack(a, w), _kron_pack(b, w))
    if h < 1 << (8 * w - 1):
        return (1,), a, b
    g = _primitive(_trim(_kron_unpack(h, w, min(len(a), len(b)))))   # h <= |a(X)|, |b(X)|
    try:
        return g, _divexact(a, g), _divexact(b, g)
    except NotDivisibleError:        # g divides neither, or only one: Euclid decides
        pass
    g, r = _primitive(a), _primitive(b)
    if len(g) < len(r):
        g, r = r, g
    while r:
        if len(r) == 1:
            return (1,), a, b
        g, r = r, _primitive(_pseudo_rem(g, r))
    return g, _divexact(a, g), _divexact(b, g)


def is_decimal(s):
    """Whether s is an ASCII decimal string, optionally signed with '-'."""
    return type(s) is str and s.isascii() and s.removeprefix("-").isdigit()


def json_fields(data, path, *keys):
    """data[key] for each key, data being the JSON object at path ("" at
    the root); a ValueError naming the path if it is no object or lacks a key."""
    at = f"{path}: " if path else ""
    if not isinstance(data, dict):
        raise ValueError(f"{at}expected an object, got {type(data).__name__}")
    if missing := [key for key in keys if key not in data]:
        raise ValueError(f'{at}missing "{missing[0]}"')
    return [data[key] for key in keys]


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
        if k < 1:
            raise ValueError(f"stretch needs k >= 1, got {k}")
        return self if k == 1 else QPoly._raw(_stretch(self.coeffs, k))

    def shifted(self, k):
        """Multiply by q^k (k >= 0)."""
        if k < 0:
            raise ValueError(f"shifted needs k >= 0, got {k}")
        if not self.coeffs:
            return self
        return QPoly._raw((0,) * k + self.coeffs)

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
    def from_json(cls, data, path=""):
        if not isinstance(data, list) or not all(
                type(c) is int or is_decimal(c) for c in data):
            raise ValueError(f"{path}: " * bool(path)
                             + f"a q-polynomial is an array of decimal strings, got {data!r}")
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
    """Exponent of each cyclotomic factor of (n)_{q^j}!, as a Counter {d: e}.

    (m)_{q^j} = (q^(mj) - 1)/(q^j - 1) = prod cyclotomic(e) over the e | mj
    with e not dividing j, and (n)_{q^j}! is the product of these over
    m = 2..n, so q-factorial quotients are Counter sums and differences.
    """
    return Counter(e for m in range(2, n + 1) for e in _divisors(m * j) if j % e)


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
    _, num, den = _gcd_cofactors(num, den)
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
        g, s, dbg = _gcd_cofactors(da, db)
        t = _add(_mul(na, dbg), _mul(nb, s))
        # gcd(t, s * db) = gcd(t, g) =: g2, since s and dbg are prime to t;
        # then db / g2 = dbg * (g / g2)
        _, t, g = _gcd_cofactors(t, g)
        return self._from_pair(*_coprime(t, _mul(s, _mul(dbg, g))))

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
        _, na, db = _gcd_cofactors(na, db)
        _, nb, da = _gcd_cofactors(nb, da)
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

    def shifted(self, s):
        """Multiply by q^s (s >= 0), as ``QPoly.shifted``, with no gcd.

        t = min(s, v_q(den)) powers of q cancel from den and the numerator
        is shifted by s - t.  The result is canonical: when s - t > 0, q
        no longer divides den, and neither content nor lc(den) changes."""
        if s < 0:
            raise ValueError(f"shifted needs s >= 0, got {s}")
        num, den = self.num.coeffs, self.den.coeffs
        if not s or not num:
            return self
        t = 0
        while t < s and not den[t]:
            t += 1
        return self._from_pair((0,) * (s - t) + num, den[t:])

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
    def from_json(cls, data, path=""):
        num, den = json_fields(data, path, "num", "den")
        at = f"{path}." if path else ""
        return cls(QPoly.from_json(num, at + "num"), QPoly.from_json(den, at + "den"))


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
        for k in range(e):
            try:
                num = num.divexact(phi)
            except NotDivisibleError:        # num is unchanged: the rest fail too
                extra = extra * phi ** (e - k)
                break
    return z._from_pair(num.coeffs, (z.den * extra).coeffs)


def mul_rows(pairs):
    """The rows of sum (sum a_i x^i)(sum b_j x^j) over pairs of integer row tuples: row
    by row if one pair has a factor of one nonzero row, else all packed at x = q^L, L the
    largest max len(a_i) + max len(b_j) - 1, and summed at once (``_kron_sum``)."""
    if len(pairs) == 1:
        a, b = pairs[0]
        if not a or not b:
            return ()
        if len(b) - b.count(()) == 1:
            a, b = b, a
        if len(a) - a.count(()) == 1:
            return ((),) * (len(a) - 1) + tuple(_mul(a[-1], s) if s else () for s in b)
    elif not (pairs := [(a, b) for a, b in pairs if a and b]):
        return ()
    L = max(max(map(len, a)) + max(map(len, b)) - 1 for a, b in pairs)
    prod = _kron_sum([(_pack_rows(a, L), _pack_rows(b, L)) for a, b in pairs])
    return _trim([_trim(prod[k:k + L]) for k in range(0, len(prod), L)])


def _pack_rows(rows, stride):
    """Substitute x = q^stride into sum rows[i] x^i, rows[-1] nonzero."""
    return (*chain.from_iterable(r + (0,) * (stride - len(r)) for r in rows[:-1]), *rows[-1])


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
