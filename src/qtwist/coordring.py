"""The coordinate rings A = R[x] and A' = R[x'] and their twisted structure.

A ``CoordPoly`` is a polynomial in the coordinate with coefficients in R,
tagged with the side it lives on (``"A"`` or ``"A'"``).  The two sides
never mix in arithmetic: the structure maps between them are semilinear
and easy to misapply, so crossing sides silently is a bug we refuse to allow.

It is stored as integer rows over one denominator: row d holds the q-coefficients
of x^d and the polynomial is rows / den, in the canonical form (gcd 1 over Q[q] of
den and the rows, coprime integer contents, lc(den) > 0) that ``hash`` and ``==``
compare (``==`` compares views if both hold one).  Products and sums use
Henrici's method (JACM 1956; Knuth, TAOCP 2, 4.5.1) on the x-content: a
product divides each operand's rows and the other's den by their gcd, then
forms one packed product of the rows (``qarith.mul_rows``), which needs no
gcd since the x-content is multiplicative (Gauss's lemma over Q[q]); a sum
takes g = gcd(da, db), then the gcd of g with the new rows, stopping at 1.
``coeffs``, the ``LocScalar`` coefficients, is a view derived at most once
(one gcd per row); an element built from ``LocScalar``s keeps them as its
view and derives its rows on first use, multiplying each by the common
denominator.  JSON, ``str`` and ``repr`` are those of the view.  The maps
below act on each form an element holds, except that the derivatives of an
element with rows act on its rows; q -> q^k maps gcds to gcds, so only
sigma_power and the derivatives take a gcd (of the new rows with den).

* ``sigma_power(f, k)``      x -> q^k x
* ``phi_abs(f, p)``          q -> q^p on coefficients and x -> x^p
* ``delta(f, p)``            (phi(f) - f^p) / p, exactly
* ``q_derivative(f, k)``     termwise x^n -> q_int(n, q^k) x^(n-1)
* ``level_derivative(f, k)`` (k)_q q_derivative(f, k), how D^<1> acts at k = p^m
* ``rel_frobenius(f, p)``    A' -> A, x' -> x^p, coefficients unchanged
* ``pullback_map(f, p)``     A -> A', q -> q^p on coefficients, x -> x'

``BiCoordPoly`` realizes A tensor_{A'} A as R[x1, x2] / (x1^p - x2^p) in the
normal form with x2-exponent < p.  ``SparseModule`` holds the module arithmetic
of ``BiCoordPoly``, ``divpow.DPElem``, ``divpow.XiPoly``, ``diffcalc.TwistedDiffOp``.
"""

from __future__ import annotations

import math
from itertools import chain, zip_longest

from .qarith import (LocScalar, ONE_SCALAR, QPoly, ZERO_SCALAR, _add, _divexact,
                     _gcd_cofactors, _mul, _neg, _reduce_pair, _stretch, _trim, divide_exact,
                     json_fields, mul_q_int, mul_rows, power, q_int)

SIDE_A = "A"
SIDE_APRIME = "A'"
_SCALARS = (int, QPoly, LocScalar)


class SideMismatchError(ValueError):
    """Arithmetic or a structure map received operands on the wrong side."""


class LocalizationError(ValueError):
    """A coefficient lies outside the localization at (p, q-1)."""


def _as_scalar(c):
    if isinstance(c, LocScalar):
        return c
    if isinstance(c, (int, QPoly)):
        return LocScalar(c)
    raise TypeError(f"cannot use {type(c).__name__} as a coefficient")


def accumulate(out, key, value):
    """out[key] += value, where a missing key counts as zero."""
    acc = out.get(key)
    out[key] = value if acc is None else acc + value


def check_localized(f, p, where=""):
    """Raise LocalizationError (message prefixed by where) if a coefficient of f is not in R."""
    for j, c in enumerate(f.coeffs):
        if not c.in_localization(p):
            raise LocalizationError(
                f"{where}coefficient {j} = {c} is not in the localization at "
                f"(p, q-1) for p = {p}: its denominator at q = 1 is divisible by p")


def _cancel(g, rows):
    """(rows / h, g / h), h the gcd over Q[q] of g and every row, taken until it is 1."""
    h = g
    for r in rows:
        if r and len(h) > 1:
            h = _gcd_cofactors(h, r)[0]
    if len(h) <= 1:
        return rows, g
    return tuple(_divexact(r, h) for r in rows), _divexact(g, h)


def _normal(rows, den):
    """rows / den with their common integer content divided out and lc(den) > 0."""
    if not rows:
        return (), (1,)
    c = math.gcd(*den)
    c = (1 if c == 1 else math.gcd(c, *chain.from_iterable(rows))) * (-1 if den[-1] < 0 else 1)
    if c == 1:
        return rows, den
    return tuple(tuple(v // c for v in r) for r in rows), tuple(v // c for v in den)


class CoordPoly:
    """Polynomial in the coordinate x (or x'): rows / den, with a LocScalar view."""

    __slots__ = ("side", "_rows", "_den", "_coeffs")

    def __init__(self, coeffs=(), side=SIDE_A):
        if side not in (SIDE_A, SIDE_APRIME):
            raise SideMismatchError(f"unknown side {side!r}")
        if isinstance(coeffs, CoordPoly):
            side, coeffs = coeffs.side, coeffs.coeffs
        cs = (coeffs,) if isinstance(coeffs, _SCALARS) else coeffs
        self.side, self._rows, self._den = side, None, None
        self._coeffs = _trim([_as_scalar(c) for c in cs])

    @classmethod
    def from_rows(cls, rows, den, side=SIDE_A):
        """rows / den, for a tuple of integer rows with a nonzero last one, made canonical."""
        return cls._make(side, *_normal(*_cancel(den, rows)))

    @classmethod
    def _make(cls, side, rows, den, coeffs=None):
        """Trusted constructor: (rows, den) canonical, or None beside a view."""
        self = object.__new__(cls)
        self.side, self._rows, self._den, self._coeffs = side, rows, den, coeffs
        return self

    def _form(self):
        """(rows, den), derived from the view on first use."""
        if self._rows is None:
            rows, den = [], (1,)
            for c in self._coeffs:
                if c and c.den.coeffs != den:     # c den = t.num / g: den grows by g to the lcm
                    t = c * LocScalar._from_pair(den, (1,))
                    g = t.den.coeffs
                    rows, den, c = [_mul(r, g) for r in rows], _mul(den, g), t
                rows.append(c.num.coeffs)
            self._rows, self._den = _normal(tuple(rows), den)
        return self._rows, self._den

    @property
    def coeffs(self):
        """The coefficients as LocScalars, trailing zeros trimmed."""
        if self._coeffs is None:
            den = self._den
            self._coeffs = tuple(ZERO_SCALAR if not r else LocScalar._from_pair(
                *((r, den) if den == (1,) else _reduce_pair(r, den))) for r in self._rows)
        return self._coeffs

    def _operand(self, other):
        """other as a CoordPoly on this side (a scalar as a constant), or None."""
        if not isinstance(other, CoordPoly):
            return CoordPoly.monomial(other, 0, self.side) if isinstance(other, _SCALARS) else None
        if other.side != self.side:
            raise SideMismatchError(f"cannot combine elements of {self.side} and {other.side}")
        return other

    @classmethod
    def x(cls, side=SIDE_A):
        return cls.monomial(ONE_SCALAR, 1, side)

    @classmethod
    def monomial(cls, c, d, side=SIDE_A):
        """c x^d, with both forms: c.num / c.den is canonical as a row over den."""
        if d < 0:
            raise ValueError(f"monomial needs degree d >= 0, got {d}")
        f, c = cls((), side), _as_scalar(c)
        if c:
            f._rows, f._den = ((),) * d + (c.num.coeffs,), c.den.coeffs
            f._coeffs = (ZERO_SCALAR,) * d + (c,)
        return f

    @classmethod
    def from_degrees(cls, row, side):
        """The element with coefficient row[d] at degree d, zero where row has no d."""
        return cls([row.get(d, ZERO_SCALAR) for d in range(max(row, default=-1) + 1)], side)

    def is_zero(self):
        return not (self._coeffs if self._rows is None else self._rows)

    def __bool__(self):
        return not self.is_zero()

    @property
    def degree(self):
        return len(self._coeffs if self._rows is None else self._rows) - 1

    def coeff(self, d):
        return self.coeffs[d] if 0 <= d <= self.degree else ZERO_SCALAR

    def __eq__(self, other):
        if isinstance(other, CoordPoly) and other.side != self.side:
            return False
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if self._coeffs is not None and other._coeffs is not None:   # both views: no rows
            return self._coeffs == other._coeffs
        return self._form() == other._form()

    def __hash__(self):
        return hash((self.side, *self._form()))

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        if not other or not self:
            return self if self else other
        (a, da), (b, db) = self._form(), other._form()
        g, sa, sb = (da, (1,), (1,)) if da == db else _gcd_cofactors(da, db)
        if da != db:                    # a db/g + b da/g over g (da/g) (db/g)
            a, b = [_mul(r, sb) for r in a], [_mul(s, sa) for s in b]
        rows, g = _cancel(g, add_rows(a, b))
        return CoordPoly._make(self.side, *_normal(rows, _mul(sa, _mul(sb, g))))

    __radd__ = __add__

    def __neg__(self):
        return _both(self, self.side, lambda rows, den: (tuple(map(_neg, rows)), den),
                     lambda cs: tuple(-c for c in cs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        (a, da), (b, db) = self._form(), other._form()
        if da == db == (1,):
            return CoordPoly._make(self.side, mul_rows(((a, b),)), da)
        (a, db), (b, da) = _cancel(db, a), _cancel(da, b)
        return CoordPoly._make(self.side, *_normal(mul_rows(((a, b),)), _mul(da, db)))

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, CoordPoly(1, self.side))

    def map_coeffs(self, fn):
        return CoordPoly(tuple(fn(c) for c in self.coeffs), self.side)

    def __repr__(self):
        return f"CoordPoly({self.side}, [{', '.join(map(str, self.coeffs))}])"

    def __str__(self):
        var, parts = "x" if self.side == SIDE_A else "x'", []
        for d, c in enumerate(self.coeffs):
            if c:
                v = "" if d == 0 else (var if d == 1 else f"{var}^{d}")
                s = str(c)
                s = f"({s})" if " " in s or "/" in s else s
                parts.append(s if not v else (v if s == "1" else f"{s}*{v}"))
        return " + ".join(parts) or "0"

    def to_json(self):
        return {"side": self.side, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data, path=""):
        coeffs, side = json_fields(data, path, "coeffs", "side")
        path = f"{path}.coeffs" if path else "coeffs"
        if not isinstance(coeffs, list):
            raise ValueError(f"{path}: expected an array, got {type(coeffs).__name__}")
        return cls([LocScalar.from_json(c, f"{path}[{i}]") for i, c in enumerate(coeffs)], side)


def add_rows(a, b):
    """The rows of a + b, for integer rows a and b, trailing empty rows trimmed."""
    return _trim([_add(r, s) if r and s else r or s for r, s in zip_longest(a, b, fillvalue=())])


def common_rows(fs):
    """({key: rows of f den / den(f)}, den), den the lcm of the dict fs's denominators
    up to an integer: one gcd per change of denominator."""
    out, den = {}, (1,)
    for key, f in fs.items():
        rows, d = f._form()
        if d != den:
            _, s_den, s_d = _gcd_cofactors(den, d)        # den s_d = d s_den
            out = {j: tuple(_mul(r, s_d) for r in rs) for j, rs in out.items()}
            den, rows = _mul(den, s_d), tuple(_mul(r, s_den) for r in rows)
        out[key] = rows
    return out, den


def on_side(c, side, message):
    """c as a CoordPoly on side, a scalar as a constant; SideMismatchError(message) if not."""
    c = c if isinstance(c, CoordPoly) else CoordPoly(c, side)
    if c.side != side:
        raise SideMismatchError(message)
    return c


def _both(f, side, on_rows, on_view):
    """f under a map keeping both forms canonical, on_rows(rows, den) and on_view(coeffs)."""
    rows, den = (None, None) if f._rows is None else on_rows(f._rows, f._den)
    return CoordPoly._make(side, rows, den, None if f._coeffs is None else on_view(f._coeffs))


def sigma_rows(rows, k):
    """x -> q^k x on integer rows."""
    return tuple((0,) * (k * d) + r if r else r for d, r in enumerate(rows))


def sigma_power(f, k):
    """Substitute x -> q^k x: the k-th power of the twist."""
    if k < 0:
        raise ValueError("sigma_power needs k >= 0")
    return _both(f, f.side, lambda rows, den: _cancel(den, sigma_rows(rows, k)),
                 lambda cs: tuple(c.shifted(k * d) for d, c in enumerate(cs)))


def phi_abs(f, p):
    """Absolute Frobenius lift: q -> q^p on coefficients, x -> x^p."""
    return _both(f, f.side, lambda rows, den: (
        _stretch([_stretch(r, p) for r in rows], p, ()), _stretch(den, p)),
        lambda cs: _stretch([c.subs_qpow(p) for c in cs], p, ZERO_SCALAR))


def delta(f, p):
    """The delta-operator (phi(f) - f^p)/p; exact by construction."""
    diff = phi_abs(f, p) - f ** p
    return diff.map_coeffs(lambda c: divide_exact(c, p))


def _derivative(f, k, j):
    """sum_d (dj)_{q^k} f_d x^(d-1), on the rows, or on the view of an element without rows."""
    if f._rows is None:
        return CoordPoly([c * q_int(d * j).stretch(k) for d, c in enumerate(f._coeffs) if d],
                         f.side)
    return CoordPoly.from_rows(derivative_rows(f._rows, k, j), f._den, f.side)


def derivative_rows(rows, k, j):
    """The same sum on integer rows; (dj)_q multiplies by window sums (``mul_q_int``)."""
    return tuple(mul_q_int(r, d * j) if k == 1 else _mul(r, q_int(d * j).stretch(k).coeffs)
                 for d, r in enumerate(rows) if d)


def q_derivative(f, k=1):
    """Twisted derivative for the twist x -> q^k x, termwise.

    x^n -> (1 + q^k + ... + q^(k(n-1))) x^(n-1); never divides by q^k - 1.
    """
    return _derivative(f, k, 1)


def level_derivative(f, k):
    """(k)_q times the q^k-derivative: the action of D^<1> at level -m, k = p^m;
    x^d -> (dk)_q x^(d-1), since (d)_{q^k} (k)_q = (dk)_q."""
    return _derivative(f, 1, k)


def rel_frobenius(f, p):
    """Relative Frobenius A' -> A: x' -> x^p, coefficients unchanged."""
    if f.side != SIDE_APRIME:
        raise SideMismatchError("rel_frobenius expects an element of A'")
    return _both(f, SIDE_A, lambda rows, den: (_stretch(rows, p, ()), den),
                 lambda cs: _stretch(cs, p, ZERO_SCALAR))


def pullback_map(f, p):
    """Semilinear pullback A -> A': q -> q^p on coefficients, x -> x'."""
    if f.side != SIDE_A:
        raise SideMismatchError("pullback_map expects an element of A")
    return _both(f, SIDE_APRIME,
                 lambda rows, den: (tuple(_stretch(r, p) for r in rows), _stretch(den, p)),
                 lambda cs: tuple(c.subs_qpow(p) for c in cs))


def frobenius_decompose(f, p):
    """Write f in A uniquely as sum over i < p of rel_frobenius(g_i) x^i.

    Returns the list [g_0, ..., g_(p-1)] of elements of A'; witnesses that
    A is free of rank p over A'.
    """
    if f.side != SIDE_A:
        raise SideMismatchError("frobenius_decompose expects an element of A")
    return [CoordPoly(f.coeffs[i::p], SIDE_APRIME) for i in range(p)]


def frobenius_recompose(parts, p):
    x = CoordPoly.x(SIDE_A)
    return sum((rel_frobenius(g, p) * x ** i for i, g in enumerate(parts)), CoordPoly((), SIDE_A))


# ---------------------------------------------------------------------------
# module arithmetic shared by the sparse coefficient containers
# ---------------------------------------------------------------------------

class SparseModule:
    """Finitely supported map basis key -> nonzero coefficient.

    Subclasses store their context, then call ``_store``; they supply
    ``_context`` (the constructor arguments before ``terms``, compared
    when combining), ``_coeff`` (normalise one coefficient), ``_symbol``
    (a key as printed) and ``_zero_repr``.  They may override
    ``_scalar_types`` (the operands read as scalars), ``_product`` (keys
    add) and ``_basis_key`` (validate or rewrite the key of a nonzero term).
    """

    __slots__ = ("terms",)

    _unit_key = 0
    _scalar_types = _SCALARS + (CoordPoly,)

    def _store(self, terms):
        out = {}
        for k, c in (terms or {}).items():
            c = self._coeff(c)
            if not c.is_zero():
                accumulate(out, self._basis_key(k), c)
        self.terms = {k: c for k, c in out.items() if not c.is_zero()}

    def _basis_key(self, k):
        return k

    def _scalar(self, other):
        return self._coeff(other) if isinstance(other, self._scalar_types) else None

    def _new(self, terms):
        return type(self)(*self._context(), terms)

    def _check(self, other):
        if self._context() != other._context():
            raise ValueError(
                f"context mismatch: {self._context()} vs {other._context()}")

    def is_zero(self):
        return not self.terms

    def support(self):
        return sorted(self.terms)

    def coeff(self, k):
        c = self.terms.get(k)
        return self._coeff(0) if c is None else c

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._context() == other._context() and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(out, k, c)
        return self._new(out)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            return self._product(other)
        c = self._scalar(other)
        if c is None:
            return NotImplemented
        return self._new({k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def _product(self, other):
        out = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                accumulate(out, i + j, a * b)
        return self._new(out)

    def __pow__(self, n):
        # repeated multiplication: squaring measured slower on DPElem powers
        if n < 0:
            raise ValueError("negative power")
        out = self._new({self._unit_key: 1})
        for _ in range(n):
            out = out * self
        return out

    def map_coeffs(self, fn):
        return self._new({k: fn(c) for k, c in self.terms.items()})

    def __repr__(self):
        return " + ".join(f"({c})*{self._symbol(k)}"
                          for k, c in sorted(self.terms.items())) or self._zero_repr


# ---------------------------------------------------------------------------
# A tensor_{A'} A
# ---------------------------------------------------------------------------

class BiCoordPoly(SparseModule):
    """Element of R[x1, x2] / (x1^p - x2^p), x2-exponent < p in normal form."""

    __slots__ = ("p",)

    _coeff = staticmethod(_as_scalar)
    _scalar_types = _SCALARS
    _unit_key = (0, 0)
    _zero_repr = "BiCoordPoly(0)"

    def __init__(self, p, terms=None):
        self.p = p
        self._store(terms)

    def _context(self):
        return (self.p,)

    def _basis_key(self, k):
        i, j = k
        p = self.p
        while j >= p:              # rewrite x2^p -> x1^p
            i, j = i + p, j - p
        return i, j

    def _product(self, other):
        out = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                accumulate(out, (i1 + i2, j1 + j2), c1 * c2)
        return BiCoordPoly(self.p, out)

    @staticmethod
    def _symbol(k):
        return "".join(f"x{v}^{e}" for v, e in zip((1, 2), k) if e) or "1"


def tensor_embed_left(f, p):
    """f(x) -> f(x1): the first inclusion A -> A tensor A."""
    if f.side != SIDE_A:
        raise SideMismatchError("tensor embeddings expect elements of A")
    return BiCoordPoly(p, {(d, 0): c for d, c in enumerate(f.coeffs)})


def tensor_diagonal_generator(p):
    """1 tensor x - x tensor 1, i.e. x2 - x1."""
    return BiCoordPoly(p, {(0, 1): ONE_SCALAR, (1, 0): -ONE_SCALAR})
