"""The coordinate rings A = R[x] and A' = R[x'] and their twisted structure.

A ``CoordPoly`` is a polynomial in the coordinate with ``LocScalar``
coefficients, tagged with the side it lives on (``"A"`` or ``"A'"``).
The two sides never mix in arithmetic: the structure maps between them
are semilinear and easy to misapply, so crossing sides silently is a bug
we refuse to allow.

Structure maps (p is passed where the prime matters):

* ``sigma_power(f, k)``      x -> q^k x
* ``phi_abs(f, p)``          q -> q^p on coefficients and x -> x^p
* ``delta(f, p)``            (phi(f) - f^p) / p, exactly
* ``q_derivative(f, k)``     termwise x^n -> q_int(n, q^k) x^(n-1)
* ``level_derivative(f, k)`` (k)_q q_derivative(f, k), how D^<1> acts at k = p^m
* ``rel_frobenius(f, p)``    A' -> A, x' -> x^p, coefficients unchanged
* ``pullback_map(f, p)``     A -> A', q -> q^p on coefficients, x -> x'

``BiCoordPoly`` realizes A tensor_{A'} A as R[x1, x2] / (x1^p - x2^p)
in the normal form with x2-exponent < p.

``DenseModule`` and ``SparseModule`` hold the module arithmetic shared by
every coefficient container of the package: the dense ``CoordPoly`` and
``divpow.XiPoly``, and the sparse ``BiCoordPoly``, ``divpow.DPElem`` and
``diffcalc.TwistedDiffOp``.
"""

from __future__ import annotations

from .qarith import (LocScalar, ONE_SCALAR, QPoly, ZERO_SCALAR, divide_exact,
                     power, q_int, q_int_pow)

SIDE_A = "A"
SIDE_APRIME = "A'"


class SideMismatchError(ValueError):
    """Arithmetic or a structure map received operands on the wrong side."""


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


# ---------------------------------------------------------------------------
# module arithmetic shared by the coefficient containers
# ---------------------------------------------------------------------------

class DenseModule:
    """Coefficients on the basis 1, t, t^2, ... as a tuple, trailing zeros
    trimmed, tagged with the side it lives on.

    Subclasses normalise their constructor arguments and then call
    ``_store``; they supply ``_coeff`` (normalise one coefficient) and
    ``_scalar_types`` (the operands read as scalars).
    """

    __slots__ = ("side", "coeffs")

    def _store(self, side, coeffs):
        self.side = side
        coerce = self._coeff
        cs = [coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    def _scalar(self, other):
        return self._coeff(other) if isinstance(other, self._scalar_types) else None

    def _new(self, coeffs):
        return type(self)(coeffs, self.side)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        c = self._scalar(other)
        return NotImplemented if c is None else self._new((c,))

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, d):
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return self._coeff(0)

    def _check_side(self, other):
        if self.side != other.side:
            raise SideMismatchError(
                f"cannot combine elements of {self.side} and {other.side}")

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.side == other.side and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.side, self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_side(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return self._new(out)

    __radd__ = __add__

    def __neg__(self):
        return self._new(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            c = self._scalar(other)
            if c is None:
                return NotImplemented
            return self._new(tuple(a * c for a in self.coeffs))
        self._check_side(other)
        out = {}
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                accumulate(out, i + j, a * b)
        zero = self._coeff(0)
        return self._new([out.get(d, zero)
                          for d in range(len(self.coeffs) + len(other.coeffs) - 1)])

    __rmul__ = __mul__

    def __pow__(self, n):
        return power(self, n, self._new((1,)))

    def map_coeffs(self, fn):
        return self._new(tuple(fn(c) for c in self.coeffs))


class SparseModule:
    """Finitely supported map basis key -> nonzero coefficient.

    Subclasses store their context, then call ``_store``; they supply
    ``_context`` (the constructor arguments before ``terms``, compared
    when combining), ``_coeff`` (normalise one coefficient),
    ``_scalar_types`` (the operands read as scalars) and ``_product``.
    ``_basis_key`` may validate or rewrite the key of a nonzero term.
    """

    __slots__ = ("terms",)

    _unit_key = 0

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

    def __pow__(self, n):
        return power(self, n, self._new({self._unit_key: 1}))

    def map_coeffs(self, fn):
        return self._new({k: fn(c) for k, c in self.terms.items()})


class CoordPoly(DenseModule):
    """Polynomial in the coordinate x (or x'), LocScalar coefficients."""

    __slots__ = ()

    _coeff = staticmethod(_as_scalar)
    _scalar_types = (int, QPoly, LocScalar)

    def __init__(self, coeffs=(), side=SIDE_A):
        if side not in (SIDE_A, SIDE_APRIME):
            raise SideMismatchError(f"unknown side {side!r}")
        if isinstance(coeffs, CoordPoly):
            side, coeffs = coeffs.side, coeffs.coeffs
        elif isinstance(coeffs, (int, QPoly, LocScalar)):
            coeffs = (coeffs,)
        self._store(side, coeffs)

    @classmethod
    def x(cls, side=SIDE_A):
        return cls((ZERO_SCALAR, ONE_SCALAR), side)

    @classmethod
    def monomial(cls, c, d, side=SIDE_A):
        c = _as_scalar(c)
        return cls((ZERO_SCALAR,) * d + (c,), side)

    def __repr__(self):
        return f"CoordPoly({self.side}, [{', '.join(map(str, self.coeffs))}])"

    def __str__(self):
        if not self.coeffs:
            return "0"
        var = "x" if self.side == SIDE_A else "x'"
        parts = []
        for d, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            v = "" if d == 0 else (var if d == 1 else f"{var}^{d}")
            s = str(c)
            if " " in s or "/" in s:
                s = f"({s})"
            parts.append(s if not v else (v if s == "1" else f"{s}*{v}"))
        return " + ".join(parts)

    def to_json(self):
        return {"side": self.side, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data):
        return cls([LocScalar.from_json(c) for c in data["coeffs"]], data["side"])


def sigma_power(f, k):
    """Substitute x -> q^k x: the k-th power of the twist."""
    if k < 0:
        raise ValueError("sigma_power needs k >= 0")
    return CoordPoly(
        tuple(c * QPoly((0,) * (k * d) + (1,)) if d else c
              for d, c in enumerate(f.coeffs)),
        f.side)


def phi_abs(f, p):
    """Absolute Frobenius lift: q -> q^p on coefficients, x -> x^p."""
    out = [ZERO_SCALAR] * (p * f.degree + 1 if f else 0)
    for d, c in enumerate(f.coeffs):
        out[p * d] = c.subs_qpow(p)
    return CoordPoly(out, f.side)


def delta(f, p):
    """The delta-operator (phi(f) - f^p)/p; exact by construction."""
    diff = phi_abs(f, p) - f ** p
    return diff.map_coeffs(lambda c: divide_exact(c, p))


def q_derivative(f, k=1):
    """Twisted derivative for the twist x -> q^k x, termwise.

    x^n -> (1 + q^k + ... + q^(k(n-1))) x^(n-1); never divides by q^k - 1.
    """
    return CoordPoly(
        tuple(f.coeffs[d] * q_int_pow(d, k) for d in range(1, len(f.coeffs))),
        f.side)


def level_derivative(f, k):
    """(k)_q times the q^k-derivative: the action of D^<1> at level -m, k = p^m."""
    return q_derivative(f, k) * LocScalar(q_int(k))


def rel_frobenius(f, p):
    """Relative Frobenius A' -> A: x' -> x^p, coefficients unchanged."""
    if f.side != SIDE_APRIME:
        raise SideMismatchError("rel_frobenius expects an element of A'")
    out = [ZERO_SCALAR] * (p * f.degree + 1 if f else 0)
    for d, c in enumerate(f.coeffs):
        out[p * d] = c
    return CoordPoly(out, SIDE_A)


def pullback_map(f, p):
    """Semilinear pullback A -> A': q -> q^p on coefficients, x -> x'."""
    if f.side != SIDE_A:
        raise SideMismatchError("pullback_map expects an element of A")
    return CoordPoly(tuple(c.subs_qpow(p) for c in f.coeffs), SIDE_APRIME)


def frobenius_decompose(f, p):
    """Write f in A uniquely as sum over i < p of rel_frobenius(g_i) x^i.

    Returns the list [g_0, ..., g_(p-1)] of elements of A'; witnesses that
    A is free of rank p over A'.
    """
    if f.side != SIDE_A:
        raise SideMismatchError("frobenius_decompose expects an element of A")
    parts = [[] for _ in range(p)]
    for d, c in enumerate(f.coeffs):
        i = d % p
        k = d // p
        part = parts[i]
        while len(part) <= k:
            part.append(ZERO_SCALAR)
        part[k] = c
    return [CoordPoly(part, SIDE_APRIME) for part in parts]


def frobenius_recompose(parts, p):
    x = CoordPoly.x(SIDE_A)
    out = CoordPoly((), SIDE_A)
    for i, g in enumerate(parts):
        out = out + rel_frobenius(g, p) * x ** i
    return out


# ---------------------------------------------------------------------------
# A tensor_{A'} A
# ---------------------------------------------------------------------------

class BiCoordPoly(SparseModule):
    """Element of R[x1, x2] / (x1^p - x2^p), x2-exponent < p in normal form."""

    __slots__ = ("p",)

    _coeff = staticmethod(_as_scalar)
    _scalar_types = (int, QPoly, LocScalar)
    _unit_key = (0, 0)

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

    def __repr__(self):
        if not self.terms:
            return "BiCoordPoly(0)"
        bits = []
        for (i, j), c in sorted(self.terms.items()):
            mono = "".join(s for s, e in (("x1^%d" % i, i), ("x2^%d" % j, j)) if e)
            bits.append(f"({c})*{mono or '1'}")
        return " + ".join(bits)


def tensor_embed_left(f, p):
    """f(x) -> f(x1): the first inclusion A -> A tensor A."""
    if f.side != SIDE_A:
        raise SideMismatchError("tensor embeddings expect elements of A")
    return BiCoordPoly(p, {(d, 0): c for d, c in enumerate(f.coeffs)})


def tensor_embed_right(f, p):
    """f(x) -> f(x2): the second inclusion, reduced to normal form."""
    if f.side != SIDE_A:
        raise SideMismatchError("tensor embeddings expect elements of A")
    return BiCoordPoly(p, {(0, d): c for d, c in enumerate(f.coeffs)})


def tensor_diagonal_generator(p):
    """1 tensor x - x tensor 1, i.e. x2 - x1."""
    return BiCoordPoly(p, {(0, 1): ONE_SCALAR, (1, 0): -ONE_SCALAR})
