"""Twisted connections on free modules, level raising and descent probes.

A connection of level -m on a free module of rank r over A (or A') is
stored as its matrix: theta(e_j) = sum_i Theta[i][j] e_i, and acts on a
coefficient vector by

    theta(sum f_j e_j) = sum (p^m)_q partial(f_j) e_j + sum sigma(f_j) Theta e_j

with partial and sigma taken at the twist q^(p^m) of the side.

Level raising moves a connection of level -m over A' to one of level
-(m-1) over A on the same basis: the new matrix is x^(p-1) times the
entrywise relative Frobenius of the old one.  ``descent_solve`` inverts
this on the nose (same basis, no basis change is attempted): an entry
must be divisible by x^(p-1) with quotient inside the image of the
relative Frobenius, i.e. supported on x-exponents divisible by p.

Truncation works modulo (p, q-1)^N: the quotient ring is realized as
Z[t]/(p, t)^N with t = q - 1, a finite local ring whose elements are
tuples (c_0 mod p^N, ..., c_(N-1) mod p).  Quasi-nilpotence iterates the
derivation on basis vectors until it vanishes in the quotient; the
truncated horizontal-section probe enumerates the whole finite module.
"""

from __future__ import annotations

import itertools

from .qarith import LocScalar, QPoly, q_int
from .coordring import (CoordPoly, SIDE_A, SIDE_APRIME, SideMismatchError,
                        frobenius_decompose, level_derivative, q_derivative,
                        rel_frobenius, sigma_power)


class ResourceCapError(RuntimeError):
    """A truncated enumeration would exceed the configured size cap."""


class TruncationSpec:
    """Work modulo (p, q-1)^N with x-degree bounded by d."""

    __slots__ = ("N", "d")

    def __init__(self, N, d=0):
        if N < 1 or d < 0:
            raise ValueError("need N >= 1 and d >= 0")
        self.N = N
        self.d = d

    def __repr__(self):
        return f"TruncationSpec(N={self.N}, d={self.d})"


class RBar:
    """Element of Z[t]/(p, t)^N: coefficient b of t^b lives mod p^(N-b)."""

    __slots__ = ("p", "N", "value")

    def __init__(self, p, N, value=()):
        self.p = p
        self.N = N
        vals = list(value) + [0] * (N - len(value))
        self.value = tuple(vals[b] % p ** (N - b) for b in range(N))

    @classmethod
    def from_locscalar(cls, z, p, N):
        """Reduce num/den; the denominator is a unit mod (p, t)."""
        num = cls(p, N, z.num.to_q_minus_one())
        den = cls(p, N, z.den.to_q_minus_one())
        return num * den.inverse()

    def is_zero(self):
        return all(c == 0 for c in self.value)

    def __eq__(self, other):
        return (isinstance(other, RBar)
                and (self.p, self.N, self.value) == (other.p, other.N, other.value))

    def __hash__(self):
        return hash((self.p, self.N, self.value))

    def __add__(self, other):
        return RBar(self.p, self.N,
                    tuple(a + b for a, b in zip(self.value, other.value)))

    def __neg__(self):
        return RBar(self.p, self.N, tuple(-a for a in self.value))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return RBar(self.p, self.N, tuple(a * other for a in self.value))
        out = [0] * self.N
        for i, a in enumerate(self.value):
            if not a:
                continue
            for j, b in enumerate(other.value):
                if i + j < self.N:
                    out[i + j] += a * b
        return RBar(self.p, self.N, out)

    __rmul__ = __mul__

    def inverse(self):
        u = self.value
        if u[0] % self.p == 0:
            raise ZeroDivisionError("not a unit in the truncated ring")
        pN = self.p ** self.N
        w0 = pow(u[0], -1, pN)
        w = [w0]
        for b in range(1, self.N):
            acc = sum(u[j] * w[b - j] for j in range(1, b + 1))
            w.append((-w0 * acc) % self.p ** (self.N - b))
        return RBar(self.p, self.N, w)

    def lift(self):
        """A canonical integer-polynomial representative in q."""
        out = QPoly()
        t = QPoly([-1, 1])
        for b, c in enumerate(self.value):
            out = out + t ** b * c
        return out

    @classmethod
    def all_elements(cls, p, N):
        ranges = [range(p ** (N - b)) for b in range(N)]
        for tup in itertools.product(*ranges):
            yield cls(p, N, tup)

    @classmethod
    def size(cls, p, N):
        return p ** (N * (N + 1) // 2)

    def __repr__(self):
        return f"RBar(p={self.p}, N={self.N}, {list(self.value)})"


def reduce_coordpoly(f, p, N):
    """List of RBar reductions of the coefficients (index = x-degree)."""
    return [RBar.from_locscalar(c, p, N) for c in f.coeffs]


def coordpoly_vanishes(f, p, N):
    return all(c.is_zero() for c in reduce_coordpoly(f, p, N))


# ---------------------------------------------------------------------------
# connection modules
# ---------------------------------------------------------------------------

class ConnModule:
    """Free module with a twisted derivation of level -m, given by a matrix."""

    __slots__ = ("p", "m", "side", "rank", "theta")

    def __init__(self, p, m, side, theta):
        rows = tuple(tuple(e if isinstance(e, CoordPoly) else CoordPoly(e, side)
                           for e in row) for row in theta)
        rank = len(rows)
        for row in rows:
            if len(row) != rank:
                raise ValueError("connection matrix must be square")
            for e in row:
                if e.side != side:
                    raise SideMismatchError("matrix entry on the wrong side")
        self.p = p
        self.m = m
        self.side = side
        self.rank = rank
        self.theta = rows

    @classmethod
    def trivial(cls, p, m, side=SIDE_A, rank=1):
        zero = CoordPoly((), side)
        return cls(p, m, side, [[zero] * rank for _ in range(rank)])

    def __eq__(self, other):
        if not isinstance(other, ConnModule):
            return NotImplemented
        return ((self.p, self.m, self.side, self.rank) ==
                (other.p, other.m, other.side, other.rank)
                and self.theta == other.theta)

    def __repr__(self):
        return (f"ConnModule(p={self.p}, m={self.m}, side={self.side!r}, "
                f"rank={self.rank})")


def theta_apply(module, vec):
    """theta of a coefficient vector, by the level -m twisted Leibniz rule."""
    if len(vec) != module.rank:
        raise ValueError(f"vector length {len(vec)} != rank {module.rank}")
    vec = tuple(v if isinstance(v, CoordPoly) else CoordPoly(v, module.side)
                for v in vec)
    for v in vec:
        if v.side != module.side:
            raise SideMismatchError("vector entry on the wrong side")
    k = module.p ** module.m
    out = [level_derivative(v, k) for v in vec]
    for j, v in enumerate(vec):
        s = sigma_power(v, k)
        if s.is_zero():
            continue
        for i in range(module.rank):
            e = module.theta[i][j]
            if not e.is_zero():
                out[i] = out[i] + s * e
    return out


def level_raise(module):
    """Pull back along the relative Frobenius: level -m over A' becomes
    level -(m-1) over A on the same basis, matrix x^(p-1) F(Theta')."""
    if module.side != SIDE_APRIME:
        raise SideMismatchError("level_raise expects a module over A'")
    if module.m < 1:
        raise ValueError("level_raise needs level parameter m >= 1")
    p = module.p
    xfac = CoordPoly.monomial(1, p - 1, SIDE_A)
    theta = [[xfac * rel_frobenius(e, p) for e in row] for row in module.theta]
    return ConnModule(p, module.m - 1, SIDE_A, theta)


def descent_solve(module):
    """Invert level raising on the same basis, or return None.

    Each matrix entry must be x^(p-1) times an element of the image of
    the relative Frobenius (x-exponents divisible by p, coefficients
    free): in A = sum over i < p of F(A') x^i, its parts 0 .. p-2 vanish
    and part p-1 is the descended entry.  No basis change is attempted.
    """
    if module.side != SIDE_A:
        raise SideMismatchError("descent_solve expects a module over A")
    p = module.p
    theta = []
    for row in module.theta:
        parts = [frobenius_decompose(e, p) for e in row]
        if any(not g.is_zero() for part in parts for g in part[:p - 1]):
            return None
        theta.append([part[p - 1] for part in parts])
    return ConnModule(p, module.m + 1, SIDE_APRIME, theta)


def commute_check(p, m, f):
    """Both commutation identities between the relative Frobenius and the
    twisted structure, evaluated on f in A'.  Returns a report dict."""
    if m < 1:
        raise ValueError("commute_check needs m >= 1")
    if f.side != SIDE_APRIME:
        raise SideMismatchError("commute_check expects f in A'")
    k_hi = p ** m
    k_lo = p ** (m - 1)
    lhs1 = rel_frobenius(sigma_power(f, k_hi), p)
    rhs1 = sigma_power(rel_frobenius(f, p), k_lo)
    factor = CoordPoly.monomial(q_int(p).stretch(k_lo), p - 1, SIDE_A)
    lhs2 = factor * rel_frobenius(q_derivative(f, k_hi), p)
    rhs2 = q_derivative(rel_frobenius(f, p), k_lo)
    return {"twist_ok": lhs1 == rhs1, "derivative_ok": lhs2 == rhs2,
            "twist": (lhs1, rhs1), "derivative": (lhs2, rhs2)}


def quasi_nilpotence_check(module, trunc, K):
    """Iterate theta on every basis vector; True if each iterate dies
    modulo (p, q-1)^N within K steps."""
    p, N = module.p, trunc.N
    for j in range(module.rank):
        vec = [CoordPoly(1 if i == j else 0, module.side)
               for i in range(module.rank)]
        dead = False
        for _ in range(K):
            vec = theta_apply(module, vec)
            if all(coordpoly_vanishes(v, p, N) for v in vec):
                dead = True
                break
        if not dead:
            return False
    return True


def h0_truncated(module, trunc, cap=10 ** 6):
    """Generators of the kernel of theta on the truncated module.

    The module (coefficients in Z[t]/(p,t)^N, x-degree <= d) is finite;
    it is enumerated exhaustively and a minimal generating set of the
    kernel is extracted greedily.  Raises ResourceCapError when the
    enumeration would be larger than ``cap``.
    """
    p, N, d = module.p, trunc.N, trunc.d
    if module.rank == 0:
        return []
    slots = module.rank * (d + 1)
    ring_size = RBar.size(p, N)
    if ring_size ** slots > cap:
        raise ResourceCapError(
            f"module size {ring_size}^{slots} exceeds cap {cap}")
    elements = list(RBar.all_elements(p, N))
    kernel = []
    for combo in itertools.product(elements, repeat=slots):
        vec = []
        for j in range(module.rank):
            cs = combo[j * (d + 1):(j + 1) * (d + 1)]
            vec.append(CoordPoly([LocScalar(c.lift()) for c in cs], module.side))
        image = theta_apply(module, vec)
        if all(coordpoly_vanishes(v, p, N) for v in image):
            kernel.append(tuple(combo))
    return _generating_set(kernel, elements, slots, p, N)


def _generating_set(kernel, ring, slots, p, N):
    """Greedy minimal generating set of a finite module given as a set."""
    kernel_set = set(kernel)
    zero = tuple(RBar(p, N) for _ in range(slots))
    span = {zero}
    gens = []
    for v in sorted(kernel, key=lambda t: sum(sum(c.value) for c in t)):
        if v in span:
            continue
        gens.append(v)
        new_span = set()
        for base in span:
            for s in ring:
                shifted = tuple(b + s * c for b, c in zip(base, v))
                new_span.add(shifted)
        span = new_span
        if len(span) == len(kernel_set):
            break
    return gens
