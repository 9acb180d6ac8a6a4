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
R = Z[t]/(p, t)^N with t = q - 1, a finite local ring.  An element of R
is its canonical tuple of ints (c_0, ..., c_(N-1)) with c_b in
range(p^(N-b)); ``ring_elements``, ``ring_reduce``, ``ring_mul`` and
``ring_lift`` are its whole arithmetic, and a vector over R is a tuple
of such tuples.  A coefficient num/den of the localization vanishes in
R exactly when its numerator does, because its denominator is a unit
modulo (p, t); ``coordpoly_vanishes`` reduces numerators only.
Quasi-nilpotence iterates the derivation on basis vectors until it
vanishes in the quotient; the truncated horizontal-section probe
enumerates the whole finite module once and keeps a greedy generating
set of the kernel.
"""

from __future__ import annotations

import itertools

from .qarith import LocScalar, QPoly, q_int
from .coordring import (CoordPoly, SIDE_A, SIDE_APRIME, SideMismatchError,
                        frobenius_decompose, level_derivative, on_side, q_derivative,
                        rel_frobenius, sigma_power)

H0_ENUMERATION_CAP = 10 ** 6      # most module elements h0_truncated enumerates


class ResourceCapError(RuntimeError):
    """A truncated enumeration would exceed H0_ENUMERATION_CAP."""


def ring_elements(p, N):
    """Every element of R = Z[t]/(p, t)^N, in lexicographic order."""
    return itertools.product(*(range(p ** (N - b)) for b in range(N)))


def ring_reduce(coeffs, p, N):
    """The element sum coeffs[b] t^b of R; terms past t^(N-1) are dropped."""
    coeffs = tuple(coeffs[:N]) + (0,) * (N - len(coeffs))
    return tuple(c % p ** (N - b) for b, c in enumerate(coeffs))


def ring_mul(a, b, p, N):
    """Product of two elements of R, reduced once."""
    out = [0] * N
    for i, x in enumerate(a):
        if x:
            for j in range(N - i):
                out[i + j] += x * b[j]
    return ring_reduce(out, p, N)


def ring_lift(c):
    """The element c of R as the LocScalar sum c_b (q - 1)^b."""
    out = QPoly()
    for x in reversed(c):
        out = out * QPoly([-1, 1]) + x
    return LocScalar(out)


def coordpoly_vanishes(f, p, N):
    """Whether every coefficient of f vanishes modulo (p, q-1)^N.

    Each denominator is a unit modulo (p, q-1), so a coefficient
    vanishes exactly when its numerator does.
    """
    for c in f.coeffs:
        if not c.in_localization(p):
            raise ZeroDivisionError(
                f"coefficient {c} is outside the localization at p = {p}")
    return not any(any(ring_reduce(c.num.to_q_minus_one(), p, N)) for c in f.coeffs)


# ---------------------------------------------------------------------------
# connection modules
# ---------------------------------------------------------------------------

class ConnModule:
    """Free module with a twisted derivation of level -m, given by a matrix."""

    __slots__ = ("p", "m", "side", "rank", "theta")

    def __init__(self, p, m, side, theta):
        rows = tuple(tuple(on_side(e, side, "matrix entry on the wrong side") for e in row)
                     for row in theta)
        rank = len(rows)
        if any(len(row) != rank for row in rows):
            raise ValueError("connection matrix must be square")
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
    vec = tuple(on_side(v, module.side, "vector entry on the wrong side") for v in vec)
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


def quasi_nilpotence_check(module, N, K):
    """Iterate theta on every basis vector; True if each iterate dies
    modulo (p, q-1)^N within K steps."""
    for j in range(module.rank):
        vec = [CoordPoly(1 if i == j else 0, module.side)
               for i in range(module.rank)]
        for _ in range(K):
            vec = theta_apply(module, vec)
            if all(coordpoly_vanishes(v, module.p, N) for v in vec):
                break
        else:
            return False
    return True


def h0_truncated(module, N, d):
    """Generators of the kernel of theta on the truncated module.

    The module (coefficients in Z[t]/(p,t)^N, x-degree <= d) is finite;
    it is enumerated exhaustively and a minimal generating set of the
    kernel is extracted greedily.  Raises ResourceCapError when the
    enumeration would be larger than ``H0_ENUMERATION_CAP``.
    """
    p = module.p
    if module.rank == 0:
        return []
    slots = module.rank * (d + 1)
    ring_size = p ** (N * (N + 1) // 2)
    if ring_size ** slots > H0_ENUMERATION_CAP:
        raise ResourceCapError(
            f"module size {ring_size}^{slots} exceeds cap {H0_ENUMERATION_CAP}")
    lifted = [(c, ring_lift(c)) for c in ring_elements(p, N)]
    kernel = []
    for combo in itertools.product(lifted, repeat=slots):
        vec = [CoordPoly([z for _, z in combo[j * (d + 1):(j + 1) * (d + 1)]],
                         module.side) for j in range(module.rank)]
        if all(coordpoly_vanishes(v, p, N) for v in theta_apply(module, vec)):
            kernel.append(tuple(c for c, _ in combo))
    return _generating_set(kernel, p, N, ((0,) * N,) * slots)


def span(gens, p, N, base):
    """Every b + s_1 g_1 + ... + s_k g_k with b in the set ``base`` and
    each s_i in R = Z[t]/(p, t)^N, as a set of vectors over R."""
    ring = list(ring_elements(p, N))
    for g in gens:
        multiples = {tuple(ring_mul(s, c, p, N) for c in g) for s in ring}
        base = {tuple(ring_reduce([a + b for a, b in zip(x, y)], p, N)
                      for x, y in zip(v, w)) for v in base for w in multiples}
    return base


def _generating_set(kernel, p, N, zero):
    """Greedy minimal generating set of a finite module given as a list."""
    spanned = {zero}
    gens = []
    for v in sorted(kernel, key=lambda t: sum(map(sum, t))):
        if v in spanned:
            continue
        gens.append(v)
        spanned = span([v], p, N, spanned)
        if len(spanned) == len(kernel):
            break
    return gens
