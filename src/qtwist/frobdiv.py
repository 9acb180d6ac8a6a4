"""The divided Frobenius on level -1 divided powers and its coefficients.

Two families of scalars drive everything here:

    a(n, i) = sum_{j=0..n} (-1)^(n-j) q^(p(n-j)(n-j-1)/2) C(n,j)_{q^p} C(pj,i)_q
    b(n, i) = (i)_q! / ((n)_{q^p}! (p)_q^n) * a(n, i)

with a(n, i) a polynomial and b(n, i) a member of the localization at
(p, q-1) for n <= i <= pn.  The divided Frobenius maps the level -1
basis element of index n over A' to

    sum_{i=n..pn} b(n, i) x^(pn-i) xi^[i]

over A, semilinearly over the relative Frobenius.  The induced lift of
Frobenius on the level -1 algebra itself sends index n to

    sum_{i=n..pn} (p)_q^i phi(b(n, i)) x^(pn-i) w[i]

and the quotient (phi(e) - e^p)/p is an exact operation.  phi_dp is
blowup o phi_std: phi_std has these rows without the (p)_q^i, in the
standard algebra at twist q^p (level 0 at qexp p), and the blow-up by
(p)_q, an injective ring map, restores them.  The top coefficient
b(n, pn) = prod (kp - j)_q over 1 <= k <= n, 1 <= j <= p-1 is a unit.

b(n, i) is computed without any generic gcd: the q-factorial quotient is
a signed Counter of cyclotomic exponents, with P and N the products of
its positive and negative parts.  a(n, i) is divided by N, at once or
else copy by copy (cyclotomics are irreducible over Q, so what fails to
divide is exactly the reduced denominator), and only then multiplied by
P, which shares no cyclotomic with it.  A row b(n, .) is filled along i
by the recurrence (i)_q! = (i-1)_q! (i)_q: each cyclotomic(e), e | i,
e > 1, raises its exponent by one, so P gains a copy of it or N loses
one by an exact division.

The diagonal map u: xi -> x2 - x1 into A tensor_{A'} A sends the level 0
twisted power prod_{i<n} (xi + (i)_q (1 - q) x) to the q-Pochhammer
product prod_{i<n} (x2 - q^i x1), since (i)_q (1 - q) = 1 - q^i; the
image at n is the one at n - 1 times x2 - q^(n-1) x1.  Twisted powers
are thus a Newton basis, so on e = sum c_n xi^[n] with top index N,
Horner's rule sums (N)_q! u(e) = sum c_n (N)_q!/(n)_q! u(xi^n) with no
division, and one division by (N)_q!, a nonzerodivisor on the free
target, gives u(e).  As cyclotomic(d) at q = 1 is l for d = l^k and 1 for
other d > 1, c/(n)_q! with c in Z[q] lies in the localization iff c is
divisible by prod_{k>=1} cyclotomic(p^k)^(n // p^k).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import prod

from .qarith import (LocScalar, NotDivisibleError, ONE, QPoly, _divisors, _kron_pack,
                     cyclotomic, divide_by_cyclotomic_product, divide_exact, is_unit,
                     q_binomial, q_factorial, q_factorial_cyclotomic_exponents, q_int)
from .coordring import (BiCoordPoly, CoordPoly, SIDE_A, SIDE_APRIME, accumulate,
                        phi_abs, rel_frobenius, tensor_embed_left)
from .divpow import (DEFAULT_DEGREE_CAP, DPContext, DPElem, XiPoly, blowup,
                     frobenius_base_change)


class MembershipError(ArithmeticError):
    """A coefficient claimed to lie in the localization failed the check."""


# ---------------------------------------------------------------------------
# coefficient families
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def coeff_a(n, i, p):
    """The polynomial a(n, i); zero for i < n (checked in tests)."""
    if n < 0 or i < 0 or i > p * n:
        raise ValueError(f"coeff_a out of range: n={n}, i={i}, p={p}")
    acc = QPoly()
    for j in range(n + 1):
        if p * j < i:
            continue
        term = (q_binomial(n, j).stretch(p) * q_binomial(p * j, i)
                ).shifted(p * (n - j) * (n - j - 1) // 2)
        acc = acc + term if (n - j) % 2 == 0 else acc - term
    return acc


@lru_cache(maxsize=None)
def _b_row(n, p):
    """(b(n, n), ..., b(n, pn)), a MembershipError in place of an entry
    outside the localization; num = P and den = N step along i (module docstring)."""
    expo = q_factorial_cyclotomic_exponents(n - 1)     # the quotient at i = n - 1
    expo.subtract(q_factorial_cyclotomic_exponents(n, p) + Counter({p: n}))
    num, den = (prod((cyclotomic(d) ** e for d, e in f.items()), start=ONE)
                for f in (+expo, -expo))
    row = []
    for i in range(n, p * n + 1):
        for e in _divisors(i)[1:]:          # times (i)_q
            expo[e] += 1
            if expo[e] > 0:
                num = num * cyclotomic(e)
            else:
                den = den.divexact(cyclotomic(e))
        try:            # num and den share no cyclotomic: den | a num iff den | a
            b = LocScalar(coeff_a(n, i, p).divexact(den))
        except NotDivisibleError:
            b = divide_by_cyclotomic_product(LocScalar(coeff_a(n, i, p)), -expo)
        b = LocScalar._from_pair((b.num * num).coeffs, b.den.coeffs)
        row.append(b if b.in_localization(p) else MembershipError(
            f"b({n},{i}) has non-unit denominator {b.den} at p={p}"))
    return tuple(row)


@lru_cache(maxsize=None)
def coeff_b(n, i, p):
    """The scalar b(n, i) as a LocScalar, read from its row; raises
    MembershipError if it fails to lie in the localization at (p, q-1)."""
    if not (n <= i <= p * n):
        raise ValueError(f"coeff_b out of range: n={n}, i={i}, p={p}")
    b = _b_row(n, p)[i - n]
    if isinstance(b, MembershipError):
        raise MembershipError(*b.args)
    return b


class FrobCoeffTable:
    """Lazily filled table of (a, b) coefficient pairs for one prime.

    Backed by the memoized module functions; fills are idempotent, so
    concurrent readers may share a table.
    """

    def __init__(self, p, n_max):
        self.p = p
        self.n_max = n_max

    def rows(self):
        for n in range(self.n_max + 1):
            for i in range(n, self.p * n + 1):
                a = coeff_a(n, i, self.p)
                b = coeff_b(n, i, self.p)
                unit = is_unit(b, self.p) if i == self.p * n else None
                yield {"n": n, "i": i, "a": a, "b": b, "unit_at_top": unit}

    def validate(self):
        """Check membership, the defining identity, and the top coefficient.

        As (k)_{q^p} (p)_q = (kp)_q and Z[q] is a domain, cancelling the (kp)_q,
        kp <= i, from (i)_q! turns b (n)_{q^p}! (p)_q^n = (i)_q! a(n, i) into
        b.num prod_{i<kp<=pn} (kp)_q = b.den a(n, i) prod_{j<=i, p!|j} (j)_q, whose
        right-hand product at i = pn is b(n, pn)'s closed form.  Both sides are
        compared at q = X = 256^w.  A q-integer product's 1-norm is its value at
        q = 1 (its coefficients are nonnegative), and X > 2B, B the bound on every
        coefficient this gives, makes that exact: the top digit of a nonzero
        difference outweighs the rest.  X comes from the operands, so no fault
        can be built to vanish there."""
        p = self.p
        for n in range(self.n_max + 1):
            span = range(n, p * n + 1)
            row = [(b, coeff_a(n, i, p).coeffs) for i, b in zip(span, _b_row(n, p))]
            bound = max((max(max(map(abs, b.num.coeffs), default=0)
                             * prod(range(p * (i // p + 1), p * n + 1, p)),
                             max(map(abs, b.den.coeffs)) * max(sum(map(abs, a)), 1)
                             * prod(j for j in range(1, i + 1) if j % p))
                         for i, (b, a) in zip(span, row) if not isinstance(b, MembershipError)),
                        default=0)
            w = 1 + bound.bit_length() // 8           # X = 256^w > 2B
            one = b"\x01" + bytes(w - 1)               # (k)_X is the integer of one * k
            ups = [1]                                  # ups[t]: the top t (kp)_X
            for k in range(n, 0, -1):
                ups.append(ups[-1] * int.from_bytes(one * (k * p), "little"))
            down = prod((int.from_bytes(one * j, "little") for j in range(1, n) if j % p), start=1)
            for i, (b, a) in zip(span, row):
                if isinstance(b, MembershipError):
                    raise MembershipError(*b.args)
                down *= int.from_bytes(one * i, "little") if i % p else 1
                num = _kron_pack(b.num.coeffs, w)
                if num * ups[n - i // p] != _kron_pack(b.den.coeffs, w) * _kron_pack(a, w) * down:
                    raise MembershipError(f"b({n},{i}) fails its defining identity")
            if b.den != ONE or num != down:
                raise MembershipError(f"b({n},{p * n}) != closed product")
            if n and not is_unit(b, p):
                raise MembershipError(f"b({n},{p * n}) is not a unit")
        return True


# ---------------------------------------------------------------------------
# the divided Frobenius and the induced structure on level -1
# ---------------------------------------------------------------------------

def level_minus_one_ctx(p, side=SIDE_A, cap=DEFAULT_DEGREE_CAP):
    return DPContext(p, 1, side, 1, cap)


def level_zero_ctx(p, side=SIDE_A, cap=DEFAULT_DEGREE_CAP):
    return DPContext(p, 0, side, 1, cap)


def _b_row_image(e, out_ctx, lift, row):
    """sum_n lift(g_n, p) sum_{i=n..pn} row(n, i, p) x^(pn-i) e[i], e = sum_n g_n w[n],
    summed per (index i, x-degree) into one CoordPoly per index."""
    p = out_ctx.p
    out = {}
    for n, g in e.terms.items():
        c = lift(g, p).coeffs
        for i in range(n, p * n + 1):
            b, acc = row(n, i, p), out.setdefault(i, {})
            for d, a in enumerate(c, p * n - i):
                if a:
                    accumulate(acc, d, a * b)
            if not any(acc.values()):   # dropped as a DPElem sum drops it: same key order
                del out[i]
    return DPElem(out_ctx, {i: CoordPoly.from_degrees(r, out_ctx.side) for i, r in out.items()})


def divided_frobenius(e):
    """Divided Frobenius: level -1 over A' to level 0 over A.

    Index n maps to sum_{i=n..pn} b(n,i) x^(pn-i) xi^[i]; coefficients go
    through the relative Frobenius.
    """
    ctx = e.ctx
    if ctx != level_minus_one_ctx(ctx.p, SIDE_APRIME, ctx.cap):
        raise ValueError("divided_frobenius expects level -1 over A'")
    return _b_row_image(e, level_zero_ctx(ctx.p, cap=ctx.cap), rel_frobenius, coeff_b)


def phi_std(e):
    """Index n to sum_{i=n..pn} phi(b(n,i)) x^(pn-i) xi^[i], standard at twist q^p."""
    ctx = e.ctx
    if ctx != level_minus_one_ctx(ctx.p, ctx.side, ctx.cap):
        raise ValueError("the Frobenius lift expects a level -1 context")
    std = DPContext(ctx.p, 0, ctx.side, ctx.p, ctx.cap)
    return _b_row_image(e, std, phi_abs, lambda n, i, p: coeff_b(n, i, p).subs_qpow(p))


def phi_dp(e):
    """Frobenius lift on the level -1 algebra (same algebra, semilinear)."""
    return blowup(phi_std(e), e.ctx)


def delta_dp(e):
    """(phi(e) - e^p)/p with exact division of every coefficient."""
    p = e.ctx.p
    diff = phi_dp(e) - e ** p
    return diff.map_coeffs(
        lambda c: c.map_coeffs(lambda s: divide_exact(s, p)))


def symmetric_phi_xi(f, p):
    """Frobenius lift on A[xi] fixing x + xi up to p-th power.

    Applies the coefficient Frobenius and substitutes
    xi -> (x + xi)^p - x^p.
    """
    side = f.side
    x = XiPoly((CoordPoly.x(side),), side)
    xi = XiPoly.gen(side)
    image = (x + xi) ** p - x ** p
    acc = XiPoly((), side)
    power = XiPoly((CoordPoly(1, side),), side)
    for c in f.coeffs:
        acc = acc + power * phi_abs(c, p)
        power = power * image
    return acc


def symmetric_delta_xi(f, p):
    """delta on A[xi] extending delta of A with x + xi of rank one."""
    diff = symmetric_phi_xi(f, p) - f ** p
    return diff.map_coeffs(lambda c: c.map_coeffs(lambda s: divide_exact(s, p)))


def phi_level_zero(e):
    """Frobenius lift on level 0 divided powers over A.

    Composite of the semilinear base change, the blow-up by (p)_q into
    level -1 over A', and the divided Frobenius; the generator maps to
    (p)_q times the level -1 generator along the way.
    """
    ctx = e.ctx
    if ctx != level_zero_ctx(ctx.p, cap=ctx.cap):
        raise ValueError("phi_level_zero expects level 0 over A")
    blown = blowup(frobenius_base_change(e), level_minus_one_ctx(ctx.p, SIDE_APRIME, ctx.cap))
    return divided_frobenius(blown)


# ---------------------------------------------------------------------------
# envelope basis congruences
# ---------------------------------------------------------------------------

def _p_valuation(fr, p):
    if fr == 0:
        return None
    v = 0
    num, den = fr.numerator, fr.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def default_r_max(p):
    """Default top r of the envelope check: the largest that stays cheap at p."""
    if p == 2:
        return 3
    return 2 if p in (3, 5) else 1


@lru_cache(maxsize=None)
def delta_iterates(p, r_max, cap=DEFAULT_DEGREE_CAP):
    """(w, delta(w), ..., delta^r_max(w)) on level -1 over A."""
    ctx = level_minus_one_ctx(p, cap=cap)
    out = [DPElem.basis(ctx, 1)]
    for _ in range(r_max):
        out.append(delta_dp(out[-1]))
    return tuple(out)


VALUATION_CAP = 32      # top index p^(r+1) of the envelope check's valuation rows


def envelope_basis_check(r_max, p):
    """Congruences delta^r(w) = c_r w[p^r] + lower terms, c_r a unit.

    Also records, at q = 1, the p-adic valuations of the top coefficients
    of phi(w[p^r]) and (w[p^r])^p (expected p^(r+1) and 1); these rows
    are only produced while p^(r+1) <= VALUATION_CAP, since they need the
    coefficient table up to index p^r.  Returns a report dict with failed
    congruences flagged in the rows; raises NotDivisibleError (from
    delta_dp) when some phi(e) - e^p is not divisible by p.
    """
    cap = max(p ** r_max, min(p ** (r_max + 1), VALUATION_CAP), DEFAULT_DEGREE_CAP)
    ctx = level_minus_one_ctx(p, cap=cap)
    iterates = delta_iterates(p, r_max, cap=cap)
    rows = []
    ok = True
    for r, elem in enumerate(iterates):
        target = p ** r
        support_ok = all(n <= target for n in elem.support())
        c = elem.coeff(target)
        constant_ok = c.degree <= 0
        c0 = c.coeff(0)
        unit_ok = is_unit(c0, p)
        row = {"r": r, "congruent": support_ok and constant_ok,
               "c": str(c0), "c_unit": unit_ok}
        if p ** (r + 1) <= VALUATION_CAP:
            basis = DPElem.basis(ctx, target)
            top_phi = phi_dp(basis).coeff(p ** (r + 1)).coeff(0)
            top_pow = (basis ** p).coeff(p ** (r + 1)).coeff(0)
            vphi = _p_valuation(top_phi.at_one(), p)
            vpow = _p_valuation(top_pow.at_one(), p)
            row["phi_valuation"] = vphi
            row["power_valuation"] = vpow
            row["valuations_ok"] = (vphi == p ** (r + 1) and vpow == 1)
            ok = ok and row["valuations_ok"]
        ok = ok and row["congruent"] and row["c_unit"]
        rows.append(row)
    return {"p": p, "r_max": r_max, "ok": ok, "rows": rows}


def v_basis(n_max, p):
    """Yield v_0, ..., v_n_max on level -1 over A.

    v_n = prod_r (delta^r(w))^(n_r) over the base-p digits n_r of n; the
    powers of the delta-iterates are shared across all n.
    """
    r_top = 0
    while p ** (r_top + 1) <= n_max:
        r_top += 1
    iterates = delta_iterates(p, r_top, max(n_max, DEFAULT_DEGREE_CAP))
    one = DPElem.one(iterates[0].ctx)
    powers = [[one, it] for it in iterates]
    for n in range(n_max + 1):
        v, t, r = None, n, 0
        while t:
            t, a = divmod(t, p)
            if a:
                row = powers[r]
                while len(row) <= a:
                    row.append(row[-1] * row[1])
                v = row[a] if v is None else v * row[a]
            r += 1
        yield one if v is None else v


def v_basis_triangular(n_max, p):
    """Check the v-basis change is triangular with unit diagonal up to n_max."""
    failures = []
    for n, v in enumerate(v_basis(n_max, p)):
        if any(k > n for k in v.support()):
            failures.append((n, "support"))
            continue
        lead = v.coeff(n)
        if lead.degree > 0 or not is_unit(lead.coeff(0), p):
            failures.append((n, "diagonal"))
    return failures


# ---------------------------------------------------------------------------
# the map into A tensor_{A'} A
# ---------------------------------------------------------------------------

def _u_factor(i, p):
    """x2 - q^i x1, the image of the level 0 factor xi + (i)_q (1 - q) x."""
    return BiCoordPoly(p, {(0, 1): 1, (1, 0): QPoly((0,) * i + (-1,))})


@lru_cache(maxsize=None)
def u_of_twisted_power(n, p):
    """Image prod_{i<n} (x2 - q^i x1) of the n-th twisted power under
    xi -> 1 tensor x - x tensor 1.  Raises MembershipError unless each
    coefficient over (n)_q! lies in the localization (module docstring)."""
    if n <= 0:
        return BiCoordPoly(p, {(0, 0): 1})
    img = u_of_twisted_power(n - 1, p) * _u_factor(n - 1, p)
    den, d = ONE, p
    while d <= n:
        den, d = den * cyclotomic(d) ** (n // d), d * p
    for c in img.terms.values():
        try:
            c.num.divexact(den)
        except NotDivisibleError:     # divided in full only to name the denominator
            c = divide_by_cyclotomic_product(c, q_factorial_cyclotomic_exponents(n))
            raise MembershipError(
                f"u on divided power {n} leaves the localization: {c.den}") from None
    return img


@lru_cache(maxsize=None)
def u_of_divided_power(n, p):
    """Image of the n-th divided power: u_apply on that basis element."""
    return u_apply(DPElem.basis(level_zero_ctx(p, cap=max(n, DEFAULT_DEGREE_CAP)), n))


def u_closed_formula(p):
    """Closed form of the image of the p-th divided power.

    x^p picks up (1-q) (h)_{q^p} / (p-1)_q! with h = (p-1)/2 for odd p
    (coefficient 1 at p = 2), and x1^i x2^(p-i) picks up
    (-1)^i q^(i(i-1)/2) / ((i)_q! (p-i)_q!).
    """
    terms = {}
    if p == 2:
        terms[(2, 0)] = LocScalar(ONE)
    else:
        num = QPoly([1, -1]) * q_int(p * (p - 1) // 2)   # (1-q)(p(p-1)/2)_q
        terms[(p, 0)] = divide_by_cyclotomic_product(
            LocScalar(num), q_factorial_cyclotomic_exponents(p))
    for i in range(1, p):
        sign = -1 if i % 2 else 1
        num = QPoly((0,) * (i * (i - 1) // 2) + (sign,))
        facs = q_factorial_cyclotomic_exponents(i) + q_factorial_cyclotomic_exponents(p - i)
        terms[(i, p - i)] = divide_by_cyclotomic_product(LocScalar(num), facs)
    return BiCoordPoly(p, terms)


def u_apply(e):
    """Extend the diagonal map to a level 0 divided-power element over A:
    acc = acc (x2 - q^n x1) + c_n (N)_q!/(n)_q! from n = N down to 0 is
    (N)_q! u(e) (module docstring), divided by (N)_q! once."""
    ctx = e.ctx
    if ctx != level_zero_ctx(ctx.p, cap=ctx.cap):
        raise ValueError("u_apply expects level 0 over A")
    p, top = ctx.p, max(e.terms, default=0)
    for n in range(top + 1):            # membership of each divided image up to top
        u_of_twisted_power(n, p)
    acc, w = BiCoordPoly(p), ONE
    for n in range(top, -1, -1):
        acc = acc * _u_factor(n, p) + tensor_embed_left(e.coeff(n) * w, p)
        w = w * q_int(n)
    factors = q_factorial_cyclotomic_exponents(top)
    return acc.map_coeffs(lambda c: divide_by_cyclotomic_product(c, factors))


def u_consistency_check(p, n_cap=None):
    """Exercise the diagonal map against its defining identities.

    (a) the closed formula for the p-th divided image matches the
        factorial-cleared computation and has coefficients in the
        localization;
    (b) (p)_q! times the divided image equals the twisted-power image;
    (c) the composite with the divided Frobenius kills every positive
        basis element up to n_cap (default p).
    """
    if n_cap is None:
        n_cap = p
    report = {"p": p, "checks": []}
    closed = u_closed_formula(p)
    computed = u_of_divided_power(p, p)
    in_r = all(c.in_localization(p) for c in closed.terms.values())
    report["checks"].append({
        "id": "closed-formula-matches",
        "ok": closed == computed and in_r,
        "detail": f"{len(closed.terms)} coefficients, all in localization: {in_r}",
    })
    cleared = computed * q_factorial(p)
    direct = u_of_twisted_power(p, p)
    report["checks"].append({
        "id": "factorial-cleared-identity",
        "ok": cleared == direct,
        "detail": "factorial times divided image vs twisted-power image",
    })
    ctx = level_minus_one_ctx(p, SIDE_APRIME, cap=max(p * n_cap, DEFAULT_DEGREE_CAP))
    killed = []
    for n in range(1, n_cap + 1):
        img = u_apply(divided_frobenius(DPElem.basis(ctx, n)))
        killed.append(img.is_zero())
    report["checks"].append({
        "id": "kills-divided-frobenius",
        "ok": all(killed),
        "detail": f"indices 1..{n_cap}: {killed}",
    })
    report["ok"] = all(c["ok"] for c in report["checks"])
    return report
