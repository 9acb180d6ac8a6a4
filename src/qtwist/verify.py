"""Named check suites over every module, for the CLI and the test gate.

Each identity is one check, a function registered by ``@check(id, ref)``.
It takes the ``VerifyConfig`` and ``rng``, the random stream that
``VerifyConfig.rng`` seeds from the configured seed and the check id, so
reports are bytewise reproducible.  It yields one ``(where, lhs, rhs)``
per case; the first case with ``lhs != rhs`` fails the check with detail
``where``.  When every case holds, the check's return value
``(ok, detail)`` is the verdict: ok is True, False, or None for "not
applicable at this configuration" (reported as a skip, never a failure).
A check with no cases may return its verdict directly.  The decorator
appends ``(id, ref, run)`` to ``SUITES[suite]``, the suite being the id's
prefix, and returns ``run``: ``run(cfg)`` gives ``(ok, detail)``.  So
adding an identity is one decorated function.

The default bounds are the ones the acceptance gate runs at; lowering
them via the CLI trades coverage for speed, raising them is allowed up
to the module degree caps.
"""

from __future__ import annotations

import inspect
import itertools
import random
import zlib
from dataclasses import dataclass
from math import comb

from . import connect as cn
from . import coordring as cr
from . import diffcalc as dc
from . import divpow as dp
from . import frobdiv as fd
from . import qarith as qa
from .coordring import CoordPoly, SIDE_A, SIDE_APRIME
from .divpow import DPContext, DPElem, Y_LEVEL, Y_STANDARD
from .qarith import LocScalar, QPoly, q_int


@dataclass(frozen=True)
class VerifyConfig:
    p: int = 2
    m: int = 1
    n_max: int = 8            # coefficient-table and q-analog bound
    pair_cap: int = 6         # bound on n1 + n2 in multiplicativity checks
    trunc_N: int = 2
    deg_d: int = 1
    seed: int = 0
    commute_samples: int = 500
    module_samples: int = 100
    taylor_samples: int = 200

    def rng(self, check_id):
        return random.Random(self.seed + zlib.crc32(check_id.encode()))


# suite name -> [(check id, reference, run)], in source order
SUITES = {}


def check(check_id, ref):
    """Register a check under the suite named by its id's prefix."""
    def register(cases):
        def run(cfg):
            outcome = cases(cfg, cfg.rng(check_id))
            if not inspect.isgenerator(outcome):
                return outcome
            try:
                while True:
                    where, lhs, rhs = next(outcome)
                    if lhs != rhs:
                        return False, where
                    del lhs, rhs              # free this case before the next is built
            except StopIteration as done:
                return done.value
        SUITES.setdefault(check_id.split(".")[0], []).append((check_id, ref, run))
        return run
    return register


def _not_divisible(divide, *args):
    """Whether divide(*args) raises NotDivisibleError."""
    try:
        divide(*args)
    except qa.NotDivisibleError:
        return True
    return False


def _random_coordpoly(rng, p, side=SIDE_A, deg=3, sdeg=2, bound=6):
    return CoordPoly(
        [qa.random_locscalar(rng, p, sdeg, bound) for _ in range(deg + 1)], side)


# ---------------------------------------------------------------------------
# qarith
# ---------------------------------------------------------------------------

@check("qarith.pascal-recurrences",
       "C(n,k)_q = C(n-1,k-1)_q + q^k C(n-1,k)_q and the mirrored form")
def check_pascal(cfg, rng):
    for n in range(13):
        for k in range(1, n):
            b = qa.q_binomial(n, k)
            yield (f"first recurrence fails at ({n},{k})",
                   b, qa.q_binomial(n - 1, k - 1) + qa.q_binomial(n - 1, k).shifted(k))
            yield (f"second recurrence fails at ({n},{k})",
                   b, qa.q_binomial(n - 1, k - 1).shifted(n - k) + qa.q_binomial(n - 1, k))
    return True, "both recurrences, n <= 12"


@check("qarith.factorial-frobenius-compat", "q -> q^p sends (n)_q! to (n)_{q^p}!")
def check_factorial_frobenius(cfg, rng):
    p = cfg.p
    for n in range(13):
        yield (f"q -> q^{p} fails on factorial {n}",
               qa.q_factorial(n).stretch(p), qa.q_factorial_pow(n, p))
    return True, f"factorial of q^{p} matches substituted factorial, n <= 12"


@check("qarith.binomial-polynomiality",
       "(n)_q! / ((k)_q! (n-k)_q!) is a polynomial equal to C(n,k)_q")
def check_binomial_quotient(cfg, rng):
    for n in range(13):
        for k in range(n + 1):
            quo = LocScalar(qa.q_factorial(n)) / (qa.q_factorial(k) * qa.q_factorial(n - k))
            yield (f"factorial quotient disagrees at ({n},{k})",
                   quo, LocScalar(qa.q_binomial(n, k)))
    return True, "factorial quotient is polynomial and matches, n <= 12"


@check("qarith.exact-division-roundtrip", "divide_exact(z*d, d) = z for d in {p, (p)_q}")
def check_division_roundtrip(cfg, rng):
    p = cfg.p
    divisors = [p, q_int(p)]
    for _ in range(200):
        z = qa.random_locscalar(rng, p)
        for d in divisors:
            zd = z * d if isinstance(d, QPoly) else LocScalar(z.num * d, z.den)
            yield f"round trip fails for {z} by {d}", qa.divide_exact(zd, d), z
    yield "1/p should not be divisible", _not_divisible(qa.divide_exact, LocScalar(1), p), True
    return True, "200 samples, divisors p and (p)_q; 1 not divisible by p"


EVAL_PRIME = 2 ** 61 - 1


def _value_mod(z, t):
    """z at q = t modulo EVAL_PRIME by Horner's rule; None if its denominator vanishes."""
    num = den = 0
    for c in reversed(z.num.coeffs):
        num = (num * t + c) % EVAL_PRIME
    for c in reversed(z.den.coeffs):
        den = (den * t + c) % EVAL_PRIME
    return num * pow(den, -1, EVAL_PRIME) % EVAL_PRIME if den else None


@check("qarith.fraction-field-agreement", "localized arithmetic embeds in Q(q) arithmetic")
def check_fraction_agreement(cfg, rng):
    """Fraction +, -, *, / against their values at a random point modulo a
    prime (Schwartz, JACM 1980); the evaluation shares no code with qarith."""
    points = cfg.rng("qarith.fraction-field-agreement/points")
    p = cfg.p
    for i in range(1000):
        z1 = qa.random_locscalar(rng, p, 3, 5)
        z2 = qa.random_locscalar(rng, p, 3, 5)
        results = [z1 + z2, z1 - z2, z1 * z2] + ([] if z2.is_zero() else [z1 / z2])
        while True:                   # a new point wherever a denominator vanishes
            t = points.randrange(EVAL_PRIME)
            v1, v2, *got = (_value_mod(z, t) for z in [z1, z2] + results)
            if None not in (v1, v2, *got) and (v2 or z2.is_zero()):
                break
        want = [(v1 + v2) % EVAL_PRIME, (v1 - v2) % EVAL_PRIME, v1 * v2 % EVAL_PRIME]
        if v2:
            want.append(v1 * pow(v2, -1, EVAL_PRIME) % EVAL_PRIME)
        yield f"disagreement at sample {i}", got, want
    return True, "1000 random pairs under +, -, *, /"


# ---------------------------------------------------------------------------
# coordring
# ---------------------------------------------------------------------------

@check("coordring.frobenius-multiplicative", "phi(fg) = phi(f) phi(g)")
def check_phi_multiplicative(cfg, rng):
    p = cfg.p
    for i in range(500):
        f, g = _random_coordpoly(rng, p), _random_coordpoly(rng, p)
        yield (f"phi(fg) != phi(f)phi(g) at sample {i}",
               cr.phi_abs(f * g, p), cr.phi_abs(f, p) * cr.phi_abs(g, p))
    return True, "500 random pairs"


@check("coordring.frobenius-mod-p", "phi(f) = f^p mod p")
def check_phi_congruence(cfg, rng):
    p = cfg.p
    for i in range(50):
        f = _random_coordpoly(rng, p)
        diff = cr.phi_abs(f, p) - f ** p
        yield (f"phi(f) - f^p not divisible by p at sample {i}",
               _not_divisible(diff.map_coeffs, lambda c: qa.divide_exact(c, p)), False)
    return True, "phi(f) = f^p mod p on 50 random f"


@check("coordring.twisted-leibniz", "d(fg) = d(f) g + sigma(f) d(g) at twists q^k")
def check_twisted_leibniz(cfg, rng):
    p = cfg.p
    for k in (1, p, p * p):
        for i in range(40):
            f = _random_coordpoly(rng, p)
            g = _random_coordpoly(rng, p)
            yield (f"Leibniz fails at twist q^{k}, sample {i}", cr.q_derivative(f * g, k),
                   cr.q_derivative(f, k) * g + cr.sigma_power(f, k) * cr.q_derivative(g, k))
    return True, f"twists q, q^{p}, q^{p * p}; 40 pairs each"


@check("coordring.relative-absolute-frobenius",
       "relative Frobenius after pullback is the absolute one")
def check_relative_absolute(cfg, rng):
    p = cfg.p
    for i in range(100):
        f = _random_coordpoly(rng, p)
        yield (f"F(pullback(f)) != phi(f) at sample {i}",
               cr.rel_frobenius(cr.pullback_map(f, p), p), cr.phi_abs(f, p))
    return True, "relative after pullback equals absolute, 100 samples"


@check("coordring.rank-p-freeness", "f = sum_{i<p} F(g_i) x^i uniquely")
def check_rank_p_freeness(cfg, rng):
    p = cfg.p
    for i in range(100):
        f = _random_coordpoly(rng, p, deg=7)
        parts = cr.frobenius_decompose(f, p)
        where = f"decomposition round trip fails at sample {i}"
        yield where, len(parts), p
        yield where, cr.frobenius_recompose(parts, p), f
    return True, "decompose/recompose identity, 100 samples"


@check("coordring.tensor-reduction",
       "x2^p = x1^p in the tensor square over the Frobenius pullback")
def check_tensor_reduction(cfg, rng):
    p = cfg.p
    gen = cr.tensor_diagonal_generator(p)
    summed = cr.BiCoordPoly(
        p, {(i, p - 1 - i): 1 for i in range(p)})
    yield "telescoping product does not vanish", (gen * summed).is_zero(), True
    high = cr.BiCoordPoly(p, {(0, p + 1): 1})
    yield "x2^(p+1) does not reduce to x1^p x2", high.terms, {(p, 1): qa.ONE_SCALAR}
    return True, "telescope kills x2^p - x1^p; normal form reduces exponents"


# ---------------------------------------------------------------------------
# divpow
# ---------------------------------------------------------------------------

@check("divpow.mul-associative-commutative",
       "divided-power multiplication is a commutative ring law")
def check_dp_assoc_comm(cfg, rng):
    p = cfg.p
    for m in (0, 1, 2):
        ctx = DPContext(p, m)
        for n1 in range(9):
            for n2 in range(9 - n1):
                a, b = DPElem.basis(ctx, n1), DPElem.basis(ctx, n2)
                yield f"commutativity fails at m={m}, ({n1},{n2})", a * b, b * a
                for n3 in range(9 - n1 - n2):
                    c = DPElem.basis(ctx, n3)
                    yield (f"associativity fails at m={m}, ({n1},{n2},{n3})",
                           (a * b) * c, a * (b * c))
    return True, "basis triples with n1+n2+n3 <= 8, m in {0,1,2}"


@check("divpow.factorial-map-multiplicative", "xi^(n) -> (n)_Q! xi^[n] is a ring map")
def check_factorial_map(cfg, rng):
    p = cfg.p
    for m in (0, 1, 2):
        ctx = DPContext(p, m)
        k = ctx.twist
        for n1 in range(9):
            for n2 in range(9 - n1):
                lhs = sum((DPElem.basis(ctx, idx, CoordPoly(qa.q_factorial_pow(idx, k))) * c
                           for idx, c in dp.twisted_power_mul(n1, n2, ctx).items()),
                          DPElem(ctx, {}))
                yield (f"factorial map not multiplicative at m={m}, ({n1},{n2})", lhs,
                       DPElem.basis(ctx, n1, CoordPoly(qa.q_factorial_pow(n1, k)))
                       * DPElem.basis(ctx, n2, CoordPoly(qa.q_factorial_pow(n2, k))))
    return True, "twisted-power products match divided products, n1+n2 <= 8"


@check("divpow.blowup-multiplicative",
       "xi -> (p^m)_q w extends to a ring map on divided powers")
def check_blowup_multiplicative(cfg, rng):
    p = cfg.p
    for m in (1, 2):
        src = DPContext(p, m, Y_STANDARD)
        tgt = DPContext(p, m, Y_LEVEL)
        z = q_int(p ** m)
        for n1 in range(7):
            for n2 in range(7 - n1):
                a, b = DPElem.basis(src, n1), DPElem.basis(src, n2)
                yield (f"blow-up not multiplicative at m={m}, ({n1},{n2})",
                       dp.blowup(a * b, z, tgt), dp.blowup(a, z, tgt) * dp.blowup(b, z, tgt))
    return True, "blow-up by (p^m)_q is a ring map on pairs n1+n2 <= 6"


@check("divpow.generic-specialization",
       "generic-parameter constants specialize to the closed form")
def check_generic_specialization(cfg, rng):
    p = cfg.p
    for m in (0, 1, 2):
        for mode in (Y_LEVEL, Y_STANDARD):
            ctx = DPContext(p, m, mode)
            k = ctx.twist
            c = ctx.y_scale()
            for n1 in range(7):
                for n2 in range(7):
                    oracle = {
                        n1 + n2 - i: CoordPoly.monomial(
                            g.stretch(k) * (-1 if i % 2 else 1) * c ** i, i)
                        for i, g in dp._struct_consts_oracle(n1, n2)}
                    closed = dict(dp.dp_structure_terms(ctx, n1, n2))
                    yield (f"constants differ at m={m}, mode={mode}, ({n1},{n2})",
                           {n: v for n, v in oracle.items() if not v.is_zero()},
                           {n: v for n, v in closed.items() if not v.is_zero()})
    return True, "field-oracle constants specialize to the closed form, n <= 6"


@check("divpow.base-change-multiplicative", "xi^[n]_{q,y} -> xi^[n]_{q^p,y'} is a ring map")
def check_base_change_multiplicative(cfg, rng):
    ctx = DPContext(cfg.p, 1)
    for n1 in range(7):
        for n2 in range(7 - n1):
            a, b = DPElem.basis(ctx, n1), DPElem.basis(ctx, n2)
            yield (f"base change not multiplicative at ({n1},{n2})",
                   dp.frobenius_base_change(a * b),
                   dp.frobenius_base_change(a) * dp.frobenius_base_change(b))
    return True, "semilinear base change is a ring map on pairs n1+n2 <= 6"


# ---------------------------------------------------------------------------
# frobdiv
# ---------------------------------------------------------------------------

@check("frobdiv.a-lower-vanishing", "a(n,i) = 0 for i < n")
def check_a_lower_vanishing(cfg, rng):
    for n in range(min(cfg.n_max, 6) + 1):
        for i in range(n):
            yield f"a({n},{i}) != 0", fd.coeff_a(n, i, cfg.p).is_zero(), True
    return True, "a(n, i) vanishes for i < n"


@check("frobdiv.b-in-localization",
       "b(n,i) in the localization; b(n,pn) = prod (kp-j)_q, a unit")
def check_b_integrality(cfg, rng):
    try:
        fd.FrobCoeffTable(cfg.p, cfg.n_max).validate()
    except fd.MembershipError as e:
        return False, str(e)
    return True, (f"all b(n,i) in the localization, top coefficients match the "
                  f"double product and are units, n <= {cfg.n_max}")


@check("frobdiv.divided-frobenius-multiplicative", "[F](uv) = [F](u) [F](v)")
def check_divf_multiplicative(cfg, rng):
    cap = cfg.pair_cap
    ctx = fd.level_minus_one_ctx(cfg.p, SIDE_APRIME, cap=max(cfg.p * cap, 16))
    for n1 in range(cap + 1):
        for n2 in range(cap + 1 - n1):
            a, b = DPElem.basis(ctx, n1), DPElem.basis(ctx, n2)
            yield (f"divided Frobenius not multiplicative at ({n1},{n2})",
                   fd.divided_frobenius(a * b),
                   fd.divided_frobenius(a) * fd.divided_frobenius(b))
    return True, f"basis pairs with n1+n2 <= {cap}"


@check("frobdiv.divided-frobenius-example", "[F](w) = x xi[1] + xi[2] at p = 2")
def check_divf_example(cfg, rng):
    if cfg.p != 2:
        return None, "example is specific to p = 2"
    img = fd.divided_frobenius(DPElem.basis(fd.level_minus_one_ctx(2, SIDE_APRIME), 1))
    yield (f"image of w is {img}",
           img, DPElem(fd.level_zero_ctx(2), {1: CoordPoly.x(), 2: CoordPoly(1)}))
    return True, "image of w is x*xi[1] + xi[2]"


@check("frobdiv.frobenius-lift-example",
       "phi(xi) = (1+q) xi[2] + (1+q) x xi and phi(w) = (1+q)^2 w[2] + (1+q) x w")
def check_frobenius_lift_example(cfg, rng):
    if cfg.p != 2:
        return None, "example is specific to p = 2"
    two = q_int(2)
    ctx0 = fd.level_zero_ctx(2)
    phi_xi = fd.phi_level_zero(DPElem.basis(ctx0, 1))
    yield (f"phi(xi) = {phi_xi}",
           phi_xi, DPElem(ctx0, {1: two * CoordPoly.x(), 2: CoordPoly(two)}))
    ctx1 = fd.level_minus_one_ctx(2)
    phi_w = fd.phi_dp(DPElem.basis(ctx1, 1))
    yield (f"phi(w) = {phi_w}",
           phi_w, DPElem(ctx1, {1: two * CoordPoly.x(), 2: CoordPoly(two * two)}))
    return True, "phi(xi) = (1+q)xi[2] + (1+q)x xi; phi(w) = (1+q)^2 w[2] + (1+q)x w"


@check("frobdiv.phi-multiplicative", "the level -1 Frobenius lift is a ring map")
def check_phi_dp_multiplicative(cfg, rng):
    cap = cfg.pair_cap
    ctx = fd.level_minus_one_ctx(cfg.p, cap=max(cfg.p * cap, 16))
    for n1 in range(cap + 1):
        for n2 in range(cap + 1 - n1):
            a, b = DPElem.basis(ctx, n1), DPElem.basis(ctx, n2)
            yield (f"lift not multiplicative at ({n1},{n2})",
                   fd.phi_dp(a * b), fd.phi_dp(a) * fd.phi_dp(b))
    return True, f"basis pairs with n1+n2 <= {cap}"


@check("frobdiv.phi-frobenius-congruence", "phi(e) - e^p is exactly divisible by p")
def check_phi_dp_congruence(cfg, rng):
    ctx = fd.level_minus_one_ctx(cfg.p, cap=max(4 * cfg.p, 16))
    for n in range(1, 5):
        yield (f"phi(e) - e^p not divisible by p at n={n}",
               _not_divisible(fd.delta_dp, DPElem.basis(ctx, n)), False)
    return True, "phi(e) = e^p mod p on basis elements n <= 4"


@check("frobdiv.phi-level-zero-compat",
       "phi on level 0 factors through base change, blow-up and [F]")
def check_phi_level_zero_formula(cfg, rng):
    p = cfg.p
    ctx0 = fd.level_zero_ctx(p, cap=max(6 * p, 16))
    pq = q_int(p)
    for n in range(7):
        yield (f"composite lift disagrees with (p)_q^n b-row at n={n}",
               fd.phi_level_zero(DPElem.basis(ctx0, n)),
               DPElem(ctx0, {i: CoordPoly.monomial(fd.coeff_b(n, i, p) * pq ** n, p * n - i)
                             for i in range(n, p * n + 1)}))
    for n1 in range(5):
        for n2 in range(5 - n1):
            a, b = DPElem.basis(ctx0, n1), DPElem.basis(ctx0, n2)
            yield (f"composite lift not multiplicative at ({n1},{n2})",
                   fd.phi_level_zero(a * b), fd.phi_level_zero(a) * fd.phi_level_zero(b))
    return True, "base-change + blow-up + divided Frobenius matches the b-rows, n <= 6"


@check("frobdiv.delta-xi-blowup",
       "the blow-up intertwines the polynomial and divided-power lifts")
def check_delta_xi_blowup(cfg, rng):
    p = cfg.p
    cap = max(4 * p, 16)
    std = DPContext(p, 0, Y_STANDARD, SIDE_A, p, cap=cap)      # twist q^p
    lvl = fd.level_minus_one_ctx(p, cap=cap)

    def blow(f):
        out = DPElem(lvl, {})
        for n, c in dp.to_twisted_basis(f, std).items():
            scal = qa.q_factorial_pow(n, p) * q_int(p) ** n
            out = out + DPElem.basis(lvl, n, c * scal)
        return out

    xi = dp.XiPoly.gen()
    for n in range(5):
        f = xi ** n
        yield (f"square does not commute at xi^{n}",
               blow(fd.symmetric_phi_xi(f, p)), fd.phi_dp(blow(f)))
    return True, "blow-up intertwines the polynomial and divided lifts, n <= 4"


@check("frobdiv.delta-xi-rank-one",
       "delta(xi) = sum (1/p) C(p,i) x^(p-i) xi^i; x + xi has rank one")
def check_delta_xi_rank_one(cfg, rng):
    p = cfg.p
    xi = dp.XiPoly.gen()
    x = dp.XiPoly((CoordPoly.x(),))
    dxi = fd.symmetric_delta_xi(xi, p)
    yield f"delta(xi) = {dxi}", dxi, dp.XiPoly(
        [CoordPoly((), SIDE_A)]
        + [CoordPoly.monomial(comb(p, i) // p, p - i) for i in range(1, p)],
        SIDE_A)
    yield "x + xi is not of rank one", fd.symmetric_delta_xi(x + xi, p).is_zero(), True
    yield "phi(xi) != (x+xi)^p - x^p", fd.symmetric_phi_xi(xi, p), (x + xi) ** p - x ** p
    return True, "delta(xi) matches the binomial sum; x + xi has rank one"


@check("frobdiv.envelope-basis",
       "delta^r(w) = c_r w[p^r] + lower, c_r a unit; q = 1 valuations p^(r+1) and 1")
def check_envelope(cfg, rng):
    rep = fd.envelope_basis_check(fd.default_r_max(cfg.p), cfg.p)
    rows = "; ".join(
        f"r={row['r']}: c={row['c']}"
        + (f", valuations ({row['phi_valuation']},{row['power_valuation']})"
           if "phi_valuation" in row else "")
        for row in rep["rows"])
    return rep["ok"], rows


@check("frobdiv.v-basis-triangular",
       "products of delta-iterates form a triangular basis with unit diagonal")
def check_v_basis(cfg, rng):
    bound = min(cfg.p * cfg.p, 25)
    failures = fd.v_basis_triangular(bound, cfg.p)
    yield f"failures: {failures}", failures, []
    return True, f"triangular with unit diagonal up to n = {bound}"


@check("frobdiv.u-consistency",
       "(p)_q! u(xi^[p]) matches the twisted-power image; u kills [F] images")
def check_u_consistency(cfg, rng):
    rep = fd.u_consistency_check(cfg.p)
    detail = "; ".join(f"{c['id']}: {'ok' if c['ok'] else 'FAIL'}" for c in rep["checks"])
    return rep["ok"], detail


# ---------------------------------------------------------------------------
# diffcalc
# ---------------------------------------------------------------------------

def _random_op(rng, p, m, support=3, deg=2, plain=False):
    terms = {}
    for n in range(support + 1):
        if rng.random() < 0.7:
            if plain:      # integer q-polynomial scalars: cheap and exact
                terms[n] = CoordPoly(
                    [LocScalar(qa.random_qpoly(rng, rng.randint(0, 2), 4))
                     for _ in range(deg + 1)])
            else:
                terms[n] = _random_coordpoly(rng, p, deg=deg, sdeg=1, bound=4)
    return dc.TwistedDiffOp(p, m, terms)


@check("diffcalc.compose-associative", "operator composition is associative")
def check_op_assoc(cfg, rng):
    for i in range(30):
        a, b, c = (_random_op(rng, cfg.p, cfg.m, 4, 3, plain=True) for _ in range(3))
        yield (f"associativity fails at sample {i}",
               dc.op_compose(dc.op_compose(a, b), c), dc.op_compose(a, dc.op_compose(b, c)))
    return True, "30 random triples, support <= 4, coefficient degree <= 3"


@check("diffcalc.action-respects-composition", "apply(compose(a,b)) = apply(a, apply(b, .))")
def check_op_action(cfg, rng):
    for i in range(50):
        a, b = _random_op(rng, cfg.p, cfg.m), _random_op(rng, cfg.p, cfg.m)
        f = CoordPoly.monomial(1, rng.randint(0, 8))
        yield (f"action incompatible at sample {i}",
               dc.op_apply(dc.op_compose(a, b), f), dc.op_apply(a, dc.op_apply(b, f)))
    return True, "50 random pairs against monomials of degree <= 8"


@check("diffcalc.compose-generators", "D<n1> o D<n2> = D<n1+n2>; commutation rule moves x left")
def check_op_generators(cfg, rng):
    p, m = cfg.p, cfg.m
    gen = dc.TwistedDiffOp.generator
    for n1 in range(5):
        for n2 in range(5):
            yield (f"generator composition fails at ({n1},{n2})",
                   dc.op_compose(gen(p, m, n1), gen(p, m, n2)), gen(p, m, n1 + n2))
    cx = dc.op_compose(gen(p, m, 1), dc.TwistedDiffOp.scalar(p, m, CoordPoly.x()))
    k = p ** m
    yield ("commutation with x disagrees", (cx.coeff(0), cx.coeff(1)),
           (CoordPoly(q_int(k)), QPoly((0,) * k + (1,)) * CoordPoly.x()))
    return True, "D<n1> o D<n2> = D<n1+n2>; D<1> o x = (p^m)_q + q^(p^m) x D<1>"


@check("diffcalc.taylor-multiplicative", "taylor(fg) = taylor(f) taylor(g) mod support > N")
def check_taylor_multiplicative(cfg, rng):
    p, m = cfg.p, cfg.m
    N = 5                                   # expansion order
    for i in range(cfg.taylor_samples):
        f = _random_coordpoly(rng, p, deg=4, sdeg=1, bound=4)
        g = _random_coordpoly(rng, p, deg=4, sdeg=1, bound=4)
        yield (f"expansion not multiplicative at sample {i}", dc.taylor(f * g, N, p, m),
               (dc.taylor(f, N, p, m) * dc.taylor(g, N, p, m)).truncate(N))
    return True, f"{cfg.taylor_samples} random pairs, order {N}"


@check("diffcalc.taylor-values", "taylor(x) = x + (p^m)_q w; taylor(1) = 1")
def check_taylor_values(cfg, rng):
    p, m = cfg.p, cfg.m
    x = CoordPoly.x()
    t = dc.taylor(x, 3, p, m)
    yield (f"expansion of x is {t}", (t.coeff(0), t.coeff(1), t.support()),
           (x, CoordPoly(q_int(p ** m)), [0, 1]))
    yield "expansion of 1 is not 1", dc.taylor(CoordPoly(1), 3, p, m), DPElem.one(t.ctx)
    return True, "x maps to x + (p^m)_q w; constants are fixed"


@check("diffcalc.comult-coassociative", "w[i] -> sum w[i1] (x) w[i2] is coassociative")
def check_comult_coassoc(cfg, rng):
    ctx = DPContext(cfg.p, cfg.m)
    for i in range(7):
        lhs, rhs = {}, {}
        for (i1, i2), c in dc.comult(DPElem.basis(ctx, i), 6, 6).items():
            for (j1, j2), c2 in dc.comult(DPElem.basis(ctx, i1), 6, 6).items():
                cr.accumulate(lhs, (j1, j2, i2), c * c2)
            for (j1, j2), c2 in dc.comult(DPElem.basis(ctx, i2), 6, 6).items():
                cr.accumulate(rhs, (i1, j1, j2), c * c2)
        yield (f"coassociativity fails at basis index {i}",
               {k: v for k, v in lhs.items() if not v.is_zero()},
               {k: v for k, v in rhs.items() if not v.is_zero()})
    return True, "basis indices i <= 6"


@check("diffcalc.duality-pairing",
       "<D<n>, w[k]> = Kronecker delta; composition dual to comultiplication")
def check_duality(cfg, rng):
    p, m = cfg.p, cfg.m
    ctx = DPContext(p, m)
    gen = dc.TwistedDiffOp.generator
    for n in range(5):
        for k in range(7):
            val = dc.pairing(gen(p, m, n), DPElem.basis(ctx, k))
            yield f"pairing of D<{n}> with w[{k}] is {val}", val, CoordPoly(1 if n == k else 0)
    for n1 in range(4):
        for n2 in range(4):
            comp = dc.op_compose(gen(p, m, n1), gen(p, m, n2))
            for i in range(7):
                e = DPElem.basis(ctx, i)
                rhs = CoordPoly(())
                for (i1, i2), c in dc.comult(e, 6, 6).items():
                    rhs = rhs + (c * dc.pairing(gen(p, m, n1), DPElem.basis(ctx, i1))
                                 * dc.pairing(gen(p, m, n2), DPElem.basis(ctx, i2)))
                yield f"duality fails at ({n1},{n2},{i})", dc.pairing(comp, e), rhs
    return True, "basis pairing is Kronecker; composition is dual to comultiplication"


@check("diffcalc.level-embedding", "D<n> acts as (p^m)_q^n times the n-fold twisted derivative")
def check_level_embedding(cfg, rng):
    p, m = cfg.p, cfg.m
    k = p ** m
    mult = LocScalar(q_int(k))
    for n in range(4):
        op = dc.TwistedDiffOp.generator(p, m, n)
        for d in range(9):
            f = CoordPoly.monomial(1, d)
            oracle = f
            for _ in range(n):
                oracle = cr.q_derivative(oracle, k)
            yield (f"embedding disagrees at (n={n}, d={d})",
                   dc.op_apply(op, f), oracle * mult ** n)
    return True, "generator action equals (p^m)_q^n times iterated derivative"


# ---------------------------------------------------------------------------
# connect
# ---------------------------------------------------------------------------

@check("connect.commutation-identities", "F sigma = sigma F and (p)_Q x^(p-1) F d = d F")
def check_commute(cfg, rng):
    p = cfg.p
    for m in (1, 2):
        for i in range(cfg.commute_samples):
            f = _random_coordpoly(rng, p, SIDE_APRIME, deg=rng.randint(0, 8),
                                  sdeg=2, bound=6)
            rep = cn.commute_check(p, m, f)
            yield (f"identity fails at m={m}, sample {i}",
                   (rep["twist_ok"], rep["derivative_ok"]), (True, True))
    return True, f"{cfg.commute_samples} samples per level, m in {{1, 2}}"


def _random_module(rng, p, m, side=SIDE_APRIME, max_rank=3):
    r = rng.randint(1, max_rank)
    theta = [[_random_coordpoly(rng, p, side, deg=2, sdeg=1, bound=4)
              for _ in range(r)] for _ in range(r)]
    return cn.ConnModule(p, m, side, theta)


@check("connect.level-raise-leibniz-roundtrip",
       "raised modules satisfy the raised Leibniz rule; descent inverts")
def check_level_raise(cfg, rng):
    combos = [(p, m) for p in (2, 3) for m in (1, 2)]
    per = max(cfg.module_samples // len(combos), 1)
    for p, m in combos:
        k_raised = p ** (m - 1)
        mult = LocScalar(q_int(k_raised))
        for i in range(per):
            mod = _random_module(rng, p, m)
            raised = cn.level_raise(mod)
            for _ in range(3):
                f = _random_coordpoly(rng, p, SIDE_A, deg=2, sdeg=1, bound=4)
                vec = [_random_coordpoly(rng, p, SIDE_A, deg=2, sdeg=1, bound=4)
                       for _ in range(mod.rank)]
                tv = cn.theta_apply(raised, vec)
                yield (f"raised Leibniz fails at (p={p}, m={m}, sample {i})",
                       cn.theta_apply(raised, [f * v for v in vec]),
                       [cr.q_derivative(f, k_raised) * mult * v
                        + cr.sigma_power(f, k_raised) * t for v, t in zip(vec, tv)])
            yield (f"round trip fails at (p={p}, m={m}, sample {i})",
                   cn.descent_solve(raised), mod)
    return True, f"{per * len(combos)} random modules of rank <= 3, Leibniz and round trip"


@check("connect.descent-negative", "descent rejects matrices outside the Frobenius image")
def check_descent_negative(cfg, rng):
    p = cfg.p
    bad = cn.ConnModule(p, 0, SIDE_A, [[CoordPoly.monomial(1, p)]])
    yield "x^p should have no same-basis descent", cn.descent_solve(bad) is None, True
    yield ("zero matrix should descend to zero",
           cn.descent_solve(cn.ConnModule.trivial(p, 0, SIDE_A, 2)),
           cn.ConnModule.trivial(p, 1, SIDE_APRIME, 2))
    return True, "x^p rejected; zero matrix descends"


@check("connect.raise-functoriality", "intertwiners map to intertwiners under level raising")
def check_raise_functoriality(cfg, rng):
    p = cfg.p
    for m in (1, 2):
        k = p ** m
        mult = LocScalar(q_int(k))
        for i in range(20):
            m1 = _random_module(rng, p, m, max_rank=3)
            r = m1.rank
            # constant invertible intertwiner: unipotent upper triangular over R
            u = [[qa.random_locscalar(rng, p, 1, 3) if a < b
                  else (qa.ONE_SCALAR if a == b else qa.ZERO_SCALAR)
                  for b in range(r)] for a in range(r)]
            # conjugate matrix: theta2 = U theta1 U^(-1), computed by solving
            # theta2 U = U theta1 via back-substitution on the unipotent U
            uT = [[CoordPoly(u[a][b], SIDE_APRIME) for b in range(r)] for a in range(r)]
            rhs = _mat_mul(uT, m1.theta)
            theta2 = _solve_right_unipotent(rhs, u, SIDE_APRIME)
            m2 = cn.ConnModule(p, m, SIDE_APRIME, theta2)
            yield (f"construction broken at (m={m}, sample {i})",
                   _intertwines(m1, m2, uT, k, mult), True)
            r1, r2 = cn.level_raise(m1), cn.level_raise(m2)
            uA = [[CoordPoly(u[a][b], SIDE_A) for b in range(r)] for a in range(r)]
            k_lo = p ** (m - 1)
            yield (f"raised intertwiner fails at (m={m}, sample {i})",
                   _intertwines(r1, r2, uA, k_lo, LocScalar(q_int(k_lo))), True)
    return True, "constant unipotent intertwiners survive level raising, m in {1, 2}"


def _mat_mul(a, b):
    n = len(a)
    return [[sum((a[i][t] * b[t][j] for t in range(n)),
                 CoordPoly((), a[0][0].side)) for j in range(n)] for i in range(n)]


def _solve_right_unipotent(rhs, u, side):
    """Solve X * U = rhs for unipotent upper-triangular scalar U."""
    n = len(rhs)
    x = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = rhs[i][j]
            for t in range(j):
                acc = acc - x[i][t] * CoordPoly(u[t][j], side)
            x[i][j] = acc
    return x


def _intertwines(m1, m2, umat, k, mult):
    """(p^m)_q d(U) + Theta2 sigma(U) == U Theta1, entrywise."""
    n = m1.rank
    side = m1.side
    for i in range(n):
        for j in range(n):
            lhs = cr.q_derivative(umat[i][j], k) * mult
            for t in range(n):
                lhs = lhs + m2.theta[i][t] * cr.sigma_power(umat[t][j], k)
            rhs = CoordPoly((), side)
            for t in range(n):
                rhs = rhs + umat[i][t] * m1.theta[t][j]
            if lhs != rhs:
                return False
    return True


@check("connect.pullback-well-defined", "theta(F(f) (x) s) = theta(1 (x) f s)")
def check_pullback_well_defined(cfg, rng):
    p = cfg.p
    for m in (1, 2):
        k = p ** m
        for i in range(100):
            g = _random_coordpoly(rng, p, SIDE_APRIME, deg=2, sdeg=1, bound=4)
            raised = cn.level_raise(cn.ConnModule(p, m, SIDE_APRIME, [[g]]))
            f = _random_coordpoly(rng, p, SIDE_APRIME, deg=3, sdeg=1, bound=4)
            inner = (cr.q_derivative(f, k) * LocScalar(q_int(k))
                     + cr.sigma_power(f, k) * g)
            yield (f"two evaluations differ at (m={m}, sample {i})",
                   cn.theta_apply(raised, [cr.rel_frobenius(f, p)])[0],
                   CoordPoly.monomial(1, p - 1) * cr.rel_frobenius(inner, p))
    return True, "theta(F(f) e) agrees with theta(1 (x) f e), 100 samples per level"


@check("connect.quasi-nilpotence",
       "iterated derivation dies modulo (p, q-1)^N on trivial modules")
def check_quasi_nilpotence(cfg, rng):
    p, N = cfg.p, cfg.trunc_N
    trunc = cn.TruncationSpec(N, cfg.deg_d)
    for rank in (1, 2):
        triv = cn.ConnModule.trivial(p, cfg.m, SIDE_A, rank)
        yield (f"trivial rank-{rank} module is not quasi-nilpotent",
               cn.quasi_nilpotence_check(triv, trunc, N), True)
    ident = cn.ConnModule(p, 0, SIDE_A, [[CoordPoly(1)]])
    yield ("level-0 identity derivation should not be quasi-nilpotent",
           cn.quasi_nilpotence_check(ident, trunc, 2 * N + 4), False)
    return True, "trivial modules vanish within N steps; identity never does"


@check("connect.h0-bruteforce", "truncated kernel generators span the enumerated kernel")
def check_h0_bruteforce(cfg, rng):
    p = cfg.p
    trunc = cn.TruncationSpec(cfg.trunc_N, cfg.deg_d)
    mod = cn.ConnModule.trivial(p, cfg.m, SIDE_A, 1)
    try:
        gens = cn.h0_truncated(mod, trunc)
    except cn.ResourceCapError as e:
        return None, str(e)
    elements = list(cn.RBar.all_elements(p, trunc.N))
    count = 0
    for combo in itertools.product(elements, repeat=trunc.d + 1):
        vec = [CoordPoly([LocScalar(c.lift()) for c in combo], SIDE_A)]
        img = cn.theta_apply(mod, vec)
        if all(cn.coordpoly_vanishes(v, p, trunc.N) for v in img):
            count += 1
    span = _span_size(gens, elements, p, trunc.N)
    yield f"generators span {span} of {count} kernel elements", span, count
    yield ("zero module has nonempty kernel basis",
           cn.h0_truncated(cn.ConnModule.trivial(p, cfg.m, SIDE_A, 0), trunc), [])
    return True, f"generators span the brute-force kernel ({count} elements)"


def _span_size(gens, ring, p, N):
    if not gens:
        return 1
    slots = len(gens[0])
    zero = tuple(cn.RBar(p, N) for _ in range(slots))
    span = {zero}
    for g in gens:
        span = {tuple(b + s * c for b, c in zip(base, g))
                for base in span for s in ring}
    return len(span)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name, cfg):
    """Run one suite (or all); returns a list of check dicts sorted by id."""
    if name == "all":
        suites = list(SUITES)
    elif name in SUITES:
        suites = [name]
    else:
        raise ValueError(f"unknown suite {name!r}")
    results = []
    for s in suites:
        for check_id, ref, fn in SUITES[s]:
            try:
                ok, detail = fn(cfg)
            except Exception as e:           # a crash is a failure, not an abort
                ok, detail = False, f"exception: {type(e).__name__}: {e}"
            status = "pass" if ok else ("skip" if ok is None else "fail")
            results.append({"id": check_id, "ref": ref,
                            "status": status, "detail": detail})
    results.sort(key=lambda r: r["id"])
    return results
