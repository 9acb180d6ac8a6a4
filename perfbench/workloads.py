"""Workload inputs, the timed passes, and the output checks.

Inputs depend only on the seed.  The verify workloads run fixed
configurations (see ``VERIFY_SEED``); ``cli-mixed`` builds its request
list and JSON input documents from the seed with a private
``random.Random`` and plain integers, so no qtwist code runs while inputs
are generated.

A *pass* is one run over a workload's fixed list of operations (checks
or requests), started with every memo table empty.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time

import calib

# The 44 check ids of verify.SUITES at the commit that defined this benchmark.
VERIFY_IDS = (
    "qarith.pascal-recurrences", "qarith.factorial-frobenius-compat",
    "qarith.binomial-polynomiality", "qarith.exact-division-roundtrip",
    "qarith.fraction-field-agreement",
    "coordring.frobenius-multiplicative", "coordring.frobenius-mod-p",
    "coordring.twisted-leibniz", "coordring.relative-absolute-frobenius",
    "coordring.rank-p-freeness", "coordring.tensor-reduction",
    "divpow.mul-associative-commutative", "divpow.factorial-map-multiplicative",
    "divpow.blowup-multiplicative", "divpow.generic-specialization",
    "divpow.base-change-multiplicative",
    "frobdiv.a-lower-vanishing", "frobdiv.b-in-localization",
    "frobdiv.divided-frobenius-multiplicative", "frobdiv.divided-frobenius-example",
    "frobdiv.frobenius-lift-example", "frobdiv.phi-multiplicative",
    "frobdiv.phi-frobenius-congruence", "frobdiv.phi-level-zero-compat",
    "frobdiv.delta-xi-blowup", "frobdiv.delta-xi-rank-one", "frobdiv.envelope-basis",
    "frobdiv.v-basis-triangular", "frobdiv.u-consistency",
    "diffcalc.compose-associative", "diffcalc.action-respects-composition",
    "diffcalc.compose-generators", "diffcalc.taylor-multiplicative",
    "diffcalc.taylor-values", "diffcalc.comult-coassociative",
    "diffcalc.duality-pairing", "diffcalc.level-embedding",
    "connect.commutation-identities", "connect.level-raise-leibniz-roundtrip",
    "connect.descent-negative", "connect.raise-functoriality",
    "connect.pullback-well-defined", "connect.quasi-nilpotence",
    "connect.h0-bruteforce",
)
P2_ONLY_IDS = ("frobdiv.divided-frobenius-example", "frobdiv.frobenius-lift-example")

WORKLOADS = ("verify-p2", "frobdiv-p5", "cli-mixed")

CLI_PRIMES = (2, 3, 5)
CLI_DOCS_PER_SHAPE = 4
# Requests per pass of each kind and prime.  The composition and the
# parameter ranges are fixed, so every seed gives the same mix of request
# sizes; the seed picks the coefficients, the documents and the order.
# The ranges keep every request below about 0.1 s once the memo tables
# are warm (a p = 5 envelope-check takes over 1 s, so there is none).
CLI_COUNTS = {
    "taylor": {2: 117, 3: 117, 5: 116},
    "frobenius": {2: 100, 3: 100, 5: 100},
    "coeffs": {2: 50, 3: 50, 5: 50},
    "u-check": {2: 34, 3: 33, 5: 33},
    "envelope-check": {2: 50, 3: 50},
}
CLI_REQUESTS_PER_PASS = sum(n for by_p in CLI_COUNTS.values() for n in by_p.values())
TAYLOR_DEGREES = (1, 2, 3, 4)
FROB_MAX_INDEX = {2: 4, 3: 4, 5: 3}
COEFFS_N_MAX = {2: 8, 3: 6, 5: 5}
U_CHECK_N_MAX = {2: 3, 3: 3, 5: 2}
ENVELOPE_R_MAX = {2: 2, 3: 1}


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

# Sample counts of the verify-p2 checks that have them, lowered from the
# VerifyConfig defaults (200, 100, 500) so that one pass over all 44 checks
# takes about 10 s and a run repeats it.  The checks with fixed sample
# counts (compose-associative, frobenius-multiplicative, ...) still take
# about 9 s of it.
VERIFY_P2_SAMPLES = dict(taylor_samples=10, module_samples=8, commute_samples=25)
# The checks draw their random inputs from VerifyConfig.seed, and their
# cost depends on the draw: the slowest, compose-associative, differs by
# about 25 % between seeds.  The verify workloads therefore always use
# seed 0, the default of `qtwist verify`, so that the run-to-run spread
# measures the code and not the draw.
VERIFY_SEED = 0
# frobdiv-p5 leaves out the two frobdiv checks whose cost has no knob:
# at p = 5 envelope-basis takes about 10 s and v-basis-triangular 17 s.
FROBDIV_P5_LEFT_OUT = ("frobdiv.envelope-basis", "frobdiv.v-basis-triangular")


def verify_inputs(workload):
    """(config keyword arguments, check ids, expected status per id)."""
    if workload == "verify-p2":
        cfg = dict(p=2, m=1, seed=VERIFY_SEED, **VERIFY_P2_SAMPLES)
        return cfg, VERIFY_IDS, {cid: "pass" for cid in VERIFY_IDS}
    if workload == "frobdiv-p5":
        ids = tuple(cid for cid in VERIFY_IDS
                    if cid.startswith("frobdiv.") and cid not in FROBDIV_P5_LEFT_OUT)
        expected = {cid: "skip" if cid in P2_ONLY_IDS else "pass" for cid in ids}
        return dict(p=5, pair_cap=3, seed=VERIFY_SEED), ids, expected
    raise ValueError(f"not a verify workload: {workload!r}")


# Only integer values are random: every polynomial's degree follows from
# its position, so documents of one shape cost about the same whatever the
# seed, and the latency tail is made of the same requests for every seed.
COEFF_BOUND = 6


def _poly(rng, degree):
    """Random integer coefficients, ascending, with a nonzero leading one."""
    lead = rng.choice([c for c in range(-COEFF_BOUND, COEFF_BOUND + 1) if c])
    return [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(degree)] + [lead]


def _unit_scalar(rng, p, num_deg, den_deg):
    """{"num", "den"} document whose denominator d is a unit at (p, q-1): d(1) is prime to p."""
    num = _poly(rng, num_deg)
    while True:
        den = _poly(rng, den_deg)
        if sum(den) % p:
            return {"num": [str(c) for c in num], "den": [str(c) for c in den]}


def _coordpoly(rng, p, degree, side):
    return {"side": side, "coeffs": [_unit_scalar(rng, p, (i + 1) % 3, i % 3)
                                     for i in range(degree + 1)]}


def _level_minus_one_doc(rng, p, top):
    """A level -1 element over A' with indices 0..top; its context cap
    holds the Frobenius image, whose indices reach p * top."""
    ctx = {"p": p, "m": 1, "y_mode": "level", "side": "A'", "qexp": 1,
           "cap": max(16, p * top)}
    return {"ctx": ctx,
            "terms": {str(n): _coordpoly(rng, p, 1 + n % 2, "A'") for n in range(top + 1)}}


def _cli_shapes(kind, p):
    """The parameter combinations a request of this kind cycles through."""
    if kind == "taylor":
        return [dict(deg=d, m=m, n_max=n) for d in TAYLOR_DEGREES for m in (1, 2)
                for n in range(2, 7)]
    if kind == "frobenius":
        return [dict(top=t) for t in range(1, FROB_MAX_INDEX[p] + 1)]
    if kind == "coeffs":
        return [dict(n_max=n) for n in range(2, COEFFS_N_MAX[p] + 1)]
    if kind == "u-check":
        return [dict(n_max=n) for n in range(1, U_CHECK_N_MAX[p] + 1)]
    return [dict(r_max=r) for r in range(1, ENVELOPE_R_MAX[p] + 1)]


def cli_inputs(seed, workdir):
    """(documents {path: json}, requests [{kind, p, argv, doc, ...}])."""
    rng = random.Random(seed)
    docs = {}

    def pool(name, make):
        paths = [os.path.join(workdir, f"{name}-{k}.json") for k in range(CLI_DOCS_PER_SHAPE)]
        for path in paths:
            docs[path] = make()
        return paths

    pools = {}
    for p in CLI_PRIMES:
        for d in TAYLOR_DEGREES:
            pools["taylor", p, d] = pool(f"taylor-p{p}-d{d}",
                                         lambda: _coordpoly(rng, p, d, "A"))
        for t in range(1, FROB_MAX_INDEX[p] + 1):
            pools["frobenius", p, t] = pool(f"frobenius-p{p}-t{t}",
                                            lambda: _level_minus_one_doc(rng, p, t))
    requests = []
    for kind, by_p in CLI_COUNTS.items():
        for p, count in by_p.items():
            shapes = _cli_shapes(kind, p)
            for j in range(count):
                shape = shapes[j % len(shapes)]
                req = dict(kind=kind, p=p, **shape)
                if kind == "taylor":
                    req["doc"] = rng.choice(pools[kind, p, shape["deg"]])
                    argv = [kind, req["doc"], "--m", str(shape["m"]),
                            "--n-max", str(shape["n_max"])]
                elif kind == "frobenius":
                    req["doc"] = rng.choice(pools[kind, p, shape["top"]])
                    argv = [kind, req["doc"]]
                elif kind == "envelope-check":
                    argv = [kind, "--r-max", str(shape["r_max"])]
                else:
                    argv = [kind, "--n-max", str(shape["n_max"])]
                req["argv"] = argv + ["--p", str(p), "--format", "json"]
                requests.append(req)
    rng.shuffle(requests)
    return docs, requests


def write_documents(docs):
    for path, doc in docs.items():
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def verify_pass(verify_mod, cfg, check_ids, wrap=None, timer=None, deadline=None):
    """Run each check once; returns [(id, status, timing)].

    timing is ``timer.since()`` around the check: (start, end, seconds);
    timer defaults to an unstarted ``calib.Sampler``, a plain clock.  No
    check starts after the perf_counter() time deadline, so the list can
    stop short of check_ids.  An id missing from the registry gets the
    status "missing"; a check that raises counts as "fail", as in
    ``verify.run_suite``.  wrap, if given, wraps each check function (the
    traced run opens a root span).
    """
    timer = timer or calib.Sampler()
    registry = {cid: fn for suite in verify_mod.SUITES.values() for cid, _, fn in suite}
    out = []
    for cid in check_ids:
        if deadline is not None and time.perf_counter() > deadline:
            break
        fn = registry.get(cid)
        if fn is None:
            out.append((cid, "missing", timer.since(timer.mark())))
            continue
        if wrap is not None:
            fn = wrap(cid, fn)
        mark = timer.mark()
        try:
            ok, _detail = fn(cfg)
        except Exception:                    # a crash is a failed check
            ok = False
        timing = timer.since(mark)
        out.append((cid, "pass" if ok else ("skip" if ok is None else "fail"), timing))
    return out


def verify_failures(results, expected):
    """Ids whose status differs from the expected one, or that never ran."""
    got = {cid: status for cid, status, _ in results}
    return sorted(cid for cid in expected if got.get(cid) != expected[cid])


def cli_pass(main, requests, texts, timer=None, deadline=None):
    """Send each request through main(argv), one after another.

    Returns [(exit code, stdout text, timing)] in request order, timing
    and deadline as in ``verify_pass``.  texts is a dict shared across
    passes that keeps one copy of each distinct response, so stored
    responses do not inflate the process's memory.
    """
    timer = timer or calib.Sampler()
    out = []
    for req in requests:
        if deadline is not None and time.perf_counter() > deadline:
            break
        buf, err = io.StringIO(), io.StringIO()
        mark = timer.mark()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                rc = main(req["argv"])
            except SystemExit as e:          # argparse rejects the request
                rc = e.code if isinstance(e.code, int) else 2
            except Exception:
                rc = 3
        timing = timer.since(mark)
        text = buf.getvalue()
        out.append((rc, texts.setdefault(text, text), timing))
    return out


def expected_response(mods, req, docs):
    """Re-derive a request's JSON answer with the library functions.

    For u-check and envelope-check the answer is not re-derived; None
    means "check that the response reports ok".
    """
    kind, p = req["kind"], req["p"]
    if kind == "taylor":
        f = mods["coordring"].CoordPoly.from_json(docs[req["doc"]])
        return mods["diffcalc"].taylor(f, req["n_max"], p, req["m"]).to_json()
    if kind == "frobenius":
        e = mods["divpow"].DPElem.from_json(docs[req["doc"]])
        return mods["frobdiv"].divided_frobenius(e).to_json()
    if kind == "coeffs":
        table = mods["frobdiv"].FrobCoeffTable(p, req["n_max"])
        return [[r["n"], r["i"], r["a"].to_json(), r["b"].to_json()] for r in table.rows()]
    return None


def response_ok(req, rc, text, expected):
    """Whether one cli-mixed response is correct."""
    if rc != 0:
        return False
    try:
        got = json.loads(text)
    except json.JSONDecodeError:
        return False
    if req["kind"] in ("taylor", "frobenius"):
        return got == expected
    if req["kind"] == "coeffs":
        rows = got.get("rows", []) if isinstance(got, dict) else []
        return [[r["n"], r["i"], r["a"], r["b"]] for r in rows] == expected
    return isinstance(got, dict) and got.get("ok") is True


def cli_failures(mods, requests, docs, responses):
    """Indices of failed requests; each distinct request is re-derived once."""
    cache = {}
    failed = []
    for k, (req, (rc, text, _)) in enumerate(zip(requests, responses)):
        key = tuple(req["argv"])
        if key not in cache:
            cache[key] = expected_response(mods, req, docs)
        if not response_ok(req, rc, text, cache[key]):
            failed.append(k)
    return failed
