"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from faylab.theta import (RiemannMatrix, theta, theta_batch, theta_gradient, theta_chars)
from faylab.curves import (HyperellipticCurve, period_matrix, abel_jacobi,
                           lattice_coords)
from faylab.kernels import (prime_form, massey_m3_prime, massey_m3_theta,
                            sample_point, random_line_bundle, NearDivisor,
                            CoincidentPoints)
from faylab.identities import run_suite, SuiteConfig, _distinct_points
from faylab.quasidet import (check_sylvester, check_column_expansion, check_homological,
                             SingularMinor)
from faylab.rng import trial_rng
from faylab.report import report_record

from conftest import build_context, far_path_aj, one_trial, pair_args
from oracles import agm_tau, draw_one, qseries_theta3, random_quasimatrix

RMS = {1: RiemannMatrix([[1j]]),
       2: RiemannMatrix([[1.0j, 0.3], [0.3, 1.3j]]),
       3: RiemannMatrix([[1.2j, 0.2, 0.1], [0.2, 1.5j, -0.25],
                         [0.1, -0.25, 1.1j]])}


def announce(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status}  {label}  {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def run_trials(fn, trials, label, seed=42):
    worst = 0.0
    done = 0
    trial = 0
    while done < trials and trial < 10 * trials:
        rng = trial_rng(seed, label, trial)
        trial += 1
        try:
            worst = max(worst, fn(rng))
        except (NearDivisor, CoincidentPoints, SingularMinor):
            continue
        done += 1
    assert done == trials, f"completed only {done}/{trials} trials for {label}"
    return worst


def test_criterion_1_theta_core():
    t0 = time.time()
    worst_parity = 0.0
    worst_qp = 0.0
    worst_grad = 0.0
    for g in (1, 2, 3):
        rm = RMS[g]
        chars = theta_chars(g)
        rng = np.random.default_rng(100 + g)
        for _ in range(100):
            z = 0.5 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
            ch = chars[rng.integers(0, len(chars))]
            tp = theta_batch(z, rm, ch, 1e-12)[0][0]
            tm = theta_batch(-z, rm, ch, 1e-12)[0][0]
            sign = -1.0 if ch.parity else 1.0
            worst_parity = max(worst_parity,
                               abs(tm - sign * tp) / max(abs(tp), 1e-3))
        for _ in range(40):
            z = 0.5 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
            m = rng.integers(-2, 3, g).astype(float)
            n = rng.integers(-2, 3, g).astype(float)
            lhs = theta(z + rm.omega @ m + n, rm, tol=1e-12)
            fac = np.exp(-1j * np.pi * m @ rm.omega @ m - 2j * np.pi * m @ z)
            rhs = fac * theta(z, rm, tol=1e-12)
            worst_qp = max(worst_qp, abs(lhs - rhs) / abs(lhs))
        h = 1e-5
        for _ in range(10):
            z = 0.5 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
            grad = theta_gradient(z, rm, tol=1e-12)
            scale = np.abs(grad).max()
            for i in range(g):
                e = np.zeros(g)
                e[i] = h
                fd = (theta(z + e, rm, tol=1e-12)
                      - theta(z - e, rm, tol=1e-12)) / (2 * h)
                worst_grad = max(worst_grad, abs(grad[i] - fd) / scale)
    oracle_err = abs(theta([0.0], RMS[1], tol=1e-12) - qseries_theta3(0.0, 1j))
    elapsed = time.time() - t0
    ok = (worst_parity < 1e-10 and worst_qp < 1e-10 and worst_grad < 1e-6
          and oracle_err < 1e-10 and elapsed < 30)
    announce(1, "theta core (parity/quasi-periodicity/gradient/oracle)", ok,
             f"parity {worst_parity:.2e} qp {worst_qp:.2e} grad {worst_grad:.2e} "
             f"oracle {oracle_err:.2e} in {elapsed:.1f}s")


def test_criterion_2_periods():
    t0 = time.time()
    from faylab.registry import registry_entries
    entries = registry_entries()
    # lemniscatic against the AGM oracle
    c = HyperellipticCurve(entries["lemniscatic"]["branch_points"], "lemniscatic")
    _, _, pd = period_matrix(c)
    agm_err = abs(pd.rm.omega[0, 0] - agm_tau(-1.0, 0.0, 1.0))
    # registry validity
    worst_sym = 0.0
    min_eig = np.inf
    for cid, entry in entries.items():
        if entry["type"] != "hyperelliptic":
            continue
        cc = HyperellipticCurve(entry["branch_points"], cid)
        _, _, pdd = period_matrix(cc)
        om = pdd.rm.omega
        worst_sym = max(worst_sym, float(np.abs(om - om.T).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(om.imag).min()))
    # path independence: AJ against one integral along a polygon through a
    # far point, at the point where the polygon lands
    ctx = build_context("g2-real")
    worst_frac = 0.0
    compared = 0
    rng = np.random.default_rng(7)
    for _ in range(10):
        P = sample_point(ctx, rng)
        Q = sample_point(ctx, rng)
        hit = far_path_aj(ctx.periods, Q, P)
        if hit is None:
            continue
        vec, landed = hit
        al, be = lattice_coords(abel_jacobi(ctx.periods, landed, Q) - vec, ctx.rm)
        worst_frac = max(worst_frac, float(np.abs(al - np.round(al)).max()),
                         float(np.abs(be - np.round(be)).max()))
        compared += 1
    elapsed = time.time() - t0
    ok = (agm_err < 1e-8 and worst_sym < 1e-10 and min_eig > 0
          and worst_frac < 1e-8 and compared >= 8 and elapsed < 120)
    announce(2, "periods (AGM oracle/symmetry/positivity/path independence)", ok,
             f"agm {agm_err:.2e} sym {worst_sym:.2e} eig {min_eig:.3f} "
             f"path {worst_frac:.2e} over {compared} in {elapsed:.1f}s")


def test_criterion_3_kernel_cross_oracle():
    worst = 0.0
    for cid in ("lemniscatic", "g2-real"):
        ctx = build_context(cid)

        def one(rng):
            e, = draw_one(random_line_bundle, ctx, rng)
            P = sample_point(ctx, rng)
            Q = sample_point(ctx, rng)
            m1 = massey_m3_prime(ctx, [ctx.xi_of_bundle(e)], *pair_args(ctx, [P], [Q]))[0]
            m2 = massey_m3_theta(ctx, [ctx.xi_of_bundle(e)], *pair_args(ctx, [P], [Q]))[0]
            return abs(m1 - m2) / abs(m1)

        worst = max(worst, run_trials(one, 200, f"acc3|{cid}"))
    announce(3, "m3 cross-formula on 200 triples per curve", worst < 1e-8,
             f"max rel {worst:.2e}")


def test_criterion_4_trisecant_suite():
    t0 = time.time()
    ctx1 = build_context("lemniscatic")
    ctx2 = build_context("g2-real")
    checks = []
    r = run_trials(lambda rng: one_trial("trisecant_general_n1", ctx1, rng)[1],
                   200, "acc4|aybe")
    checks.append(("AYBE g1 n1", r, 1e-9))
    r = run_trials(lambda rng: one_trial("trisecant_general_n1", ctx2, rng)[1],
                   100, "acc4|g2n1")
    checks.append(("mainid g2 n1", r, 1e-8))
    r = run_trials(lambda rng: one_trial("trisecant_general_n3", ctx2, rng)[1],
                   50, "acc4|g2n3")
    checks.append(("mainid g2 n3", r, 1e-7))
    r = run_trials(lambda rng: one_trial("trisecant_classical", ctx1, rng)[1],
                   200, "acc4|cl1")
    checks.append(("classical g1", r, 1e-9))
    r = run_trials(lambda rng: one_trial("trisecant_classical", ctx2, rng)[1],
                   100, "acc4|cl2")
    checks.append(("classical g2", r, 1e-8))
    r = run_trials(lambda rng: one_trial("divisor_symmetric_n1", ctx1, rng)[1],
                   100, "acc4|div1")
    checks.append(("divisorid g1", r, 1e-9))
    r = run_trials(lambda rng: one_trial("divisor_symmetric_n2", ctx2, rng)[1],
                   50, "acc4|div2")
    checks.append(("divisorid g2", r, 1e-8))
    # specialization x=z0, xi=z0-t0 reproduces the symmetric form
    from faylab.kernels import fay_F
    worst_spec = 0.0
    for trial in range(20):
        rng = trial_rng(42, "acc4|spec", trial)
        try:
            pts = draw_one(_distinct_points, ctx1, rng, 5)
        except Exception:
            continue
        y, z0, t0_, z1, t1 = pts
        Y, Z0, T0, Z1, T1 = ctx1.aj(pts)
        xi = Z0 - T0
        S = Z1 - T1
        blocks = [fay_F(ctx1, Z1 - Z0, xi) * fay_F(ctx1, Y - Z1, S + xi),
                  fay_F(ctx1, Z0 - Z1, Z1 - T1) * fay_F(ctx1, Y - Z0, S + xi),
                  -fay_F(ctx1, Y - Z1, Z1 - T1) * fay_F(ctx1, Y - Z0, xi)]
        general = abs(sum(blocks)) / max(abs(b) for b in blocks)
        worst_spec = max(worst_spec, general)
    checks.append(("specialization to divisorid", worst_spec, 1e-10))
    elapsed = time.time() - t0
    ok = all(v < tol for _, v, tol in checks) and elapsed < 600
    detail = " ".join(f"{name}:{v:.1e}" for name, v, _ in checks)
    announce(4, "trisecant suite", ok, detail + f" in {elapsed:.1f}s")


def test_criterion_5_prime_form_suite():
    ctx1 = build_context("lemniscatic")
    ctx2 = build_context("g2-real")
    checks = []
    r = run_trials(lambda rng: one_trial("prime_form_n1", ctx1, rng)[1],
                   100, "acc5|n1g1")
    checks.append(("Eq(another) n1 g1", r, 1e-8))
    r = run_trials(lambda rng: one_trial("prime_form_n1", ctx2, rng)[1],
                   100, "acc5|n1g2")
    checks.append(("Eq(another) n1 g2", r, 1e-8))
    r = run_trials(lambda rng: one_trial("prime_form_n2", ctx2, rng)[1],
                   50, "acc5|n2g2")
    checks.append(("Eq(another) n2 g2", r, 1e-7))

    def antisym(ctx):
        def one(rng):
            P = sample_point(ctx, rng)
            Q = sample_point(ctx, rng)
            E1 = prime_form(ctx, *pair_args(ctx, [P], [Q]))[0]
            return abs(E1 + prime_form(ctx, *pair_args(ctx, [Q], [P]))[0]) / abs(E1)
        return one
    r = max(run_trials(antisym(ctx1), 50, "acc5|anti1"),
            run_trials(antisym(ctx2), 50, "acc5|anti2"))
    checks.append(("E antisymmetry", r, 1e-9))

    # independence from the odd characteristic at g in {2, 3}
    from test_kernels import second_odd_context
    worst = 0.0
    for cid in ("g2-real", "g3-real"):
        ca = build_context(cid)
        cb = second_odd_context(cid)
        def one(rng, ca=ca, cb=cb):
            P = sample_point(ca, rng)
            Q = sample_point(ca, rng)
            E1 = prime_form(ca, *pair_args(ca, [P], [Q]))[0]
            E2 = prime_form(cb, *pair_args(cb, [P], [Q]))[0]
            return abs(E1**2 - E2**2) / abs(E1**2)
        worst = max(worst, run_trials(one, 25, f"acc5|ind{cid}"))
    checks.append(("E independent of delta", worst, 1e-8))

    r = max(one_trial("theta_derivative_divisor", ctx1, trial_rng(42, "acc5|td1", 0))[1],
            one_trial("theta_derivative_divisor", ctx2, trial_rng(42, "acc5|td2", 0))[1])
    checks.append(("theta'(0) vanishes on D", r, 1e-6))
    ok = all(v < tol for _, v, tol in checks)
    announce(5, "prime-form suite", ok,
             " ".join(f"{name}:{v:.1e}" for name, v, _ in checks))


def test_criterion_6_quasidet_suite():
    t0 = time.time()
    checks = []

    def structural(rng):
        n = int(rng.integers(2, 5))
        A = random_quasimatrix(rng, n, 2, (1,))      # a stack of one
        vals = [check_column_expansion(A)[0]]
        if n >= 2:
            vals.append(check_sylvester(A, n - 1)[0])
        if n >= 3:
            idx = rng.permutation(n)
            jdx = rng.permutation(n)
            vals.append(check_homological(A, idx[:1], jdx[:1], idx[1:2], jdx[1:2])[0])
        return max(vals)
    r = run_trials(structural, 100, "acc6|struct")
    checks.append(("sylvester/column/homological k=2", r, 1e-9))

    def det_ratio(rng):
        n = int(rng.integers(2, 6))
        A = random_quasimatrix(rng, n, 1)
        M = A.entries[:, :, 0, 0]
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n))
        minor = np.delete(np.delete(M, i, 0), j, 1)
        dm = np.linalg.det(minor)
        if abs(dm) < 1e-8:
            raise SingularMinor("oracle minor too small")
        oracle = (-1) ** (i + j) * np.linalg.det(M) / dm
        return abs(A.qdet(i, j)[0, 0] - oracle) / abs(oracle)
    r = run_trials(det_ratio, 100, "acc6|detratio")
    checks.append(("scalar det ratio", r, 1e-9))

    ctx1 = build_context("lemniscatic")
    ctx2 = build_context("g2-real")
    r = run_trials(lambda rng: one_trial("quasidet_geometric_n1", ctx1, rng)[1],
                   100, "acc6|geo1")
    checks.append(("geometric n1 scalar g1", r, 1e-8))
    r = run_trials(lambda rng: one_trial("quasidet_geometric_n2", ctx2, rng)[1],
                   50, "acc6|geo2")
    checks.append(("geometric n2 scalar g2", r, 1e-8))
    r = run_trials(lambda rng: one_trial("quasidet_geometric_diag", ctx1, rng)[1],
                   50, "acc6|geod")
    checks.append(("geometric n1 diag k2 g1", r, 1e-8))
    elapsed = time.time() - t0
    ok = all(v < tol for _, v, tol in checks) and elapsed < 120
    announce(6, "quasideterminant suite", ok,
             " ".join(f"{name}:{v:.1e}" for name, v, _ in checks)
             + f" in {elapsed:.1f}s")


def test_criterion_7_canonical_tangent(fermat, quartic_generic):
    t0 = time.time()
    checks = []
    r = run_trials(lambda rng: one_trial("canprop", fermat, rng)[1], 200, "acc7|cpf")
    checks.append(("canprop fermat", r, 1e-9))
    r = run_trials(lambda rng: one_trial("canprop", quartic_generic, rng)[1],
                   100, "acc7|cpg")
    checks.append(("canprop generic", r, 1e-8))
    r = run_trials(lambda rng: one_trial("cor2_three_term", fermat, rng)[1], 100, "acc7|c2")
    checks.append(("cor2 three-term", r, 1e-9))
    r = run_trials(lambda rng: one_trial("ratio_dual", fermat, rng)[1], 200, "acc7|rd")
    checks.append(("ratio dual", r, 1e-9))
    worst = 0.0
    for C4, label in ((fermat, "f"), (quartic_generic, "g")):
        worst = max(worst, run_trials(
            lambda rng: one_trial("tangent_reconstruction", C4, rng)[1],
            100, f"acc7|tr{label}"))
    checks.append(("tangent reconstruction", worst, 1e-8))
    r = run_trials(lambda rng: one_trial("reconstruct_synthetic", None, rng)[1],
                   100, "acc7|syn")
    checks.append(("synthetic oracle len 5", r, 1e-10))
    elapsed = time.time() - t0
    ok = all(v < tol for _, v, tol in checks) and elapsed < 60
    announce(7, "canonical tangent suite", ok,
             " ".join(f"{name}:{v:.1e}" for name, v, _ in checks)
             + f" in {elapsed:.1f}s")


#: the seed-42 and seed-7 records of verify --identity all --curve all,
#: without elapsed_ms; a change that moves any bit of a report shows here
GOLDEN = Path(__file__).parent / "golden" / "verify_seed42.ndjson"
GOLDEN_SEED7 = Path(__file__).parent / "golden" / "verify_seed7.ndjson"


def suite_records(seed):
    """The records of verify --identity all --curve all at seed, without
    elapsed_ms, one per line."""
    lines = []
    for r in run_suite(SuiteConfig(master_seed=seed)):
        rec = report_record(r)
        rec.pop("elapsed_ms")
        lines.append(json.dumps(rec))
    return "\n".join(lines)


def test_criterion_8_determinism():
    payloads = [suite_records(42) for _ in range(2)]
    ok = (payloads[0] == payloads[1] == GOLDEN.read_text().rstrip("\n")
          and len(payloads[0]) > 0)
    announce(8, "determinism of verify --identity all --curve all --seed 42",
             ok, f"{payloads[0].count(chr(10)) + 1} reports")


def test_criterion_8_determinism_seed7():
    # one pass at a second seed, whose draws reach other rows of the streams
    payload = suite_records(7)
    ok = payload == GOLDEN_SEED7.read_text().rstrip("\n") and len(payload) > 0
    announce(8, "verify --identity all --curve all --seed 7 equals its golden file",
             ok, f"{payload.count(chr(10)) + 1} reports")
