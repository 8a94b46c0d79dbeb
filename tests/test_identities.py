import functools
import math
from collections import Counter

import numpy as np
import pytest

from faylab.identities import (IDENTITIES, SuiteConfig, run_suite, run_identity,
                               UnknownIdentity, SuiteError, _build_env, _distinct_points)
from faylab.kernels import CurveContext, fay_F, NearDivisor, sample_point
from faylab.quasidet import SingularMinor
from faylab.registry import registry_entries
from faylab.report import report_record
from faylab.rng import trial_rng

from conftest import HYPERELLIPTIC, build_context, one_trial, scale_theta
from oracles import draw_one, generator_trial, per_trial_record, trial_steps


def run_many(name, ctx, seed_label, trials=25):
    worst = 0.0
    done = 0
    trial = 0
    while done < trials and trial < 8 * trials:
        rng = trial_rng(7, seed_label, trial)
        trial += 1
        try:
            worst = max(worst, one_trial(name, ctx, rng)[1])
        except NearDivisor:
            continue
        done += 1
    assert done == trials
    return worst


class TestTrisecant:
    def test_aybe_g1(self, ctx_g1):
        assert run_many("trisecant_general_n1", ctx_g1, "aybe") < 1e-9

    @pytest.mark.parametrize("n,tol", [(1, 1e-8), (3, 1e-7)])
    def test_general_g2(self, ctx_g2, n, tol):
        assert run_many(f"trisecant_general_n{n}", ctx_g2, f"gen{n}") < tol

    def test_classical(self, ctx_g1, ctx_g2):
        assert run_many("trisecant_classical", ctx_g1, "cl1") < 1e-9
        assert run_many("trisecant_classical", ctx_g2, "cl2") < 1e-8

    def test_classical_degenerate_t_equals_z(self, ctx_g1, monkeypatch):
        # with t = z both sides collapse to the same product
        import faylab.identities as ids

        def t_is_z(ctx, take, rows, count):
            pts, errors = _distinct_points(ctx, take, rows, 3)
            return pts[:, [0, 1, 2, 2]], errors
        monkeypatch.setattr(ids, "_distinct_points", t_is_z)
        abs_r, rel_r = one_trial("trisecant_classical", ctx_g1, trial_rng(7, "degen", 0))
        assert rel_r < 1e-10

    def test_divisor_symmetric(self, ctx_g1, ctx_g2):
        assert run_many("divisor_symmetric_n1", ctx_g1, "div1") < 1e-9
        assert run_many("divisor_symmetric_n2", ctx_g2, "div2") < 1e-8

    def test_specialization_reproduces_divisorid(self, ctx_g1):
        # x = z_0, xi = z_0 - t_0 in the general identity reproduces the
        # symmetric form; evaluate both with matched inputs
        rng = trial_rng(7, "spec", 3)
        n = 1
        pts = draw_one(_distinct_points, ctx_g1, rng, 3 + 2 * n)
        y = pts[0]
        z0, t0 = pts[1], pts[2]
        zs = pts[3:3 + n]
        ts = pts[3 + n:]
        Y, Z0, T0 = ctx_g1.aj([y, z0, t0])
        Z, T = list(ctx_g1.aj(zs)), list(ctx_g1.aj(ts))
        xi = Z0 - T0
        # general identity blocks at x = z0
        S = sum(Z[k] - T[k] for k in range(n))
        blocks = []
        for i in range(n):
            term = fay_F(ctx_g1, Z[i] - Z0, xi) * fay_F(ctx_g1, Y - Z[i], S + xi)
            blocks.append(term)
        t2 = 1.0 + 0j
        for i in range(n):
            t2 *= fay_F(ctx_g1, Z0 - Z[i], Z[i] - T[i])
        blocks.append(t2 * fay_F(ctx_g1, Y - Z0, S + xi))
        t3 = 1.0 + 0j
        for i in range(n):
            t3 *= fay_F(ctx_g1, Y - Z[i], Z[i] - T[i])
        blocks.append(-t3 * fay_F(ctx_g1, Y - Z0, xi))
        general = sum(blocks)
        # the symmetric identity over z_0..z_n, t_0..t_n
        m = n + 1
        Zs = [Z0] + Z
        Ts = [T0] + T
        Ssym = sum(Zs[k] - Ts[k] for k in range(m))
        sym_blocks = []
        for i in range(m):
            term = 1.0 + 0j
            for j in range(m):
                if j != i:
                    term *= fay_F(ctx_g1, Zs[i] - Zs[j], Zs[j] - Ts[j])
            term *= fay_F(ctx_g1, Y - Zs[i], Ssym)
            sym_blocks.append(term)
        rhs = 1.0 + 0j
        for i in range(m):
            rhs *= fay_F(ctx_g1, Y - Zs[i], Zs[i] - Ts[i])
        sym_blocks.append(-rhs)
        symmetric = sum(sym_blocks)
        # identical residuals after the common-factor normalization:
        # general(x=z0, xi=z0-t0) = symmetric / F(z0-t0... both are zero;
        # compare the two residuals directly
        r_gen = abs(general) / max(abs(b) for b in blocks)
        r_sym = abs(symmetric) / max(abs(b) for b in sym_blocks)
        assert r_gen < 1e-10 and r_sym < 1e-10


class TestResidueIdentities:
    def test_skewsym_n2(self, ctx_g1, ctx_g2):
        assert run_many("skewsym_n2", ctx_g1, "sk1") < 1e-9
        assert run_many("skewsym_n2", ctx_g2, "sk2") < 1e-9

    def test_n3_needs_genus_one(self, ctx_g2):
        rng = trial_rng(7, "n3", 0)
        with pytest.raises(SuiteError):
            one_trial("residue_n3", ctx_g2, rng)

    def test_n3_g1(self, ctx_g1):
        assert run_many("residue_n3", ctx_g1, "n3") < 1e-8

    def test_degenerate_coincident_points(self, ctx_g1):
        # a stream whose doubles repeat draws the same point three times
        from faylab.identities import BadTriple
        fixed = trial_rng(7, "bad", 0).random(3)

        def collapse(rows, n):
            return np.tile(fixed[:n], (len(rows), 1))
        pts, errors = _distinct_points(ctx_g1, collapse, np.arange(2), 3)
        assert (pts == pts[:, :1]).all() and list(errors) == [0, 1]
        assert all(isinstance(ex, BadTriple) for ex in errors.values())

    def test_coincident_draw_redrawn_by_run_identity(self, ctx_g1, monkeypatch):
        # one coincident draw raises BadTriple at once; run_identity then
        # completes the trial in a second round, with the next draws of the
        # same stream
        import faylab.identities as ids
        from faylab.identities import BadTriple, IdentitySpec, _runner
        real, calls = ids.sample_points, []

        def first_draw_coincides(ctx, take, rows, count):
            # the three points of every stream's first draw coincide
            pts, errors = real(ctx, take, rows, count)
            calls.append(pts)
            return (pts[:, [0, 0, 0]] if len(calls) == 1 else pts), errors
        monkeypatch.setattr(ids, "sample_points", first_draw_coincides)
        with pytest.raises(BadTriple):
            draw_one(_distinct_points, ctx_g1, trial_rng(7, "redraw", 0), 3)
        calls.clear()
        got = []

        def body(ctx):
            got.append((yield _distinct_points, 3))
            return np.zeros(len(got[-1])), np.zeros(len(got[-1]))
        spec = IdentitySpec("redraw", "hyperelliptic", _runner(body), {1: (1, 1.0)})
        rep = run_identity(spec, ctx_g1, "lemniscatic", 1, 1.0, 7)
        assert (rep.completed, rep.passed, len(got), len(calls)) == (1, True, 1, 2)
        rng = trial_rng(7, "redraw|lemniscatic", 0)
        assert np.array_equal(got[0][0], [sample_point(ctx_g1, rng) for _ in range(6)][3:])

    def test_maincor_kernel(self, ctx_g1):
        assert run_many("maincor_kernel", ctx_g1, "mk") < 1e-8

    def test_idcor(self, ctx_g1, ctx_g2):
        assert run_many("idcor", ctx_g1, "id1") < 1e-9
        assert run_many("idcor", ctx_g2, "id2") < 1e-8


class TestPrimeFormIdentity:
    @pytest.mark.parametrize("n,tol", [(1, 1e-8), (2, 1e-7)])
    def test_g2(self, ctx_g2, n, tol):
        assert run_many(f"prime_form_n{n}", ctx_g2, f"pf{n}") < tol

    def test_g1(self, ctx_g1):
        assert run_many("prime_form_n1", ctx_g1, "pf1") < 1e-8


class TestThetaDerivative:
    def test_g1(self, ctx_g1):
        rng = trial_rng(7, "td", 0)
        abs_r, rel_r = one_trial("theta_derivative_divisor", ctx_g1, rng)
        assert rel_r < 1e-10

    def test_g2(self, ctx_g2):
        rng = trial_rng(7, "td", 0)
        abs_r, rel_r = one_trial("theta_derivative_divisor", ctx_g2, rng)
        assert rel_r < 1e-6


class TestQuasidetGeometric:
    def test_scalar_n1_g1(self, ctx_g1):
        assert run_many("quasidet_geometric_n1", ctx_g1, "qg1") < 1e-9

    def test_scalar_n2_g2(self, ctx_g2):
        assert run_many("quasidet_geometric_n2", ctx_g2, "qg2") < 1e-8

    def test_diag_block_g1(self, ctx_g1):
        worst = 0.0
        for trial in range(10):
            rng = trial_rng(7, "qgd", trial)
            worst = max(worst, one_trial("quasidet_geometric_diag", ctx_g1, rng)[1])
        assert worst < 1e-9


class TestSuiteRunner:
    def test_unknown_identity_rejected_before_evaluation(self):
        cfg = SuiteConfig(identities=["no_such_identity"])
        with pytest.raises(UnknownIdentity):
            run_suite(cfg)

    def test_bad_tolerance_rejected(self):
        for tol in (0.0, -1e-9, float("nan"), float("inf")):
            cfg = SuiteConfig(identities=["skewsym_n2"], tol=tol)
            with pytest.raises(SuiteError, match="tol must be positive"):
                cfg.validate()

    def test_seed_outside_the_key_range_rejected(self):
        # trial_rng keys Philox with the seed as one uint64: 2**64 + 1 would
        # give seed 1's streams, and -1 seed 2**64 - 1's
        for seed in (0, 2**64 - 1):
            SuiteConfig(identities=["skewsym_n2"], master_seed=seed).validate()
        for seed in (-1, 2**64, 2**64 + 1):
            with pytest.raises(SuiteError, match="seed must be >= 0"):
                SuiteConfig(identities=["skewsym_n2"], master_seed=seed).validate()

    def test_reports_deterministic(self):
        cfg = SuiteConfig(curves=["lemniscatic"], identities=["skewsym_n2"],
                          trials=10, master_seed=99)
        r1 = run_suite(cfg)
        r2 = run_suite(cfg)
        assert len(r1) == len(r2) == 1
        assert r1[0].max_rel_residual == r2[0].max_rel_residual
        assert r1[0].max_abs_residual == r2[0].max_abs_residual

    @pytest.mark.parametrize("name,cid", [
        (name, cid) for name, spec in sorted(IDENTITIES.items())
        if spec.kind == "hyperelliptic"
        for cid, g in (("lemniscatic", 1), ("g2-real", 2)) if g in spec.table])
    def test_scale_free_residuals(self, name, cid, monkeypatch):
        # multiplying theta by a constant leaves residuals unchanged
        entry_ctx = build_context(cid)
        r1 = [one_trial(name, entry_ctx, trial_rng(5, name, trial))[1]
              for trial in range(3)]
        scale_theta(monkeypatch, 1.7 - 0.4j)
        scaled = CurveContext(entry_ctx.curve, entry_ctx.periods)
        for trial in range(3):
            r2 = one_trial(name, scaled, trial_rng(5, name, trial))[1]
            assert abs(r1[trial] - r2) < 1e-12

    def test_completion_tracking(self, ctx_g1):
        # a body that rejects every trial must fail the completion bar
        from faylab.identities import IdentitySpec, _runner, doubles

        def always_near(env):
            u = yield doubles, 1
            yield {i: NearDivisor("synthetic rejection") for i in range(len(u))}
        spec = IdentitySpec(name="synthetic", kind="hyperelliptic",
                            runner=_runner(always_near), table={1: (10, 1e-8)})
        rep = run_identity(spec, ctx_g1, "lemniscatic", 10, 1e-8, 1)
        assert rep.completed == 0
        assert not rep.passed
        assert math.isinf(rep.max_abs_residual) and math.isinf(rep.max_rel_residual)

    @pytest.mark.parametrize("bad", [(math.nan, math.nan), (math.nan, 0.0),
                                     (0.0, math.nan)])
    def test_non_finite_residual_fails_the_report(self, bad):
        # max() drops a NaN: trial 3's NaN residual must end the report as
        # an infinite one does, with both maxima inf
        from faylab.identities import IdentitySpec, _runner, doubles
        third = trial_rng(42, "nan|-", 2).random()

        def body(env):
            hit = (yield doubles, 1)[:, 0] == third
            return np.where(hit, bad[0], 1e-12), np.where(hit, bad[1], 1e-12)
        spec = IdentitySpec("nan", "carrier", _runner(body), {"-": (10, 1e-9)})
        rep = run_identity(spec, None, "-", 10, 1e-9, 42)
        assert (rep.completed, rep.passed, rep.failure) == (3, False, "")
        assert math.isinf(rep.max_abs_residual) and math.isinf(rep.max_rel_residual)

    def test_unbuilt_environment_fails_its_reports(self, monkeypatch):
        import faylab.identities as ids
        from faylab.curves import BranchPointCollision
        def refuse(entry):
            raise BranchPointCollision("synthetic collision")
        monkeypatch.setattr(ids, "_build_env", refuse)
        reps = run_suite(SuiteConfig(curves=["lemniscatic"], trials=2,
                                     identities=["idcor", "quasidet_det_ratio"]))
        assert [(r.curve_id, r.completed, r.passed, r.failure) for r in reps] == [
            ("lemniscatic", 0, False, "BranchPointCollision: synthetic collision"),
            ("-", 2, True, "")]
        assert math.isinf(reps[0].max_rel_residual)

    @pytest.mark.parametrize("failures", [1, None])
    def test_run_identity_resamples_quartic_draws(self, monkeypatch, fermat, failures):
        # a tangent line is a rejected draw, resampled by run_identity alone:
        # one rejection costs one attempt, endless ones leave every trial
        # incomplete instead of failing the report.  The first `failures`
        # lines requested (every line if None) are tangent.
        import faylab.quartic as quartic
        real = quartic.line_section
        seen = []
        def tangent_first(C4, L):
            seen.extend(l.tobytes() for l in L if l.tobytes() not in seen)
            if failures is None or any(l.tobytes() in seen[:failures] for l in L):
                raise quartic.TangentOrSingularLine("synthetic tangent line")
            return real(C4, L)
        monkeypatch.setattr(quartic, "line_section", tangent_first)
        rep = run_identity(IDENTITIES["canprop"], fermat, "fermat", 5, 1e-9, 42)
        if failures:
            assert (rep.completed, rep.passed, rep.failure) == (5, True, "")
        else:
            assert (rep.completed, rep.passed, rep.failure) == (0, False, "")
            assert math.isinf(rep.max_rel_residual)

    def test_one_call_per_kernel_per_evaluate(self, monkeypatch):
        # a run of several trials calls ctx.aj and each kernel at most
        # once; calls the kernels make themselves are not counted, except
        # abel_jacobi's at any depth: only ctx.aj requests reach it
        import faylab.identities as ids
        import faylab.kernels as kernels
        from faylab.rng import Table
        calls, total, depth = Counter(), Counter(), [0]

        def counter(fn, name):
            def counted(*args, **kwargs):
                calls[name] += depth[0] == 0 or name == "abel_jacobi"
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            return counted
        names = ("fay_F", "prime_form", "massey_m3_prime", "massey_m3_theta",
                 "theta_batch", "h_values", "theta_form")
        for name in names:
            monkeypatch.setattr(ids, name, counter(getattr(ids, name), name))
        for name in ("aj", "theta_delta"):
            monkeypatch.setattr(CurveContext, name,
                                counter(getattr(CurveContext, name), name))
        monkeypatch.setattr(kernels, "abel_jacobi", counter(kernels.abel_jacobi, "abel_jacobi"))
        for cid in ("lemniscatic", "g2-real"):
            ctx = build_context(cid)
            for spec in IDENTITIES.values():
                if spec.kind != "hyperelliptic" or ctx.g not in spec.table:
                    continue
                started = [spec.runner(ctx) for _ in range(4)]
                calls.clear()
                ids._drive(ctx, started, Table(7, spec.name, range(4)), np.arange(4))
                assert max(calls.values()) == 1, (spec.name, calls)
                assert calls["aj"] == calls["abel_jacobi"], (spec.name, calls)
                total += calls
        assert set(total) == set(names) | {"aj", "theta_delta", "abel_jacobi"}

    def test_every_identity_reachable(self):
        # one trial of every spec on every builtin curve of its kind
        reports = run_suite(SuiteConfig(trials=1))
        assert {r.identity_id for r in reports} == set(IDENTITIES)
        assert {r.curve_id for r in reports} == set(registry_entries()) | {"-"}
        assert all(r.passed for r in reports)


def target(cid):
    """The kind of the identities that run on a registry curve id, or on
    "-", and the curve's genus."""
    if cid == "-":
        return "carrier", None
    entry = registry_entries()[cid]
    return entry["type"], entry["genus"]


def record(rep):
    """A report's ndjson record without elapsed_ms, with its failure."""
    rec = report_record(rep)
    del rec["elapsed_ms"]
    return dict(rec, failure=rep.failure)


def counted_drive(monkeypatch):
    """Patch _drive to record the number of started bodies of each call."""
    import faylab.identities as ids
    drive, sizes = ids._drive, []

    def counted(env, started, *streams):
        sizes.append(len(started))
        return drive(env, started, *streams)
    monkeypatch.setattr(ids, "_drive", counted)
    return sizes


class TestLookAhead:
    """run_identity runs every pending trial of a round together; its
    records must equal per_trial_record's, where each trial runs alone."""

    @staticmethod
    def fresh(cid):
        """A new environment of the registry curve cid, or None for "-"."""
        if target(cid)[0] != "hyperelliptic":
            return None if cid == "-" else _build_env(registry_entries()[cid])
        base = build_context(cid)
        return CurveContext(base.curve, base.periods)

    @staticmethod
    def both(spec, cid, trials, tol=1.0, seed=11):
        """The records of run_identity and of per_trial_record, each on a
        fresh context."""
        rep = run_identity(spec, TestLookAhead.fresh(cid), cid, trials, tol, seed)
        return record(rep), per_trial_record(spec, TestLookAhead.fresh(cid), cid,
                                             trials, tol, seed)

    @pytest.mark.parametrize("cid", ["lemniscatic", "g2-real"])
    def test_same_records_as_without(self, cid, monkeypatch):
        # every spec's record equals per_trial_record's, with the kernels as
        # they are and with fay_F and massey_m3_theta refusing (NearDivisor)
        # any call on more rows than one trial requests, so that each round
        # runs again with each trial alone
        import faylab.identities as ids
        g = build_context(cid).g
        specs = [s for s in IDENTITIES.values() if s.kind == "hyperelliptic" and g in s.table]
        for spec in specs:
            got, want = self.both(spec, cid, 4)
            assert got == want and got["completed"] == 4, spec.name
        refused = Counter()

        def refusing(name, most):
            kernel = getattr(ids, name)

            def refuse(ctx, A, *args):
                if len(A) > most:
                    refused[name] += 1
                    raise NearDivisor("batch refused")
                return kernel(ctx, A, *args)
            monkeypatch.setattr(ids, name, refuse)
        # a trisecant body asks fay_F for (n + 1)(n + 2) <= 20 rows
        refusing("fay_F", 20)
        refusing("massey_m3_theta", 1)
        for spec in specs:
            got, want = self.both(spec, cid, 4)
            assert got == want and got["completed"] == 4, spec.name
        # cross_formula_m3's 4 one-row trials: refused as 4, then run alone
        assert refused["fay_F"] >= 5 and refused["massey_m3_theta"] == 1

    def test_failed_batch_fails_the_same_trial(self, monkeypatch):
        # _from_rays refuses trial 3's first point: the joined ctx.aj call
        # fails, each body's points are mapped on their own, and the report
        # fails at trial 3
        import faylab.curves as curves
        from faylab.kernels import sample_point
        bad = sample_point(self.fresh("lemniscatic"), trial_rng(11, "idcor|lemniscatic", 3))[0]
        real = curves._from_rays

        def refuse(periods, pts, ks):
            if (pts[:, 0] == bad).any():
                raise curves.PathTooLong("synthetic refusal")
            return real(periods, pts, ks)
        monkeypatch.setattr(curves, "_from_rays", refuse)
        spec = IDENTITIES["idcor"]
        sizes = counted_drive(monkeypatch)
        got = record(run_identity(spec, self.fresh("lemniscatic"), "lemniscatic", 6, 1.0, 11))
        assert sizes == [6]
        assert got == per_trial_record(spec, self.fresh("lemniscatic"), "lemniscatic", 6, 1.0, 11)
        assert (got["completed"], got["failure"]) == (3, "PathTooLong: synthetic refusal")
        assert math.isinf(got["max_rel_residual"])

    def test_one_batch_for_first_draws(self, monkeypatch):
        # after set-up a 20-trial report draws each trial once and
        # integrates its 60 points in one _from_rays call
        import faylab.curves as curves
        from faylab.identities import IdentitySpec
        ctx = self.fresh("lemniscatic")
        ctx.aj([ctx.base])                 # branch and base constants
        attempts, calls = [], []

        def runner(env, *rng):
            attempts.append(rng)
            return IDENTITIES["idcor"].runner(env, *rng)
        real = curves._from_rays

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(curves, "_from_rays", counted)
        spec = IdentitySpec("idcor", "hyperelliptic", runner, {1: (20, 1e-9)})
        rep = run_identity(spec, ctx, "lemniscatic", 20, 1e-9, 42)
        assert rep.completed == 20 and rep.passed
        assert (len(attempts), len(calls)) == (20, 1)


@pytest.mark.parametrize("cid", HYPERELLIPTIC + ["fermat", "quartic-generic", "-"])
def test_evaluate_equals_one_draw_evaluations(cid):
    # every trial's residual has the bits it has when run alone: for every
    # identity with a table row for the curve (or, on "-", every carrier
    # check), at two seeds, 10 trials drawn from the rows of one Table and
    # run together over the trial axis, then each drawn from its trial_rng
    # Generator and run alone (T = 1)
    import faylab.identities as ids
    from faylab.rng import Table
    env, kind, genus = TestLookAhead.fresh(cid), *target(cid)
    specs = [spec for spec in IDENTITIES.values()
             if spec.kind == kind and spec.table.get(cid, spec.table.get(genus)) is not None]
    assert specs
    for spec in specs:
        for seed in (3, 2027):
            started = [spec.runner(env) for _ in range(10)]
            batch = np.array(ids._drive(env, started, Table(seed, spec.name, range(10)),
                                        np.arange(10)))
            alone = np.array([generator_trial(spec, env, trial_rng(seed, spec.name, trial))
                              for trial in range(10)])
            assert batch.shape == (10, 2) and batch.tobytes() == alone.tobytes(), spec.name


def test_near_divisor_in_one_trial_gives_the_per_trial_record(monkeypatch):
    # fay_F rejects trial 2's first draw: the round's joined call of 6
    # trials (6 rows each) fails, each trial runs alone, and trial 2 alone
    # is drawn again in a second round
    import faylab.identities as ids
    spec = IDENTITIES["trisecant_general_n1"]
    ctx = TestLookAhead.fresh("lemniscatic")
    # the first arguments of trial 2's fay_F request, the trial run alone
    _, marked, _ = next(request for request, _ in trial_steps(
        spec, ctx, trial_rng(11, "trisecant_general_n1|lemniscatic", 2))
        if request[0] is ids.fay_F)
    real, rejected = ids.fay_F, []

    def near(ctx, A, B):
        if (A == marked[0, 0]).all(axis=1).any():
            rejected.append(len(A))
            raise NearDivisor("synthetic rejection")
        return real(ctx, A, B)
    monkeypatch.setattr(ids, "fay_F", near)
    sizes = counted_drive(monkeypatch)
    rep = run_identity(spec, TestLookAhead.fresh("lemniscatic"), "lemniscatic", 6, 1e-9, 11)
    assert sizes == [6, 1] and rejected == [36, 6]
    assert (rep.completed, rep.passed, rep.failure) == (6, True, "")
    assert record(rep) == per_trial_record(spec, TestLookAhead.fresh("lemniscatic"),
                                           "lemniscatic", 6, 1e-9, 11)


@pytest.mark.parametrize("name", ["prime_form_n1", "cross_formula_m3"])
def test_bundle_near_the_theta_divisor_redraws_its_trial(name, monkeypatch):
    # trial 2's first bundle is moved next to the theta divisor, inside the
    # bodies' 1e-4 band and outside the kernels' 1e-8 one: its body rejects
    # it, and trial 2 alone is drawn again, from its own stream, in a second
    # round
    import faylab.identities as ids
    from faylab.curves import lattice_coords
    from faylab.kernels import riemann_constant
    from faylab.theta import theta
    spec, label = IDENTITIES[name], f"{name}|lemniscatic"
    ctx = TestLookAhead.fresh("lemniscatic")
    al, be = lattice_coords(riemann_constant(build_context("lemniscatic")), ctx.rm)
    near = al % 1.0 + 1e-6 + ctx.rm.omega @ (be % 1.0)
    assert 1e-8 < abs(theta(near, ctx.rm)) / ctx.scale < 1e-4
    real = ids.random_line_bundle
    # prime_form draws its bundle first, cross_formula after its two points
    marked, = next(answer for (fn, *_), answer in trial_steps(spec, ctx, trial_rng(11, label, 2))
                   if fn is ids.random_line_bundle)

    def moved(ctx, take, rows, count):
        es, errors = real(ctx, take, rows, count)
        es[(es == marked).all(axis=-1)] = near
        return es, errors
    monkeypatch.setattr(ids, "random_line_bundle", moved)
    assert isinstance(generator_trial(spec, ctx, trial_rng(11, label, 2)), NearDivisor)
    sizes = counted_drive(monkeypatch)
    rep = run_identity(spec, ctx, "lemniscatic", 6, 1e-8, 11)
    assert sizes == [6, 1]
    assert (rep.completed, rep.passed, rep.failure) == (6, True, "")
    assert record(rep) == per_trial_record(spec, TestLookAhead.fresh("lemniscatic"),
                                           "lemniscatic", 6, 1e-8, 11)


@pytest.mark.parametrize("nan_at,fail_at,completed,failure", [
    (1, 3, 2, ""), (3, 1, 1, "KernelError: synthetic failure")])
def test_outcomes_are_read_in_trial_order(nan_at, fail_at, completed, failure):
    # one trial's residual is NaN and another's kernel call fails hard, in
    # one round: whichever comes first in trial order ends the report
    from faylab.identities import IdentitySpec, _runner, doubles
    from faylab.kernels import KernelError
    first = [trial_rng(11, "ordered|-", k).random() for k in range(6)]

    def kernel(ctx, X):
        if first[fail_at] in X:
            raise KernelError("synthetic failure")
        return np.where(X == first[nan_at], np.nan, X)

    def body(ctx):
        x = (yield kernel, (yield doubles, 1))[:, 0]
        return x, x
    spec = IdentitySpec("ordered", "carrier", _runner(body), {"-": (6, 1.0)})
    rep = run_identity(spec, None, "-", 6, 1.0, 11)
    assert (rep.completed, rep.failure, rep.passed) == (completed, failure, False)
    assert math.isinf(rep.max_rel_residual)
    assert record(rep) == per_trial_record(spec, None, "-", 6, 1.0, 11)


def test_round_without_draws(monkeypatch):
    # every trial's draw fails hard: the round's one sampler call stops
    # all its bodies at their first request, and the report fails at trial 0
    import faylab.identities as ids
    from faylab.curves import CurveError
    from faylab.rng import Table
    calls = []

    def fail(ctx, take, rows, count):
        calls.append(len(rows))
        errors = dict.fromkeys(range(len(rows)), CurveError("synthetic failure"))
        return np.zeros((len(rows), count, 2), dtype=complex), errors
    monkeypatch.setattr(ids, "sample_points", fail)
    spec = IDENTITIES["idcor"]
    assert ids._drive(None, [], Table(11, "none", range(0)), np.arange(0)) == []
    sizes = counted_drive(monkeypatch)
    rep = run_identity(spec, build_context("lemniscatic"), "lemniscatic", 4, 1e-9, 11)
    assert sizes == calls == [4]
    assert (rep.completed, rep.failure) == (0, "CurveError: synthetic failure")
    assert math.isinf(rep.max_rel_residual)
    assert record(rep) == per_trial_record(spec, build_context("lemniscatic"),
                                           "lemniscatic", 4, 1e-9, 11)


@pytest.mark.parametrize("name,cid,message", [
    ("residue_n3", "g2-real", "residue identity implemented for n = 2, and n = 3 at genus 1 "
     "(degree count: n(g-1) = 2g-2 forces n = 2 otherwise), not n = 3 at genus 2"),
    ("maincor_kernel", "g2-real", "kernel-form corollary check runs at genus 1"),
    ("quasidet_geometric_diag", "g3-real", "diagonal flat bundles are exercised at genus 1"),
    ("theta_derivative_divisor", "g3-real", "divisor-vanishing check runs at genus 1 or 2")])
def test_guard_refusal_fails_its_report(name, cid, message, monkeypatch):
    # a body refuses a curve it is not made for before its first request:
    # its report fails at trial 0 with the guard's message, and no sampler
    # is called
    import faylab.identities as ids
    calls = []

    def sampler(*args):
        calls.append(args)
        raise AssertionError("a sampler called past a guard")
    for sampler_name in ("sample_points", "sample_xi", "random_line_bundle", "_distinct_points"):
        monkeypatch.setattr(ids, sampler_name, sampler)
    rep = run_identity(IDENTITIES[name], build_context(cid), cid, 5, 1e-8, 42)
    assert (rep.completed, rep.passed, rep.failure) == (0, False, f"SuiteError: {message}")
    assert math.isinf(rep.max_rel_residual) and calls == []
    assert record(rep) == per_trial_record(IDENTITIES[name], build_context(cid), cid, 5, 1e-8, 42)
    assert calls == []


@pytest.mark.parametrize("cid", ["lemniscatic", "g2-real", "g3-real"])
def test_draws_are_pure_sampling(cid, monkeypatch):
    # _drive answering only draw requests, from a Table or a Generator, runs
    # each body up to its first kernel request: the draws sample, and
    # evaluate no theta row and integrate no path
    import sys
    import faylab.identities as ids
    from faylab.rng import Table
    ctx = build_context(cid)

    def refuse(*args, **kwargs):
        raise AssertionError("theta or a path evaluated in a draw")
    for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "faylab"]:
        for name in ("theta_batch", "integrate_path", "_from_rays"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    def kernel_request(env, kernel, *args):
        raise SuiteError("kernel request")
    monkeypatch.setattr(ids, "_rows", kernel_request)
    for spec in IDENTITIES.values():
        if spec.kind == "hyperelliptic" and ctx.g in spec.table:
            started = [spec.runner(ctx) for _ in range(10)]
            got = ids._drive(ctx, started, Table(3, spec.name, range(10)), np.arange(10))
            got += [generator_trial(spec, ctx, trial_rng(3, spec.name, trial))
                    for trial in range(10)]
            assert all(isinstance(r, ids._RETRY) or str(r) == "kernel request"
                       for r in got), spec.name


def test_failed_call_runs_each_trial_alone():
    # a kernel that refuses one of 16 trials is called once for all and
    # once for each trial alone, and the refused trial gets the exception it
    # gets alone; with a kernel that refuses calls of more than 2 rows,
    # every trial gets the rows it gets alone
    from faylab.identities import _drive
    from faylab.rng import Table
    calls = []

    def refusing(env, X):
        calls.append(len(X))
        if 11.0 in X:
            raise NearDivisor("trial 11 refused")
        return 2 * X

    def small(env, X):
        if len(X) > 2:
            raise NearDivisor("call refused")
        return X / 3

    def trial_index(env, take, rows, count):
        return rows[:, None] + np.zeros(count), {}

    def body(env, kernel):
        Y = (yield kernel, (yield trial_index, 1))[:, 0]
        return Y, Y

    def run(kernel, rows):
        started = [functools.partial(body, None, kernel)] * len(rows)
        return _drive(None, started, Table(0, "halves", range(16)), np.array(rows))
    got = run(refusing, range(16))
    assert calls == [16] + [1] * 16
    assert [k for k, r in enumerate(got) if isinstance(r, NearDivisor)] == [11]
    alone, = run(refusing, [11])
    assert (type(got[11]), got[11].args) == (type(alone), alone.args)
    assert [r for k, r in enumerate(got) if k != 11] == [
        (2.0 * k,) * 2 for k in range(16) if k != 11]
    assert run(small, range(16)) == [run(small, [k])[0] for k in range(16)]


def test_one_trial_model(fermat, monkeypatch):
    # every runner is _runner(body) of a generator body and takes env alone,
    # and a quartic draw is pure sampling: _drive answering only draw
    # requests sections no line and reads no l(v_P)
    import inspect
    import faylab.identities as ids
    import faylab.quartic as quartic
    from faylab.rng import Table
    code = ids._runner(test_one_trial_model).__code__
    for spec in IDENTITIES.values():
        assert spec.runner.__code__ is code, spec.name
        assert list(inspect.signature(spec.runner, follow_wrapped=False).parameters) == [
            "env"], spec.name
        assert inspect.isgeneratorfunction(spec.runner.__wrapped__), spec.name

    def refuse(*args):
        raise AssertionError("a quartic kernel called in a draw")
    for name in ("line_section", "l_of_v"):
        monkeypatch.setattr(quartic, name, refuse)

    def kernel_request(env, kernel, *args):
        raise SuiteError("kernel request")
    monkeypatch.setattr(ids, "_rows", kernel_request)
    for spec in IDENTITIES.values():
        if spec.kind == "plane_quartic":
            got = ids._drive(fermat, [spec.runner(fermat)] * 10, Table(3, spec.name, range(10)),
                             np.arange(10))
            # reconstruct_synthetic requests no kernel
            assert all(str(r) == "kernel request" or spec.name == "reconstruct_synthetic"
                       for r in got), spec.name


class TestForcedRedraws:
    """Rejections forced in-process, since no report of the suite rejects a
    draw at seed 42: trisecant_classical's record from run_identity, every
    trial a row of one Table, equals per_trial_record's, every trial drawn
    from its trial_rng Generator."""

    @staticmethod
    def records(monkeypatch, trials=12):
        """run_identity's record, checked against per_trial_record's, and,
        in run_identity, the Counter of the draws' rejections, the number
        of bodies _drive started in each round and the number of rejections
        of each _distinct_points call."""
        import faylab.identities as ids
        rejected, per_call, real = Counter(), [], ids._distinct_points

        def counted(*args):
            pts, errors = real(*args)
            rejected.update(type(ex).__name__ for ex in errors.values())
            per_call.append(len(errors))
            return pts, errors
        monkeypatch.setattr(ids, "_distinct_points", counted)
        sizes = counted_drive(monkeypatch)
        spec = IDENTITIES["trisecant_classical"]
        got = record(run_identity(spec, TestLookAhead.fresh("lemniscatic"),
                                  "lemniscatic", trials, 1.0, 42))
        counts = Counter(rejected), list(sizes), list(per_call)
        want = per_trial_record(spec, TestLookAhead.fresh("lemniscatic"),
                                "lemniscatic", trials, 1.0, 42)
        assert got == want
        return (got, *counts)

    def test_redraw_during_the_draw(self, monkeypatch):
        # half a min_gap between two of 4 points rejects about a third of
        # the draws as they are made; the trials rejected in a round, and
        # only they, start again in the next, until no draw is rejected
        import faylab.identities as ids
        monkeypatch.setattr(ids, "CLOSE_POINTS", 0.5)
        got, rejected, sizes, per_call = self.records(monkeypatch)
        assert rejected["BadTriple"] >= 3 and got["completed"] == 12
        # a round's first draw rejects the trials of the next round; the
        # round's others, over its survivors, reject none
        assert (sizes[0], sizes[1:], per_call[-1]) == (12, [e for e in per_call if e], 0)
        assert sum(sizes) == 12 + rejected["BadTriple"]

    def test_redraw_after_evaluation(self, monkeypatch):
        # the body's denominators reject many evaluated draws, each drawn
        # again in a later round from where its cursor stopped
        import faylab.identities as ids
        monkeypatch.setattr(ids, "NEAR_DIVISOR", 0.5)
        got, rejected, sizes, _ = self.records(monkeypatch)
        assert len(sizes) >= 3 and sum(sizes) > 12 and got["completed"] == 12 and not rejected

    def test_trial_out_of_attempts(self, monkeypatch):
        # 2 min_gap between two of 4 points rejects most draws: a trial
        # with 20 rejected attempts is not completed
        import faylab.identities as ids
        monkeypatch.setattr(ids, "CLOSE_POINTS", 2.0)
        got, rejected, _, _ = self.records(monkeypatch)
        assert 0 < got["completed"] < 12 and not got["pass"] and got["failure"] == ""
        assert rejected["BadTriple"] >= 20 * (12 - got["completed"])

    def test_no_candidate_clear_of_the_branch_locus(self, monkeypatch):
        # a box about e_1 mostly within 0.04 min_gap of it: a point takes
        # hundreds of doubles (the rows widen), and a trial whose point
        # has 200 candidates too close fails the report at that trial
        ctx = TestLookAhead.fresh("lemniscatic")
        e1 = ctx.curve.branch_points[1]
        monkeypatch.setattr(ctx.curve, "box", (e1.real, e1.imag, 0.0196, 0.0196))
        got, rejected, _, _ = self.records(monkeypatch)
        assert 0 < got["completed"] < 12 and math.isinf(got["max_rel_residual"])
        assert got["failure"] == "CurveError: could not sample a point clear of the branch locus"
        assert rejected["CurveError"] >= 1


class TestTrialAxisFailures:
    """Failures forced in-process go through the trial-axis path: the record
    equals per_trial_record's, and in a round where some trials fail, the
    others keep the bits they have in the same round unforced."""

    @staticmethod
    def first_round(spec, cid, trials=12, seed=42):
        """The outcomes of a report's first round: every trial started and
        run together by _drive, drawing from its row of one Table."""
        import faylab.identities as ids
        from faylab.rng import Table
        ctx = TestLookAhead.fresh(cid)
        started = [spec.runner(ctx) for _ in range(trials)]
        return ids._drive(ctx, started, Table(seed, f"{spec.name}|{cid}", range(trials)),
                          np.arange(trials))

    def check(self, spec, cid, force, trials=12, seed=42):
        """The trials force fails in the first round; run_identity's record
        under force equals per_trial_record's, and every other trial keeps
        its unforced bits."""
        unforced = self.first_round(spec, cid, trials, seed)
        assert not any(isinstance(r, Exception) for r in unforced)
        force()
        forced = self.first_round(spec, cid, trials, seed)
        failed = [k for k, r in enumerate(forced) if isinstance(r, Exception)]
        kept = [k for k in range(trials) if k not in failed]
        assert np.array([forced[k] for k in kept]).tobytes() == np.array(
            [unforced[k] for k in kept]).tobytes()
        got = record(run_identity(spec, TestLookAhead.fresh(cid), cid, trials, 1.0, seed))
        assert got == per_trial_record(spec, TestLookAhead.fresh(cid), cid, trials, 1.0, seed)
        assert got["completed"] == trials
        return failed

    def test_close_points(self, monkeypatch):
        # half a min_gap between two of 4 points rejects some draws
        import faylab.identities as ids
        failed = self.check(IDENTITIES["trisecant_classical"], "lemniscatic",
                            lambda: monkeypatch.setattr(ids, "CLOSE_POINTS", 0.5))
        assert 0 < len(failed) < 12

    def test_kernel_refusing_chosen_trials(self, monkeypatch):
        # fay_F refuses every call with a row of trial 2, 5 or 7
        import faylab.identities as ids
        spec, cid = IDENTITIES["trisecant_general_n1"], "lemniscatic"
        ctx = TestLookAhead.fresh(cid)
        marked = [next(request[1][0, 0] for request, _ in trial_steps(
            spec, ctx, trial_rng(42, f"{spec.name}|{cid}", k)) if request[0] is ids.fay_F)
            for k in (2, 5, 7)]
        real = ids.fay_F

        def refusing(ctx, A, B):
            if any((A == row).all(axis=1).any() for row in marked):
                raise NearDivisor("trial refused")
            return real(ctx, A, B)
        failed = self.check(spec, cid,
                            lambda: monkeypatch.setattr(ids, "fay_F", refusing))
        assert failed == [2, 5, 7]

    def test_bundle_near_the_theta_divisor(self, monkeypatch):
        # trial 2's first bundle moved next to the theta divisor: prime_form
        # refuses it after its theta request
        import faylab.identities as ids
        from faylab.curves import lattice_coords
        from faylab.kernels import riemann_constant
        spec, cid = IDENTITIES["prime_form_n1"], "lemniscatic"
        ctx = TestLookAhead.fresh(cid)
        al, be = lattice_coords(riemann_constant(build_context(cid)), ctx.rm)
        near = al % 1.0 + 1e-6 + ctx.rm.omega @ (be % 1.0)
        marked, = next(answer for (fn, *_), answer in trial_steps(
            spec, ctx, trial_rng(42, f"{spec.name}|{cid}", 2)) if fn is ids.random_line_bundle)
        real = ids.random_line_bundle

        def moved(ctx, take, rows, count):
            es, errors = real(ctx, take, rows, count)
            es[(es == marked).all(axis=-1)] = near
            return es, errors
        failed = self.check(spec, cid,
                            lambda: monkeypatch.setattr(ids, "random_line_bundle", moved))
        assert failed == [2]

    def test_singular_minor_in_the_batched_quasideterminant(self, monkeypatch):
        # a condition bound of 0.1 makes some trials' 2 x 2 minors singular
        import faylab.quasidet as quasidet
        failed = self.check(IDENTITIES["quasidet_geometric_n2"], "lemniscatic",
                            lambda: monkeypatch.setattr(quasidet, "_RCOND", 0.1))
        assert 0 < len(failed) < 12

    def test_tangent_reconstruction_refusing_one_trial(self, monkeypatch):
        # trial 2's second section holds x twice: its body refuses the trial
        # (x is not a simple point), which is drawn again in a second round
        import faylab.quartic as quartic
        from faylab.quartic import projective_distance
        spec, cid = IDENTITIES["tangent_reconstruction"], "fermat"
        first, second = [(request, answer) for request, answer in trial_steps(
            spec, TestLookAhead.fresh(cid), trial_rng(42, f"{spec.name}|{cid}", 2))
            if request[0] is quartic.line_section]
        x, marked = first[1][0, 0, 0], second[0][1][0, 0]
        real = quartic.line_section

        def doubled_x(C4, L):
            pts = real(C4, L)
            for i in np.flatnonzero((L == marked).all(axis=1)):
                pts[i, np.argmax(projective_distance(pts[i], x))] = (0.5 + 2j) * x
            return pts
        failed = self.check(spec, cid,
                            lambda: monkeypatch.setattr(quartic, "line_section", doubled_x))
        assert failed == [2]

    def test_singular_minor_in_one_det_ratio_trial(self, monkeypatch):
        # trial 2's check refuses it with SingularMinor, as its oracle guard
        # refuses a small minor: the others go on in the round, and trial 2
        # alone is drawn again in a second round
        import faylab.identities as ids
        from faylab.quartic import normals
        spec = IDENTITIES["quasidet_det_ratio"]
        marked = next(answer for (fn, *_), answer in trial_steps(
            spec, None, trial_rng(42, f"{spec.name}|-", 2)) if fn is normals)[0]
        real = ids._det_ratio

        def singular(z, n, i, j):
            forced = np.flatnonzero((z == marked).all(axis=1))
            yield {t: SingularMinor("forced singular minor") for t in forced}
            return (yield from real(z, n, i, j))
        failed = self.check(spec, "-", lambda: monkeypatch.setattr(ids, "_det_ratio", singular))
        assert failed == [2]
