"""Per-layer metrics from a traced pass, and layer probes on fixed inputs."""

from __future__ import annotations

import time

import numpy as np

from faylab.curves import abel_jacobi
from faylab.kernels import sample_point
from faylab.registry import registry_entries
from faylab.theta import theta, theta_batch, truncation_radius

from tracer import LAYERS
from workloads import build_context

#: the classes run_identity resamples on, reported by name; any other class
#: (a hard failure of the report) counts as "other"
REJECT_CLASSES = ("NearDivisor", "CoincidentPoints", "BadTriple", "SingularMinor")


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Counts and times of the check phase, plus set-up times of the
    setup phase, from a SpanTable with ``bench.setup`` and ``bench.check``."""
    _, setup = spans.root_range("setup")
    _, check = spans.root_range("check")
    in_check = np.zeros(len(spans.name), dtype=bool)
    in_check[check] = True

    def count(name):
        return int(spans.mask(name, check).sum())

    def inclusive(name, within):
        m = spans.mask(name, within)
        if not m.any():
            return 0.0
        # nested calls of the same function are inside their caller's time
        nested = m & (spans.parent >= 0)
        nested[nested] = spans.name[spans.parent[nested]] == spans.names.index(name)
        return float(spans.dur[m & ~nested].sum())

    def self_s(layer):
        return float(spans.self_time[in_check & (spans.layer == layer)].sum())

    out = {}
    # theta
    tb = spans.mask("theta.theta_batch", check)
    rows = int(spans.size[tb].sum())
    out["theta.calls"] = int(tb.sum())
    out["theta.rows"] = rows
    out["theta.rows_per_call"] = _ratio(rows, int(tb.sum()))
    out["theta.self_s"] = self_s("theta")
    out["theta.radius_calls"] = count("theta.truncation_radius")
    out["theta.radius_s"] = inclusive("theta.truncation_radius", check)
    out["theta.us_per_row"] = 1e6 * _ratio(out["theta.self_s"], rows)
    # curves: Abel-Jacobi and period matrices
    aj = spans.mask("curves.abel_jacobi", check)
    out["curves.aj_calls"] = int(aj.sum())
    out["curves.aj_s"] = float(spans.dur[aj].sum())
    out["curves.aj_ms.p50"] = 1e3 * _pct(spans.dur[aj], 50)
    out["curves.aj_ms.p99"] = 1e3 * _pct(spans.dur[aj], 99)
    out["curves.self_s"] = self_s("curves")
    out["curves.period_matrix_s"] = inclusive("curves.period_matrix", setup)
    # kernels
    lookups = spans.mask("kernels.CurveContext.aj", check)
    misses = aj & (spans.parent >= 0)
    misses[misses] = lookups[spans.parent[misses]]
    out["kernels.context_s"] = inclusive("kernels.CurveContext.__init__", setup)
    out["kernels.aj_lookups"] = int(lookups.sum())
    out["kernels.aj_hit_ratio"] = _ratio(int(lookups.sum() - misses.sum()),
                                         int(lookups.sum()))
    out["kernels.fay_F_calls"] = count("kernels.fay_F")
    out["kernels.prime_form_calls"] = count("kernels.prime_form")
    out["kernels.m3_calls"] = (count("kernels.massey_m3_prime")
                               + count("kernels.massey_m3_theta"))
    out["kernels.self_s"] = self_s("kernels")
    # identities: trials are the spec runners, in the runner's own layer
    trial_ids = [i for i, n in enumerate(spans.names) if n.endswith(".trial")]
    trials = in_check & np.isin(spans.name, trial_ids)
    idx = np.flatnonzero(trials)
    rejects = {f"identities.rejects.{c}": 0 for c in REJECT_CLASSES + ("other",)}
    for i in idx:
        cls = spans.errors.get(int(i))
        if cls is not None:
            key = f"identities.rejects.{cls if cls in REJECT_CLASSES else 'other'}"
            rejects[key] += 1
    attempts = len(idx)
    completed = attempts - sum(rejects.values())
    out["identities.attempts"] = attempts
    out["identities.completed"] = completed
    out["identities.useful_ratio"] = _ratio(completed, attempts)
    out.update(rejects)
    out["identities.self_s"] = self_s("identities")
    out["identities.trial_ms.p50"] = 1e3 * _pct(spans.dur[trials], 50)
    out["identities.trial_ms.p99"] = 1e3 * _pct(spans.dur[trials], 99)
    suite = spans.mask("identities.run_suite", check)
    runs = spans.mask("identities.run_identity", check) & (spans.parent >= 0)
    runs[runs] = suite[spans.parent[runs]]
    out["identities.suite_loop_s"] = float(spans.dur[suite].sum() - spans.dur[runs].sum())
    # quartic and quasidet
    out["quartic.line_sections"] = count("quartic.line_section")
    out["quartic.s"] = self_s("quartic")
    out["quartic.build_s"] = inclusive("quartic.PlaneQuartic.__init__", setup)
    out["quasidet.qdet_calls"] = count("quasidet.QuasiMatrix.qdet")
    out["quasidet.s"] = self_s("quasidet")
    # rng
    out["rng.streams"] = count("rng.trial_rng")
    out["rng.s"] = self_s("rng")
    return out


def attributed_share(spans):
    """Share of the check root's time that falls inside a traced layer."""
    root, check = spans.root_range("check")
    in_layers = np.isin(spans.layer[check], LAYERS)
    return float(spans.self_time[check][in_layers].sum() / spans.dur[root])


# ---------------------------------------------------------------------------
# probes on fixed inputs

#: one registry curve per genus, and the fixed input seed of the probes
PROBE_CURVES = {1: "lemniscatic", 2: "g2-real", 3: "g3-real"}
PROBE_SEED = 20240901
PROBE_TOL = 1e-10


def _median_us(fn, args_list):
    times = []
    for args in args_list:
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e6 * float(np.median(times))


def probe_metrics(genera):
    """Single-call theta, radius search alone, theta_batch per row of a
    1000-row batch, and Abel-Jacobi per point, at each genus in ``genera``;
    the probes of the other genera read 0."""
    out = {}
    entries = registry_entries()
    for g in PROBE_CURVES:
        keys = (f"theta.call_us.g{g}", f"theta.radius_us.g{g}",
                f"theta.row_us.g{g}", f"curves.aj_ms.g{g}")
        if g not in genera:
            out.update(dict.fromkeys(keys, 0.0))
            continue
        ctx = build_context(entries[PROBE_CURVES[g]])
        rm = ctx.rm
        rng = np.random.default_rng(PROBE_SEED + g)
        uv = rng.random((1000, 2, g)) - 0.5
        Z = uv[:, 0] + uv[:, 1] @ rm.omega.T
        pts = [sample_point(ctx, rng) for _ in range(40)]
        out[keys[0]] = _median_us(lambda z: theta(z, rm, tol=PROBE_TOL),
                                  [(z,) for z in Z[:200]])
        out[keys[1]] = _median_us(lambda: truncation_radius(rm, PROBE_TOL),
                                  [()] * 200)
        out[keys[2]] = 1e-3 * _median_us(lambda: theta_batch(Z, rm, tol=PROBE_TOL),
                                         [()] * 7)
        out[keys[3]] = 1e-3 * _median_us(lambda p: abel_jacobi(ctx.periods, p, ctx.base),
                                         [(p,) for p in pts])
    return out
