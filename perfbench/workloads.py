"""The benchmark's workloads: pinned report tables, environment set-up and
one check pass each, driven through fay-lab's public entry points
(``run_suite``, ``run_identity``, ``period_matrix``, ``CurveContext`` and
``PlaneQuartic``).

A pass is deterministic in the master seed: every pass of a run builds
fresh environments (so no Abel-Jacobi cache survives from one pass to the
next) and must produce the same report records apart from ``elapsed_ms``.
"""

from __future__ import annotations

import importlib
import math

from faylab.curves import HyperellipticCurve, period_matrix
from faylab.identities import IDENTITIES, SuiteConfig, run_identity, run_suite
from faylab.kernels import CurveContext
from faylab.quartic import PlaneQuartic
from faylab.registry import registry_entries
from faylab.report import report_record


def resolve_spec(name):
    """The identity spec called ``name``: the main table first, then the
    quartic table, so that merging the two tables breaks no workload."""
    if name in IDENTITIES:
        return IDENTITIES[name]
    quartic = importlib.import_module("faylab.quartic")
    return getattr(quartic, "QUARTIC_IDENTITIES", {})[name]


def build_context(entry):
    curve = HyperellipticCurve(entry["branch_points"], entry["id"])
    _, _, periods = period_matrix(curve)
    return CurveContext(curve, periods)


# (identity, curve, trials, tol); every trial must complete.

SUITE_CURVES = ("lemniscatic", "equianharmonic", "g2-real")

SUITE_TABLE = (
    ("cross_formula_m3", "lemniscatic", 200, 1e-08),
    ("cross_formula_m3", "equianharmonic", 200, 1e-08),
    ("cross_formula_m3", "g2-real", 200, 1e-08),
    ("divisor_symmetric_n1", "lemniscatic", 100, 1e-09),
    ("divisor_symmetric_n1", "equianharmonic", 100, 1e-09),
    ("divisor_symmetric_n1", "g2-real", 50, 1e-08),
    ("divisor_symmetric_n2", "lemniscatic", 50, 1e-09),
    ("divisor_symmetric_n2", "equianharmonic", 50, 1e-09),
    ("divisor_symmetric_n2", "g2-real", 50, 1e-08),
    ("idcor", "lemniscatic", 100, 1e-09),
    ("idcor", "equianharmonic", 100, 1e-09),
    ("idcor", "g2-real", 50, 1e-08),
    ("maincor_kernel", "lemniscatic", 100, 1e-08),
    ("maincor_kernel", "equianharmonic", 100, 1e-08),
    ("prime_form_n1", "lemniscatic", 200, 1e-08),
    ("prime_form_n1", "equianharmonic", 200, 1e-08),
    ("prime_form_n1", "g2-real", 100, 1e-08),
    ("prime_form_n2", "g2-real", 50, 1e-07),
    ("quasidet_geometric_diag", "lemniscatic", 50, 1e-09),
    ("quasidet_geometric_diag", "equianharmonic", 50, 1e-09),
    ("quasidet_geometric_n1", "lemniscatic", 100, 1e-09),
    ("quasidet_geometric_n1", "equianharmonic", 100, 1e-09),
    ("quasidet_geometric_n1", "g2-real", 50, 1e-08),
    ("quasidet_geometric_n2", "lemniscatic", 50, 1e-09),
    ("quasidet_geometric_n2", "equianharmonic", 50, 1e-09),
    ("quasidet_geometric_n2", "g2-real", 50, 1e-08),
    ("residue_n3", "lemniscatic", 100, 1e-08),
    ("residue_n3", "equianharmonic", 100, 1e-08),
    ("theta_derivative_divisor", "lemniscatic", 3, 1e-06),
    ("theta_derivative_divisor", "equianharmonic", 3, 1e-06),
    ("theta_derivative_divisor", "g2-real", 3, 1e-06),
    ("trisecant_classical", "lemniscatic", 200, 1e-09),
    ("trisecant_classical", "equianharmonic", 200, 1e-09),
    ("trisecant_classical", "g2-real", 100, 1e-08),
    ("trisecant_general_n1", "lemniscatic", 200, 1e-09),
    ("trisecant_general_n1", "equianharmonic", 200, 1e-09),
    ("trisecant_general_n1", "g2-real", 100, 1e-08),
    ("trisecant_general_n2", "lemniscatic", 50, 1e-09),
    ("trisecant_general_n2", "equianharmonic", 50, 1e-09),
    ("trisecant_general_n2", "g2-real", 50, 1e-07),
    ("trisecant_general_n3", "lemniscatic", 50, 1e-09),
    ("trisecant_general_n3", "equianharmonic", 50, 1e-09),
    ("trisecant_general_n3", "g2-real", 50, 1e-07),
)

THETA_G3_TABLE = tuple(
    (name, "g3-real", 100, 1e-08)
    for name in ("quasidet_geometric_n1", "quasidet_geometric_n2", "idcor",
                 "prime_form_n1", "cross_formula_m3"))

QUARTIC_CARRIER_TABLE = (
    ("canprop", "fermat", 200, 1e-09),
    ("canprop", "quartic-generic", 100, 1e-08),
    ("cor2_three_term", "fermat", 100, 1e-09),
    ("cor2_three_term", "quartic-generic", 50, 1e-08),
    ("ratio_dual", "fermat", 200, 1e-09),
    ("ratio_dual", "quartic-generic", 100, 1e-08),
    ("tangent_reconstruction", "fermat", 100, 1e-08),
    ("tangent_reconstruction", "quartic-generic", 100, 1e-08),
    ("reconstruct_synthetic", "fermat", 100, 1e-10),
    ("reconstruct_synthetic", "quartic-generic", 100, 1e-10),
    ("quasidet_det_ratio", "-", 100, 1e-09),
    ("quasidet_sylvester", "-", 100, 1e-09),
    ("quasidet_column_expansion", "-", 100, 1e-09),
    ("quasidet_homological", "-", 100, 1e-09),
)


class Workload:
    """A pinned table plus how to build its environments and run it once."""

    name = ""
    table = ()
    genera = ()          # genera whose layer probes are reported here

    def setup(self):
        """Build the environments the check runs on."""
        raise NotImplementedError

    def check(self, env, seed, progress=None):
        """Run every row of the table once; return the reports in order.
        ``progress(report)`` is called as each report is made."""
        raise NotImplementedError

    def specs(self):
        return [resolve_spec(name) for name in sorted({row[0] for row in self.table})]


class SuiteG12(Workload):
    """``run_suite`` over two genus-1 curves and one genus-2 curve."""

    name = "suite-g12"
    table = SUITE_TABLE
    genera = (1, 2)

    def setup(self):
        # run_suite builds its own contexts; these are the same builds,
        # timed on their own so that set-up cost shows as setup_s.
        entries = registry_entries()
        return {cid: build_context(entries[cid]) for cid in SUITE_CURVES}

    def check(self, env, seed, progress=None):
        config = SuiteConfig(curves=list(SUITE_CURVES),
                             identities=sorted({row[0] for row in SUITE_TABLE}),
                             master_seed=seed)
        return run_suite(config, progress=progress)


class _RunIdentityWorkload(Workload):
    """``run_identity`` over the table with pinned trials and tolerances."""

    def check(self, env, seed, progress=None):
        reports = []
        for name, cid, trials, tol in self.table:
            reports.append(run_identity(resolve_spec(name), env.get(cid), cid,
                                        trials, tol, seed))
            if progress:
                progress(reports[-1])
        return reports


class ThetaG3(_RunIdentityWorkload):
    name = "theta-g3"
    table = THETA_G3_TABLE
    genera = (3,)

    def setup(self):
        return {"g3-real": build_context(registry_entries()["g3-real"])}


class QuarticCarrier(_RunIdentityWorkload):
    name = "quartic-carrier"
    table = QUARTIC_CARRIER_TABLE

    def setup(self):
        entries = registry_entries()
        return {cid: PlaneQuartic(entries[cid]["coefficients"], cid)
                for cid in ("fermat", "quartic-generic")}


WORKLOADS = {w.name: w for w in (SuiteG12(), ThetaG3(), QuarticCarrier())}


# ---------------------------------------------------------------------------
# correctness gate


def comparable(report):
    """The report record without its wall time."""
    rec = report_record(report)
    del rec["elapsed_ms"]
    return rec


def gate(workload, reports, reference=None):
    """Problems with one pass's reports, as readable lines (empty if none).

    Every report must pass, the (identity, curve, trials, completed, tol)
    rows must equal the pinned table with every trial completed, and, given
    a reference pass, every record must equal it apart from elapsed_ms.
    """
    problems = []
    got = [(r.identity_id, r.curve_id, r.trials, r.completed, r.tol) for r in reports]
    want = [(name, cid, trials, trials, tol) for name, cid, trials, tol in workload.table]
    if got != want:
        missing = [row for row in want if row not in got]
        extra = [row for row in got if row not in want]
        problems.append(f"report rows differ from the pinned table: "
                        f"missing {missing}, unexpected {extra}")
    for r in reports:
        if not r.passed:
            problems.append(f"failing report: {r.identity_id} on {r.curve_id} "
                            f"(completed {r.completed}/{r.trials}, "
                            f"max_rel {r.max_rel_residual:.3e}, tol {r.tol:g})")
    if reference is not None:
        if [comparable(r) for r in reports] != [comparable(r) for r in reference]:
            problems.append("report records differ between passes of the same seed")
    return problems


def tol_margins(reports):
    """log10(tol / max_rel_residual) of each report with a nonzero residual."""
    return [math.log10(r.tol / r.max_rel_residual)
            for r in reports if r.max_rel_residual > 0]
