"""Command-line harness: curve listing, period diagnostics, identity
verification with machine-readable reports, and quasideterminant
self-tests."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .curves import (HyperellipticCurve, period_matrix, BranchPointCollision,
                     CurveError)
from .identities import (IdentitySpec, SuiteConfig, run_identity, run_suite, MAX_TRIALS,
                         SuiteError, UnknownIdentity, _runner, _carrier, _homological, doubles)
from .quartic import normals
from .quasidet import check_sylvester, check_column_expansion
from .registry import registry_entries, load_curve_entry, RegistryError
from .report import write_report, format_report_line
from .rng import SEED_LIMIT


def _cmd_list_curves(args):
    try:
        entries = registry_entries()
    except RegistryError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    for cid, entry in sorted(entries.items()):
        print(f"{cid:20s} {entry['type']:13s}  genus {entry['genus']}")
    return 0


def _cmd_periods(args):
    try:
        entry = load_curve_entry(args.curve)
    except RegistryError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    if entry["type"] != "hyperelliptic":
        print("error: periods are computed for hyperelliptic curves", file=sys.stderr)
        return 2
    try:
        curve = HyperellipticCurve(entry["branch_points"], entry["id"])
        A, B, pd = period_matrix(curve)
    except (BranchPointCollision, ValueError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except CurveError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    om = pd.rm.omega
    np.set_printoptions(precision=12, suppress=False)
    print(f"curve {entry['id']} (genus {curve.genus})")
    print("Omega =")
    print(om)
    raw = np.linalg.solve(A, B)        # Omega as period_matrix gates it, before pd.rm
    sym = np.abs(raw - raw.T).max() / max(np.abs(raw).max(), 1.0)
    eigs = np.linalg.eigvalsh(om.imag)
    print(f"symmetry residual: {sym:.3e}")
    print(f"Im(Omega) eigenvalues: {eigs}")
    print(f"positive definite: {bool(eigs.min() > 0)}")
    return 0


def _cmd_verify(args):
    identities = None if args.identity == "all" else args.identity.split(",")
    curves = None if args.curve == "all" else args.curve.split(",")
    config = SuiteConfig(curves=curves, identities=identities, trials=args.trials,
                         master_seed=args.seed, tol=args.tol)
    if args.out:
        # fail before the suite runs, not after it: opening for append
        # leaves an existing report as it is
        try:
            open(args.out, "a").close()
        except OSError as ex:
            print(f"error: cannot write --out: {ex}", file=sys.stderr)
            return 2
    def progress(rep):
        status = "pass" if rep.passed else "FAIL"
        print(f"[{status}] {rep.identity_id:28s} {rep.curve_id:16s} "
              f"trials {rep.completed}/{rep.trials} "
              f"max_rel {rep.max_rel_residual:.3e} tol {rep.tol:g} "
              f"({rep.elapsed_ms} ms)")
    try:
        reports = run_suite(config, progress=progress)
    except (UnknownIdentity, SuiteError, RegistryError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    if not reports:
        print("error: no (identity, curve) pair selected", file=sys.stderr)
        return 2
    if args.out:
        try:
            write_report(reports, args.out)
        except OSError as ex:
            print(f"error: cannot write --out: {ex}", file=sys.stderr)
            return 2
    failing = [r for r in reports if not r.passed]
    if failing:
        for r in failing:
            print("failing: " + format_report_line(r), file=sys.stderr)
            if r.failure:
                print(f"  reason: {r.failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_quasidet_selftest(args):
    n, k = args.size, args.block
    # a trial draws n^2 k^2 normals: in all, no more than MAX_TRIALS trials at n = 3, k = 2
    most = min(MAX_TRIALS, 36 * MAX_TRIALS // max(1, n * n * k * k))
    if not (2 <= n <= 16 and 1 <= k <= 8 and 0 <= args.seed < SEED_LIMIT
            and 1 <= args.trials <= most):
        print("error: need --size >= 2 and <= 16, --block >= 1 and <= 8, --trials >= 1 and "
              f"<= {most} at this size and block, and --seed >= 0 and < {SEED_LIMIT}",
              file=sys.stderr)
        return 2

    def body(env):
        z = yield normals, n * n * k * k
        u = yield doubles, 4
        A = _carrier(z, n, k)
        r = np.max([check_sylvester(A, max(1, n - 2)), check_column_expansion(A),
                    _homological(A, u)], axis=0)
        return r, r

    tol = 1e-9
    spec = IdentitySpec(f"quasidet_selftest_n{n}_k{k}", "carrier", _runner(body),
                        {"-": (args.trials, tol)})
    rep = run_identity(spec, None, "-", args.trials, tol, args.seed)
    print(format_report_line(rep))
    return 0 if rep.passed else 1


def build_parser():
    p = argparse.ArgumentParser(prog="fay-lab",
                                description="identity verification on curves "
                                            "of genus 1-3")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list-curves", help="list registry curves")

    pp = sub.add_parser("periods", help="period matrix diagnostics")
    pp.add_argument("--curve", required=True, help="registry id or JSON path")

    pv = sub.add_parser("verify", help="run identity checks")
    pv.add_argument("--identity", default="all",
                    help="identity name(s, comma separated) or 'all'")
    pv.add_argument("--curve", default="all",
                    help="curve id(s, comma separated) or 'all'")
    pv.add_argument("--trials", type=int, default=None,
                    help="override per-identity default trial counts")
    pv.add_argument("--seed", type=int, default=42, help="master seed")
    pv.add_argument("--tol", type=float, default=None,
                    help="override tolerance for the named identities")
    pv.add_argument("--out", default=None, help="report output path")

    pq = sub.add_parser("quasidet-selftest", help="carrier-level identities")
    pq.add_argument("--size", type=int, default=3)
    pq.add_argument("--block", type=int, default=2)
    pq.add_argument("--trials", type=int, default=100)
    pq.add_argument("--seed", type=int, default=42)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    return {"list-curves": _cmd_list_curves, "periods": _cmd_periods, "verify": _cmd_verify,
            "quasidet-selftest": _cmd_quasidet_selftest}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
