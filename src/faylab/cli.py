"""Command-line harness: curve listing, period diagnostics, identity
verification with machine-readable reports, and quasideterminant
self-tests."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .curves import (HyperellipticCurve, period_matrix, BranchPointCollision,
                     CurveError)
from .identities import (IDENTITIES, IdentitySpec, SuiteConfig, run_identity,
                         run_suite, SuiteError, UnknownIdentity)
from .quasidet import (random_quasimatrix, check_sylvester, check_column_expansion,
                       check_row_homological, check_col_homological)
from .registry import registry_entries, load_curve_entry, RegistryError
from .report import write_report, format_report_line


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
        A, B, pd = period_matrix(curve, quadrature_order=args.order)
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
    sym = np.abs(om - om.T).max() / max(np.abs(om).max(), 1.0)
    eigs = np.linalg.eigvalsh(om.imag)
    print(f"symmetry residual: {sym:.3e}")
    print(f"Im(Omega) eigenvalues: {eigs}")
    print(f"positive definite: {bool(eigs.min() > 0)}")
    return 0


def _cmd_verify(args):
    identities = None if args.identity == "all" else args.identity.split(",")
    curves = None if args.curve == "all" else args.curve.split(",")
    tolerances = {}
    if args.tol is not None:
        names = identities if identities is not None else IDENTITIES
        tolerances = {name: args.tol for name in names}
    config = SuiteConfig(curves=curves, identities=identities, trials=args.trials,
                         master_seed=args.seed, tolerances=tolerances)
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
        write_report(reports, args.out)
    failing = [r for r in reports if not r.passed]
    if failing:
        for r in failing:
            print("failing: " + format_report_line(r), file=sys.stderr)
        return 1
    return 0


def _cmd_quasidet_selftest(args):
    n, k = args.size, args.block
    if n < 2 or k < 1 or args.trials < 1:
        print("error: need --size >= 2, --block >= 1 and --trials >= 1",
              file=sys.stderr)
        return 2

    def runner(env, rng):
        A = random_quasimatrix(rng, n, k)
        r1 = check_sylvester(A, max(1, n - 2))
        r2 = check_column_expansion(A)
        idx = rng.permutation(n)
        jdx = rng.permutation(n)
        r3 = check_row_homological(A, int(idx[0]), int(jdx[0]),
                                   int(idx[1]), int(jdx[1]))
        r4 = check_col_homological(A, int(idx[0]), int(jdx[0]),
                                   int(idx[1]), int(jdx[1]))
        worst = max(r1, r2, r3, r4)
        return worst, worst

    tol = 1e-9
    spec = IdentitySpec(f"quasidet_selftest_n{n}_k{k}", "carrier", runner,
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
    pp.add_argument("--order", type=int, default=32, help="quadrature order")

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
    if args.command == "list-curves":
        return _cmd_list_curves(args)
    if args.command == "periods":
        return _cmd_periods(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "quasidet-selftest":
        return _cmd_quasidet_selftest(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
