import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from faylab import identities
from faylab.cli import main
from faylab.report import IdentityReport, write_report, format_report_line

from conftest import HYPERELLIPTIC


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(args):
    return main(args)


class TestSubcommands:
    def test_list_curves(self, capsys):
        assert run_cli(["list-curves"]) == 0
        out = capsys.readouterr().out
        for cid in ("lemniscatic", "equianharmonic", "g2-real", "g3-real",
                    "fermat", "quartic-generic"):
            assert cid in out

    def test_periods_lemniscatic(self, capsys):
        # every registry hyperelliptic curve; the printed symmetry residual is
        # that of A^-1 B, which period_matrix gates at 1e-8
        for cid in HYPERELLIPTIC:
            assert run_cli(["periods", "--curve", cid]) == 0
            out = capsys.readouterr().out
            assert "positive definite: True" in out
            residual, = re.findall(r"symmetry residual: (\S+)", out)
            assert float(residual) < 1e-8
            if cid == "lemniscatic":
                # Omega = i to 1e-8
                assert "1j" in out.replace(" ", "") or "+1.j" in out.replace(" ", "") \
                    or "0.999999999" in out or "1.000000000" in out

    def test_periods_unknown_curve(self, capsys):
        assert run_cli(["periods", "--curve", "nope"]) == 2

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["no-such-command"])
        assert exc.value.code == 2

    def test_verify_unknown_identity(self, capsys):
        assert run_cli(["verify", "--identity", "bogus", "--curve",
                        "lemniscatic"]) == 2

    def test_verify_single(self, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        code = run_cli(["verify", "--identity", "skewsym_n2", "--curve",
                        "lemniscatic", "--trials", "5", "--seed", "7",
                        "--out", str(out)])
        assert code == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["identity"] == "skewsym_n2"
        assert rec["curve"] == "lemniscatic"
        assert rec["pass"] is True
        assert rec["completed"] == 5

    def test_verify_failing_exit_code(self, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        code = run_cli(["verify", "--identity", "skewsym_n2", "--curve",
                        "lemniscatic", "--trials", "5", "--seed", "7",
                        "--tol", "1e-30", "--out", str(out)])
        assert code == 1
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["pass"] is False

    def test_verify_quartic_identity(self, tmp_path, capsys):
        out = tmp_path / "rep.jsonl"
        code = run_cli(["verify", "--identity", "canprop", "--curve", "fermat",
                        "--trials", "5", "--out", str(out)])
        assert code == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(recs) == 1
        assert recs[0]["identity"] == "canprop"
        assert recs[0]["curve"] == "fermat"
        assert recs[0]["pass"] is True

    def test_quasidet_selftest(self, capsys):
        assert run_cli(["quasidet-selftest", "--size", "3", "--block", "2",
                        "--trials", "10", "--seed", "3"]) == 0
        rec = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rec["pass"] is True


class TestReportFormat:
    def make_report(self, passed=True):
        return IdentityReport(identity_id="x", curve_id="c", trials=3,
                              completed=3, max_abs_residual=1.25e-12,
                              max_rel_residual=3.5e-13, seed=9, tol=1e-8,
                              passed=passed, elapsed_ms=17)

    def test_field_order_fixed(self):
        line = format_report_line(self.make_report())
        keys = list(json.loads(line).keys())
        assert keys == ["identity", "curve", "trials", "completed",
                        "max_abs_residual", "max_rel_residual", "seed",
                        "tol", "pass", "elapsed_ms"]

    def test_roundtrip_floats(self):
        line = format_report_line(self.make_report())
        rec = json.loads(line)
        assert rec["max_abs_residual"] == 1.25e-12
        assert rec["max_rel_residual"] == 3.5e-13

    def test_empty_report_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_report([], path)
        assert path.read_text() == ""

    def test_env_registry_dir(self, tmp_path, monkeypatch, capsys):
        extra = {"id": "my-curve", "type": "hyperelliptic",
                 "branch_points": [[0.0, 0.0], [2.0, 0.0], [-2.0, 0.0]]}
        (tmp_path / "my-curve.json").write_text(json.dumps(extra))
        monkeypatch.setenv("FAYLAB_REGISTRY", str(tmp_path))
        assert run_cli(["list-curves"]) == 0
        assert "my-curve" in capsys.readouterr().out

    def test_periods_from_path(self, tmp_path, capsys):
        extra = {"id": "file-curve", "type": "hyperelliptic",
                 "branch_points": [[0.0, 0.0], [1.5, 0.0], [-1.5, 0.0]]}
        path = tmp_path / "file-curve.json"
        path.write_text(json.dumps(extra))
        assert run_cli(["periods", "--curve", str(path)]) == 0
        assert "positive definite: True" in capsys.readouterr().out


class TestBadCurves:
    def test_colliding_branch_points_fail_only_their_reports(self, tmp_path,
                                                              monkeypatch, capsys):
        entry = {"id": "collide", "type": "hyperelliptic",
                 "branch_points": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}
        (tmp_path / "collide.json").write_text(json.dumps(entry))
        monkeypatch.setenv("FAYLAB_REGISTRY", str(tmp_path))
        out = tmp_path / "rep.jsonl"
        code = run_cli(["verify", "--identity", "skewsym_n2,quasidet_det_ratio",
                        "--curve", "collide,lemniscatic", "--trials", "3",
                        "--out", str(out)])
        assert code == 1
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        status = {(r["identity"], r["curve"]): (r["pass"], r["completed"])
                  for r in recs}
        assert status == {("skewsym_n2", "collide"): (False, 0),
                          ("skewsym_n2", "lemniscatic"): (True, 3),
                          ("quasidet_det_ratio", "-"): (True, 3)}
        err = capsys.readouterr().err.splitlines()
        at = next(k for k, line in enumerate(err) if '"curve": "collide"' in line)
        assert err[at + 1] == ("  reason: BranchPointCollision: branch points "
                               "closer than 1e-8 (min gap 0.00e+00)")

    def test_spread_branch_points_fail_fast(self, tmp_path, monkeypatch, capsys):
        # a b-cycle past a branch point 1e6 away would need about 2.6e8
        # quadrature nodes: one error line from periods, failing reports
        # for that curve only from verify
        entry = {"id": "spread", "type": "hyperelliptic",
                 "branch_points": [[0.0, 0.0], [1.0, 0.0], [1e6, 0.0]]}
        (tmp_path / "spread.json").write_text(json.dumps(entry))
        monkeypatch.setenv("FAYLAB_REGISTRY", str(tmp_path))
        assert run_cli(["periods", "--curve", "spread"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: path needs")
        out = tmp_path / "rep.jsonl"
        assert run_cli(["verify", "--identity", "skewsym_n2", "--curve",
                        "spread,lemniscatic", "--trials", "3",
                        "--out", str(out)]) == 1
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["curve"], r["pass"], r["completed"]) for r in recs] == [
            ("spread", False, 0), ("lemniscatic", True, 3)]
        assert "  reason: PathTooLong: path needs" in capsys.readouterr().err

    def test_user_quartic_runs_the_quartic_identities(self, tmp_path, monkeypatch,
                                                      capsys):
        # the Klein quartic; a user quartic takes the genus-3 rows
        entry = {"id": "my-quartic", "type": "plane_quartic",
                 "coefficients": {"X0^3*X1": [1, 0], "X1^3*X2": [1, 0],
                                  "X0*X2^3": [1, 0]}}
        (tmp_path / "my-quartic.json").write_text(json.dumps(entry))
        monkeypatch.setenv("FAYLAB_REGISTRY", str(tmp_path))
        out = tmp_path / "rep.jsonl"
        assert run_cli(["verify", "--curve", "my-quartic", "--trials", "2",
                        "--out", str(out)]) == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert sorted(r["identity"] for r in recs if r["curve"] == "my-quartic") == [
            "canprop", "cor2_three_term", "ratio_dual", "reconstruct_synthetic",
            "tangent_reconstruction"]
        assert run_cli(["verify", "--identity", "canprop", "--curve",
                        "my-quartic", "--trials", "2"]) == 0

    @pytest.mark.parametrize("text,reason", [
        ('{"id": "bad", "type": "hyperelliptic"}', "branch_points"),
        ('{"id": "bad", "type": ', "malformed"),
        (json.dumps({"id": "bad", "type": "hyperelliptic",
                     "branch_points": [[k, 0.0] for k in range(9)]}), "9 branch points"),
        (json.dumps({"id": "bad", "type": "hyperelliptic",
                     "branch_points": [[0.0, 0.0], [float("nan"), 0.0], [1.0, 0.0]]}),
         "non-finite branch point"),
        (json.dumps({"id": "bad", "type": "plane_quartic",
                     "coefficients": {"X0^4": [1.0, 0.0], "X1^4": [float("inf"), 0.0],
                                      "X2^4": [1.0, 0.0]}}),
         "non-finite coefficient"),
        (json.dumps({"id": 5, "type": "hyperelliptic",
                     "branch_points": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]}),
         "id must be a non-empty string"),
        (json.dumps({"id": "", "type": "hyperelliptic",
                     "branch_points": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]}),
         "id must be a non-empty string"),
        (json.dumps({"id": "-", "type": "hyperelliptic",
                     "branch_points": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]}),
         "other than '-'"),
    ])
    def test_unreadable_entry_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                               text, reason):
        (tmp_path / "bad.json").write_text(text)
        monkeypatch.setenv("FAYLAB_REGISTRY", str(tmp_path))
        assert run_cli(["list-curves"]) == 2
        assert run_cli(["verify", "--identity", "skewsym_n2", "--curve",
                        "lemniscatic", "--trials", "1"]) == 2
        assert reason in capsys.readouterr().err

    def test_carrier_id_is_not_a_curve_id(self, tmp_path, monkeypatch, capsys):
        # "-" names the carrier checks' slot in the suite, so no entry may
        # take it, nor be selected by it
        (tmp_path / "dash.json").write_text(json.dumps(
            {"id": "-", "type": "hyperelliptic",
             "branch_points": [[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]}))
        monkeypatch.setenv("FAYLAB_REGISTRY", str(tmp_path))
        assert run_cli(["verify", "--curve", "-", "--trials", "1"]) == 2
        assert run_cli(["periods", "--curve", str(tmp_path / "dash.json")]) == 2
        assert capsys.readouterr().err.count("other than '-'") == 2


class TestBadInput:
    @pytest.mark.parametrize("args,reason", [
        (["periods", "--curve", "COLLIDE"], "branch points closer"),
        # a trial count past MAX_TRIALS is refused before any draw table is built
        (["verify", "--identity", "skewsym_n2", "--curve", "lemniscatic",
          "--trials", str(10**12)], "trials must be >= 1 and <= 10000"),
        (["quasidet-selftest", "--size", "1"], "--size >= 2"),
        (["quasidet-selftest", "--block", "0"], "--block >= 1"),
        (["quasidet-selftest", "--trials", "0"], "--trials >= 1"),
        (["verify", "--identity", "idcor", "--curve", "fermat"],
         "no (identity, curve) pair"),
        (["periods", "--curve", "NAN"], "non-finite branch point"),
        (["quasidet-selftest", "--trials", str(10**12)], "--trials >= 1 and <= 10000"),
        (["quasidet-selftest", "--size", "17"], "--size >= 2 and <= 16"),
        (["quasidet-selftest", "--block", "9"], "--block >= 1 and <= 8"),
        (["verify", "--identity", "skewsym_n2", "--curve", "lemniscatic",
          "--trials", "1", "--out", "DIR"], "cannot write --out"),
        (["verify", "--identity", "skewsym_n2", "--curve", "lemniscatic",
          "--trials", "1", "--out", "MISSING"], "cannot write --out"),
        (["verify", "--identity", "skewsym_n2", "--curve", "lemniscatic",
          "--trials", "1", "--seed", str(2**64 + 1)], "seed must be >= 0"),
        (["verify", "--identity", "skewsym_n2", "--curve", "lemniscatic",
          "--trials", "1", "--seed", "-1"], "seed must be >= 0"),
        (["verify", "--identity", "skewsym_n2", "--curve", "lemniscatic",
          "--trials", "1", "--tol", "1e400"], "tol must be positive and finite"),
        (["quasidet-selftest", "--trials", "1", "--seed", "-1"], "--seed >= 0"),
        (["quasidet-selftest", "--trials", "1", "--seed", str(2**64)], "--seed >= 0"),
        # a first argument NAME=KEY sets the variable NAME to the path of KEY
        (["FAYLAB_REGISTRY=SHORT", "list-curves"], "short/q.json: malformed entry"),
        (["FAYLAB_REGISTRY=LONG", "list-curves"], "long/q.json: malformed entry"),
        (["FAYLAB_REGISTRY=MISSING", "list-curves"], "is not a directory"),
        (["FAYLAB_REGISTRY=NAN", "verify", "--identity", "skewsym_n2", "--curve",
          "lemniscatic", "--trials", "1"], "is not a directory"),
        # the largest carriers take as many normals in all as 10,000 default trials
        (["quasidet-selftest", "--size", "16", "--block", "8", "--trials", "22"],
         "--trials >= 1 and <= 21"),
        # a repeated id would run its reports twice
        (["verify", "--identity", "idcor,idcor", "--curve", "lemniscatic", "--trials", "3"],
         "identity 'idcor' given twice"),
        (["verify", "--identity", "idcor", "--curve", "lemniscatic,lemniscatic",
          "--trials", "3"], "curve 'lemniscatic' given twice"),
    ])
    def test_exit_2_with_message(self, tmp_path, monkeypatch, capsys, args, reason):
        # no report's draw table is built
        monkeypatch.setattr(identities, "Table", None)
        collide = tmp_path / "collide.json"
        collide.write_text(json.dumps(
            {"id": "collide", "type": "hyperelliptic",
             "branch_points": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}))
        nan = tmp_path / "nan.json"
        nan.write_text(json.dumps(
            {"id": "nan", "type": "hyperelliptic",
             "branch_points": [[0.0, 0.0], [float("nan"), 0.0], [1.0, 0.0]]}))
        # plane-quartic coefficients that are not a [re, im] pair
        for key, bad in (("short", [1.0]), ("long", [1.0, 0.0, 7.0])):
            (tmp_path / key).mkdir()
            (tmp_path / key / "q.json").write_text(json.dumps(
                {"id": "q", "type": "plane_quartic",
                 "coefficients": {"X0^4": bad, "X1^4": [1.0, 0.0], "X2^4": [1.0, 0.0]}}))
        paths = {"COLLIDE": str(collide), "NAN": str(nan), "DIR": str(tmp_path),
                 "MISSING": str(tmp_path / "no-such-dir" / "rep.jsonl"),
                 "SHORT": str(tmp_path / "short"), "LONG": str(tmp_path / "long")}
        if "=" in args[0]:
            name, key = args[0].split("=")
            monkeypatch.setenv(name, paths[key])
            args = args[1:]
        assert run_cli([paths.get(a, a) for a in args]) == 2
        captured = capsys.readouterr()
        assert reason in captured.err
        # rejected before any report ran
        assert "[pass]" not in captured.out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_out_write_exits_2():
    # /dev/full opens for append, so the suite runs; its write then fails
    # with ENOSPC, which ends in a message, not a traceback
    proc = subprocess.run(
        [sys.executable, "-m", "faylab.cli", "verify", "--identity", "idcor", "--curve",
         "lemniscatic", "--trials", "1", "--out", "/dev/full"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 2
    assert "error: cannot write --out:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_import_loads_no_scipy():
    # numpy is the one runtime dependency
    code = ("import sys, faylab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout
    assert out.strip() == "[]"


class TestDeterminism:
    def test_verify_byte_identical(self, tmp_path):
        reps = []
        for run in range(2):
            out = tmp_path / f"run{run}.jsonl"
            code = run_cli(["verify", "--identity",
                            "skewsym_n2,divisor_symmetric_n1,quasidet_det_ratio",
                            "--curve", "lemniscatic", "--trials", "8",
                            "--seed", "42", "--out", str(out)])
            assert code == 0
            lines = out.read_text().splitlines()
            stripped = []
            for line in lines:
                rec = json.loads(line)
                rec.pop("elapsed_ms")
                stripped.append(json.dumps(rec, sort_keys=False))
            reps.append("\n".join(stripped))
        assert reps[0] == reps[1]
