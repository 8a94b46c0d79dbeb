import json

import pytest

from faylab.cli import main
from faylab.report import IdentityReport, write_report, format_report_line


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
        assert run_cli(["periods", "--curve", "lemniscatic"]) == 0
        out = capsys.readouterr().out
        assert "positive definite: True" in out
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

    @pytest.mark.parametrize("text,reason", [
        ('{"id": "bad", "type": "hyperelliptic"}', "branch_points"),
        ('{"id": "bad", "type": ', "malformed"),
        (json.dumps({"id": "bad", "type": "hyperelliptic",
                     "branch_points": [[k, 0.0] for k in range(9)]}), "9 branch points"),
    ])
    def test_unreadable_entry_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                               text, reason):
        (tmp_path / "bad.json").write_text(text)
        monkeypatch.setenv("FAYLAB_REGISTRY", str(tmp_path))
        assert run_cli(["list-curves"]) == 2
        assert run_cli(["verify", "--identity", "skewsym_n2", "--curve",
                        "lemniscatic", "--trials", "1"]) == 2
        assert reason in capsys.readouterr().err


class TestBadInput:
    @pytest.mark.parametrize("args,reason", [
        (["periods", "--curve", "COLLIDE"], "branch points closer"),
        (["periods", "--curve", "lemniscatic", "--order", "8"], "quadrature_order"),
        (["quasidet-selftest", "--size", "1"], "--size >= 2"),
        (["quasidet-selftest", "--block", "0"], "--block >= 1"),
        (["quasidet-selftest", "--trials", "0"], "--trials >= 1"),
        (["verify", "--identity", "idcor", "--curve", "fermat"],
         "no (identity, curve) pair"),
    ])
    def test_exit_2_with_message(self, tmp_path, capsys, args, reason):
        collide = tmp_path / "collide.json"
        collide.write_text(json.dumps(
            {"id": "collide", "type": "hyperelliptic",
             "branch_points": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}))
        args = [str(collide) if a == "COLLIDE" else a for a in args]
        assert run_cli(args) == 2
        assert reason in capsys.readouterr().err


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
