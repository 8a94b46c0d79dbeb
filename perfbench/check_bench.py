"""Tests of the benchmark itself (tracer, layer accounting, gate).

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these out of the repository's default test run; they
trace small passes, so they take about ten seconds.
"""

import importlib
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import faylab  # noqa: E402
from faylab.quartic import PlaneQuartic  # noqa: E402
from faylab.registry import registry_entries  # noqa: E402

from hostspeed import REFERENCE_S, Laps  # noqa: E402
from layers import attributed_share, layer_metrics  # noqa: E402
from tracer import SpanTable, Tracer  # noqa: E402
from workloads import (WORKLOADS, _RunIdentityWorkload, build_context, gate,  # noqa: E402
                       resolve_spec)


class MiniWorkload(_RunIdentityWorkload):
    """One row per layer mix: theta + AJ, quartic, carrier."""

    name = "mini"
    table = (("idcor", "lemniscatic", 6, 1e-09),
             ("canprop", "fermat", 6, 1e-09),
             ("quasidet_sylvester", "-", 6, 1e-09))

    def setup(self):
        entries = registry_entries()
        return {"lemniscatic": build_context(entries["lemniscatic"]),
                "fermat": PlaneQuartic(entries["fermat"]["coefficients"], "fermat")}


def traced_pass(workload, seed=42):
    with Tracer() as tracer:
        tracer.install()
        tracer.wrap_trials(workload.specs())
        env = tracer.in_root("setup", workload.setup)
        reports = tracer.in_root("check", workload.check, env, seed)
    return reports, SpanTable(tracer)


def test_tracer_patches_every_binding_and_restores():
    theta_mod = importlib.import_module("faylab.theta")
    holders = [theta_mod, importlib.import_module("faylab.curves"),
               importlib.import_module("faylab.kernels"),
               importlib.import_module("faylab.identities")]
    original = theta_mod.theta_batch
    original_theta = theta_mod.theta
    assert faylab.theta is original_theta      # the package re-export
    with Tracer() as tracer:
        tracer.install()
        wrapped = theta_mod.theta_batch
        assert wrapped is not original and wrapped.__wrapped__ is original
        for mod in holders:
            assert mod.theta_batch is wrapped, mod.__name__
        assert faylab.theta is theta_mod.theta is not original_theta
    for mod in holders:
        assert mod.theta_batch is original, mod.__name__
    assert faylab.theta is original_theta
    assert resolve_spec("canprop").runner.__name__ == "canprop_residual"


def test_self_times_sum_to_traced_check_time():
    _, spans = traced_pass(MiniWorkload())
    assert 0.97 <= attributed_share(spans) <= 1.0 + 1e-9


def test_two_traced_passes_give_identical_counts():
    runs = [layer_metrics(traced_pass(MiniWorkload())[1]) for _ in range(2)]
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["identities.attempts"] >= 18
    assert counts[0]["quartic.line_sections"] > 0
    assert counts[0]["curves.aj_calls"] > 0


def test_traced_and_untraced_reports_agree():
    mini = MiniWorkload()
    plain = mini.check(mini.setup(), 7)
    traced, _ = traced_pass(mini, seed=7)
    assert gate(mini, plain) == []
    assert gate(mini, traced, plain) == []


def test_gate_rejects_wrong_rows_and_failures():
    mini = MiniWorkload()
    reports = mini.check(mini.setup(), 42)
    reports[0].completed -= 1
    reports[1].passed = False
    problems = gate(mini, reports)
    assert any("pinned table" in p for p in problems)
    assert any("failing report" in p for p in problems)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_table_row_resolves(name):
    for identity, *_ in WORKLOADS[name].table:
        assert resolve_spec(identity).name == identity


def test_laps_scale_each_step_by_the_samples_around_it():
    laps = Laps()
    for _ in range(2):
        time.sleep(0.02)
        laps.lap()
    assert len(laps.samples) == 3 and min(laps.samples) > 0
    for k in range(2):
        assert laps.wall[k] >= 0.02
        assert laps.scaled[k] == pytest.approx(
            laps.wall[k] * 2 * REFERENCE_S / (laps.samples[k] + laps.samples[k + 1]))
