"""Smoke-size self-test of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py

It checks the seeded generator, the span arithmetic, and one tiny
workload run in this process, traced and untraced, through the same
code the benchmark's workload processes use.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from plans import WORKLOADS, loop_bound_params, make_plan  # noqa: E402
from repro.obs.metrics import fresh_registry  # noqa: E402
from repro.swifi import differential  # noqa: E402
from repro.workloads import get_workload  # noqa: E402
from run import check, end_to_end  # noqa: E402
from tracing import SpanRecorder  # noqa: E402
from workload import Run  # noqa: E402

SMOKE = {
    "hang-mix": dict(background_masks=1, hangs=(("CP", 0), ("PNS", 0), ("SAD", 0))),
    "fp-replay": dict(masks_per_site=1, names=("CP", "RPES")),
    "barrier-pool": dict(masks_per_site=1),
}


def _fingerprint(plan):
    return [(c.label, [(s.site, s.mask, s.thread, s.occurrence) for s in c.specs])
            for c in plan.campaigns]


@pytest.mark.parametrize("name", WORKLOADS)
def test_plan_is_a_function_of_the_seed(name):
    assert _fingerprint(make_plan(name, 3)) == _fingerprint(make_plan(name, 3))
    assert _fingerprint(make_plan(name, 3)) != _fingerprint(make_plan(name, 4))


def test_hang_stratum_size_does_not_depend_on_the_seed():
    for seed in (1, 2, 3):
        labels = [s.label for c in make_plan("hang-mix", seed).campaigns for s in c.specs]
        assert sum(":hang:" in label for label in labels) == 2
    assert loop_bound_params(get_workload("CP").kernel) == ["numatoms"]


def test_self_time_subtracts_children():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("outer"):          # 0 .. 5
        with rec.span("inner"):      # 1 .. 2
            pass
        with rec.span("inner"):      # 3 .. 4
            pass
    assert rec.self_times() == [3.0, 1.0, 1.0]
    assert [s["parent"] for s in rec.spans] == [None, 0, 0]


def _run(name, tmp_path, trace):
    fresh_registry()
    args = argparse.Namespace(trace=trace, t0=time.time(),
                              work_dir=str(tmp_path / f"{name}-{int(trace)}"))
    run = Run(args, plan=make_plan(name, 2, **SMOKE[name]))
    try:
        return run.execute()
    finally:
        if run.tracing is not None:
            run.tracing.uninstall()


@pytest.mark.parametrize("name", ["hang-mix", "fp-replay"])
def test_smoke_workload_traced_matches_untraced(name, tmp_path):
    get_engine = differential.get_engine
    plain = _run(name, tmp_path, trace=False)
    traced = _run(name, tmp_path, trace=True)
    assert differential.get_engine is get_engine  # wrappers removed again

    # smoke sizes keep the determinism checks, not the workload properties
    for out in (plain, traced):
        assert out["errors"] == [] and all(out["checks"].values()), out["checks"]
    assert plain["summary_digests"] == traced["summary_digests"]
    assert plain["report_digest"] == traced["report_digest"]

    layers = traced["layers"]
    served = sum(layers[f"swifi.differential.replay.{c}.n"]
                 + layers[f"gpu.runtime.full.{c}.n"] for c in ("ok", "crash", "hang"))
    assert served == traced["trials"] == plain["trials"]
    assert layers["swifi.differential.golden_records"] == traced["golden_records"]
    assert layers["core.profiler.train_launches"] == traced["train_launches"]
    assert layers["unattributed_s"] >= 0.0


def test_end_to_end_medians_and_reference_check():
    reps = [{"run_s": r, "setup_s": 1.0, "trials": 10, "campaign_s": 2.0,
             "peak_rss_mb": 50.0, "checks": {"ok": True}, "properties": {}, "errors": [],
             "summary_digests": {"A": "x"}, "report_digest": "y"} for r in (3.0, 5.0, 4.0)]
    metrics = end_to_end(reps, [{"setup_s": 2.0}])
    assert metrics == {"run_s": 4.0, "setup_s": 1.0, "trials_per_s": 5.0,
                       "peak_rss_mb": 50.0}
    assert check(reps, {"summaries": {"A": "x"}, "report": "y"}, record=False)[1] == 0
    assert check(reps, {"summaries": {"A": "z"}, "report": "y"}, record=False)[1] == 3
