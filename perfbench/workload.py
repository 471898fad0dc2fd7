"""One run of one benchmark workload, in a fresh process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/workload.py --plan plan.pickle \
        --work-dir perfbench/.work/x --out result.json [--trace] [--setup-only]

The process plays one closed-loop client: it loads the seeded plan that
``run.py`` generated (:mod:`plans`; generating it is harness work, so
it happens before this process starts), builds the plan's programs,
trains them on input seed 0, records the
first golden run, then runs every campaign back to back, journaled
under ``--work-dir``, and finishes with ``build_report`` (plus a resume
from the journal where the plan asks for one).  Caches start cold,
because every ``repro run`` pays them.

It writes one JSON document to ``--out``: wall-clock stamps
(``time.time()``, so the parent can measure from before it spawned
this process), exact counts, reference digests, check results and,
with ``--trace``, the per-layer metrics of :mod:`tracing`.
``--setup-only`` stops after set-up; the parent uses it to sample
set-up time more than once per run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import pickle
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from repro.core.program import HauberkProgram  # noqa: E402
from repro.obs.events import use_tracer  # noqa: E402
from repro.obs.metrics import get_registry  # noqa: E402
from repro.obs.report import build_report  # noqa: E402
from repro.swifi import CampaignOptions, campaign_fingerprint, run_campaign  # noqa: E402
from repro.swifi.differential import DifferentialEngine  # noqa: E402
from repro.swifi.parallel import build_trial_runner  # noqa: E402
from repro.workloads import get_workload  # noqa: E402
from tracing import Tracing, layer_metrics, trial_class  # noqa: E402

MODE = "fift"
#: Input seed every program is trained on.
TRAIN_SEED = 0


def digest(obj) -> str:
    """Stable digest of a JSON-serialisable object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(report: dict) -> str:
    """Digest of ``build_report(include_timing=False)``.

    Left out: the run directory's path, which differs per process, and
    the served-by attribution, which exists only in profiled journals,
    so traced and untraced runs share one reference.  Served-by counts
    come from the metrics registry instead (:func:`served_counts`);
    ``fp-replay`` and ``barrier-pool`` check them in their self-checks.
    """
    campaigns = [{k: v for k, v in c.items() if k != "differential"}
                 for c in report["campaigns"]]
    return digest({"version": report["version"], "campaigns": campaigns})


def served_counts() -> dict:
    """Trials by served-by tag (``diff`` / ``full:<reason>``), from the metrics."""
    reg = get_registry()
    out = {}
    hits = reg.get("repro_swifi_diff_hits_total")
    if hits is not None and hits.value():
        out["diff"] = int(hits.value())
    misses = reg.get("repro_swifi_diff_fallbacks_total")
    for labels in misses.labelsets() if misses is not None else ():
        out[f"full:{labels['reason']}"] = int(misses.value(**labels))
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest forked worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def journal_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.glob("*/journal.jsonl"))


class Run:
    """One workload process's work on a :class:`plans.WorkloadPlan`."""

    def __init__(self, args, plan):
        self.args = args
        self.tracing = Tracing().install() if args.trace else None
        self.plan = plan
        self.run_dir = Path(args.work_dir) / "runs"
        self.programs = {}
        self.out = {
            "workload": plan.name, "traced": bool(args.trace),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "errors": [],
            #: determinism-contract checks, and the property each workload
            #: was chosen for (which needs the benchmark's sizes to hold)
            "checks": {}, "properties": {},
        }

    def span(self, name: str):
        if self.tracing is None:
            return contextlib.nullcontext()
        return self.tracing.rec.span(name)

    def options(self, **kw) -> CampaignOptions:
        return CampaignOptions(profile=self.tracing is not None, **kw)

    # -- set-up: build, train, first golden record ---------------------------
    def setup(self) -> None:
        for name in self.plan.programs:
            program = HauberkProgram(get_workload(name))
            program.train(seeds=[TRAIN_SEED])
            build_trial_runner(program, MODE, CampaignOptions())
            self.programs[name] = program
        self.out["train_launches"] = len(self.plan.programs)

    # -- campaigns ----------------------------------------------------------
    def campaigns(self) -> None:
        summaries, fingerprints, campaign_s, trials = {}, {}, 0.0, []
        for c in self.plan.campaigns:
            program = self.programs[c.program]
            options = self.options(workers=c.workers, run_dir=str(self.run_dir))
            kwargs, tracer = {}, None
            if self.tracing is not None:
                self.tracing.campaign = c.label
                if c.workers == 1:
                    kwargs["runner_factory"] = self.tracing.runner_factory(
                        program, MODE, options, c.specs)
                else:
                    tracer = self.tracing.worker_trace()
            name = "exec.pool.campaign" if c.workers > 1 else "swifi.campaign.run"
            t0 = time.perf_counter()
            try:
                scope = use_tracer(tracer) if tracer is not None else contextlib.nullcontext()
                with self.span(name), scope:
                    result = run_campaign(program, c.specs, MODE, options, **kwargs)
            except Exception:  # a campaign that raises is counted, and the run goes on
                self.out["errors"].append(f"{c.label}: {traceback.format_exc()}")
                self.out["failed_trials"] = self.out.get("failed_trials", 0) + len(c.specs)
                continue
            campaign_s += time.perf_counter() - t0
            summary = result.summary()
            summaries[c.label] = summary
            fingerprints[c.label] = campaign_fingerprint(program, c.specs, MODE, 0)[0]
            trials += [trial_class(t.observation) for t in result.trials]
            self.out["checks"][f"{c.label}: every spec ran"] = (
                summary["trials"] == len(c.specs) and summary["quarantined"] == 0)
        self.summaries, self.fingerprints = summaries, fingerprints
        self.out.update(
            campaign_s=campaign_s, trials=len(trials),
            outcomes={cls: trials.count(cls) for cls in ("ok", "crash", "hang")},
            summary_digests={label: digest(s) for label, s in summaries.items()},
        )

    def report_and_resume(self) -> None:
        with self.span("obs.report"):
            report = build_report(str(self.run_dir), include_timing=False)
        self.out["report_digest"] = report_digest(report)
        by_fp = {c["fingerprint"]: c for c in report["campaigns"]}
        for label, fp in self.fingerprints.items():
            entry = by_fp.get(fp, {})
            self.out["checks"][f"{label}: report summary equals summary()"] = (
                entry.get("complete") is True
                and entry.get("summary") == self.summaries[label])
        if not self.plan.report_and_resume:
            return
        for c in self.plan.campaigns:
            if c.label not in self.summaries:
                continue
            with self.span("swifi.journal.resume"):
                resumed = run_campaign(self.programs[c.program], c.specs, MODE,
                                       self.options(resume=str(self.run_dir)))
            self.out["checks"][f"{c.label}: resume equals fresh run"] = (
                resumed.summary() == self.summaries[c.label])

    def counts(self) -> None:
        self.out["served"] = served_counts()
        self.out["golden_records"] = sum(
            isinstance(entry, DifferentialEngine)
            for program in self.programs.values()
            for entry in program.golden_record(0).exec_states.values())
        self.out["journal_bytes"] = journal_bytes(self.run_dir)

    def execute(self, setup_only: bool = False) -> dict:
        """Set up, then (unless ``setup_only``) run, check and count; the result."""
        out = self.out
        self.setup()
        out["t_setup"] = time.time()
        if not setup_only:
            self.campaigns()
            self.report_and_resume()
            out["t_end"] = time.time()
            self.counts()
            if self.tracing is not None:
                out["spans"] = self.tracing.rec.spans
                out["trial_rows"] = self.tracing.trials()
                out["profile"] = {p.parent.name: json.loads(p.read_text())
                                  for p in self.run_dir.glob("*/profile.json")}
                out["layers"] = layer_metrics(
                    self.tracing, out["t_end"] - self.args.t0, out["journal_bytes"])
            self.self_checks()
        out["peak_rss_mb"] = peak_rss_mb()
        return out

    def self_checks(self) -> None:
        """The property each workload was chosen for, checked on this run."""
        out, checks = self.out, self.out["properties"]
        hangs = out["outcomes"]["hang"]
        layers = out.get("layers")
        name = self.plan.name
        if name == "hang-mix":
            checks["at least 2 hang trials"] = hangs >= 2
            if layers is not None:
                hangs_by = [r for r in out["trial_rows"] if r["cls"] == "hang"]
                checks["hangs take over half the campaign time"] = \
                    sum(r["s"] for r in hangs_by) > 0.5 * out["campaign_s"]
                checks["hangs served by replay and by full run"] = \
                    {r["path"] for r in hangs_by} == {"diff", "full"}
        if name in ("fp-replay", "barrier-pool"):
            checks["no hang trials"] = hangs == 0
        if name == "fp-replay":
            checks["every trial served diff"] = out["served"] == {"diff": out["trials"]}
        if name == "barrier-pool":
            checks["every trial served full:uses_sync"] = \
                out["served"] == {"full:uses_sync": out["trials"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, help="pickled plans.WorkloadPlan")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, default=time.time(),
                        help="wall-clock time the parent spawned this process")
    args = parser.parse_args(argv)

    plan = pickle.loads(Path(args.plan).read_bytes())
    out = Run(args, plan).execute(args.setup_only)
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
