"""Traced runs: in-memory spans around the program's public calls.

A traced run wraps, from this file, the public functions each layer
exposes (table below) and keeps one span per call in memory: name,
start, end, parent and a few attributes.  Nothing inside ``src/`` is
changed; the wrappers are installed for the traced run only, so an
untraced run executes the program exactly as a user would.

====================================  =====================================
span (layer)                          public call wrapped
====================================  =====================================
``kir``                               ``kir.parser.parse_kernel`` (as
                                      ``Workload.kernel`` calls it)
``core.translator``                   ``HauberkTranslator.build``
``gpu.runtime.prepare``               ``GPURuntime.prepare`` /
                                      ``GPURuntime.prepare_vector``
``core.profiler``                     ``HauberkProgram.train``
``swifi.differential.golden``         ``swifi.differential.get_engine``
``swifi.campaign.merge``              ``swifi.campaign.absorb_trial``
``swifi.journal.append``              ``CampaignJournal.append_trial``
``trial``                             one trial runner call (a
                                      ``runner_factory`` wrapper around
                                      ``build_trial_runner``)
====================================  =====================================

The workload process adds spans around the calls it makes itself:
``swifi.campaign.run`` / ``exec.pool.campaign`` / ``swifi.journal.resume``
(``run_campaign``) and ``obs.report`` (``build_report``).

:func:`layer_metrics` turns the spans into the benchmark's per-layer
metrics: self time per layer (span time not covered by child spans),
work counts, per-trial cost split by serving path and outcome class,
and the run time no span accounts for.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Outcome classes of a served trial, as the per-layer metrics split them.
TRIAL_CLASSES = ("ok", "crash", "hang")
#: Full-run reasons reported by name; any other reason counts as ``other``.
FULL_REASONS = ("replay_conflict", "uses_sync")

#: Spans whose self time is reported, by per-layer metric name.
SELF_TIME_METRICS = {
    "kir.parse_s": "kir",
    "core.translator.build_s": "core.translator",
    "gpu.runtime.prepare_s": "gpu.runtime.prepare",
    "core.profiler.train_s": "core.profiler",
    "swifi.differential.golden_s": "swifi.differential.golden",
    "swifi.campaign.merge_s": "swifi.campaign.merge",
    "swifi.journal.append_s": "swifi.journal.append",
    "swifi.journal.resume_s": "swifi.journal.resume",
    "obs.report.build_s": "obs.report",
    "exec.pool.campaign_s": "exec.pool.campaign",
    "swifi.parallel.self_s": "swifi.campaign.run",
}


def trial_class(obs) -> str:
    """``ok``, ``crash`` or ``hang`` for one trial observation."""
    if not obs.failure:
        return "ok"
    return "hang" if "hang" in obs.note else "crash"


class SpanRecorder:
    """Spans kept in memory until the run ends; one stack, one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any):
        record = {"id": len(self.spans), "name": name, "start": self.clock(),
                  "end": None, "parent": self._stack[-1] if self._stack else None,
                  "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = self.clock()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out


class Tracing:
    """Installs the span wrappers; collects per-trial serving records."""

    def __init__(self, recorder: Optional[SpanRecorder] = None):
        self.rec = recorder if recorder is not None else SpanRecorder()
        #: (campaign label, trial index) -> {"served", "cls"} from the journal append.
        self.journaled: Dict[Tuple[str, int], Dict[str, str]] = {}
        #: (campaign label, trial index) -> seconds, for trials run in workers.
        self.worker_seconds: Dict[Tuple[str, int], float] = {}
        self.campaign: str = ""
        self._undo: List[Tuple[Any, str, Any]] = []
        self._engines: set = set()

    # -- installation -------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        rec = self.rec

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with rec.span(name) as span:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span["attrs"], args, kwargs, result)
                return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "Tracing":
        from repro.core.program import HauberkProgram
        from repro.core.translator import HauberkTranslator
        from repro.gpu.runtime import GPURuntime
        from repro.swifi import campaign, differential, parallel
        from repro.swifi.journal import CampaignJournal
        from repro.workloads import base

        def train_launches(attrs, args, kwargs, _):
            seeds = args[1] if len(args) > 1 else kwargs["seeds"]
            attrs["launches"] = len(seeds)

        def golden_recorded(attrs, _args, _kwargs, engine):
            fresh = isinstance(engine, differential.DifferentialEngine) \
                and id(engine) not in self._engines
            self._engines.add(id(engine))
            attrs["recorded"] = int(fresh)

        def journaled(_attrs, args, kwargs, _):
            _journal, index, _spec, _outcome, obs = args[:5]
            self.journaled[(self.campaign, index)] = {
                "served": kwargs.get("served") or "", "cls": trial_class(obs),
            }

        self._wrap(base, "parse_kernel", "kir")
        self._wrap(HauberkTranslator, "build", "core.translator")
        self._wrap(GPURuntime, "prepare", "gpu.runtime.prepare")
        self._wrap(GPURuntime, "prepare_vector", "gpu.runtime.prepare")
        self._wrap(HauberkProgram, "train", "core.profiler", train_launches)
        self._wrap(differential, "get_engine", "swifi.differential.golden",
                   golden_recorded)
        self._wrap(campaign, "absorb_trial", "swifi.campaign.merge")
        self._wrap(parallel, "absorb_trial", "swifi.campaign.merge")
        self._wrap(CampaignJournal, "append_trial", "swifi.journal.append", journaled)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- per-trial spans ----------------------------------------------------
    def runner_factory(self, program, mode: str, options, specs) -> Callable:
        """A ``run_campaign`` runner factory that spans every trial."""
        from repro.swifi.parallel import build_trial_runner

        index_of = {id(spec): i for i, spec in enumerate(specs)}
        rec, tracing = self.rec, self

        def factory():
            runner = build_trial_runner(program, mode, options)

            def traced(spec):
                with rec.span("trial", campaign=tracing.campaign,
                              index=index_of.get(id(spec), -1)):
                    return runner(spec)
            return traced

        return factory

    def worker_trace(self):
        """A tracer capturing the cost records forked workers ship back."""
        from repro.obs.events import TraceSink, Tracer

        tracing = self

        class WorkerTrials(TraceSink):
            def emit(self, record):
                inner = record.get("attrs", {}).get("record", {})
                if record.get("name") == "swifi.worker.trace" \
                        and inner.get("name") == "profile.trial":
                    attrs = inner["attrs"]
                    tracing.worker_seconds[(tracing.campaign, attrs["index"])] = attrs["dur"]

        return Tracer(WorkerTrials())

    # -- the per-layer table -------------------------------------------------
    def trials(self) -> List[Dict[str, Any]]:
        """One row per journaled trial: campaign, index, path, reason, class, seconds."""
        seconds = dict(self.worker_seconds)
        for span, own in zip(self.rec.spans, self.rec.self_times()):
            if span["name"] == "trial":
                seconds[(span["attrs"]["campaign"], span["attrs"]["index"])] = own
        rows = []
        for (label, index), tags in sorted(self.journaled.items()):
            path, _, reason = tags["served"].partition(":")
            rows.append({"campaign": label, "index": index, "path": path,
                         "reason": reason, "cls": tags["cls"],
                         "s": seconds.get((label, index), 0.0)})
        return rows


def _distribution(prefix: str, secs: List[float]) -> Dict[str, float]:
    ms = np.asarray(secs) * 1e3
    return {
        f"{prefix}.n": len(secs),
        f"{prefix}.s": float(np.sum(secs)) if secs else 0.0,
        f"{prefix}.p50_ms": float(np.percentile(ms, 50)) if secs else 0.0,
        f"{prefix}.p90_ms": float(np.percentile(ms, 90)) if secs else 0.0,
    }


def layer_metrics(tracing: Tracing, run_s: float, journal_bytes: int) -> Dict[str, float]:
    """The per-layer metrics of one traced workload run.

    ``unattributed_s`` is ``run_s`` minus the summed self time of every
    span: process start-up, imports, loading the plan and the workload
    process's own bookkeeping.
    """
    rec = tracing.rec
    own = rec.self_times()
    by_name: Dict[str, float] = {}
    for span, secs in zip(rec.spans, own):
        by_name[span["name"]] = by_name.get(span["name"], 0.0) + secs

    def attr_sum(name: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for s in rec.spans if s["name"] == name)

    out: Dict[str, float] = {m: by_name.get(span, 0.0)
                             for m, span in SELF_TIME_METRICS.items()}
    out["core.translator.builds"] = sum(s["name"] == "core.translator" for s in rec.spans)
    out["core.profiler.train_launches"] = attr_sum("core.profiler", "launches")
    out["swifi.differential.golden_records"] = attr_sum("swifi.differential.golden",
                                                        "recorded")
    rows = tracing.trials()
    for path, layer in (("diff", "swifi.differential.replay"), ("full", "gpu.runtime.full")):
        for cls in TRIAL_CLASSES:
            out.update(_distribution(f"{layer}.{cls}", [
                r["s"] for r in rows if r["path"] == path and r["cls"] == cls]))
    for reason in FULL_REASONS + ("other",):
        out[f"gpu.runtime.full.reason.{reason}.n"] = sum(
            1 for r in rows if r["path"] == "full"
            and (r["reason"] if r["reason"] in FULL_REASONS else "other") == reason)
    conflicts = out["gpu.runtime.full.reason.replay_conflict.n"]
    attempts = conflicts + sum(r["path"] == "diff" for r in rows)
    out["swifi.differential.conflict_ratio"] = conflicts / attempts if attempts else 0.0
    out["hang_share"] = sum(r["cls"] == "hang" for r in rows) / len(rows) if rows else 0.0
    out["swifi.journal.bytes"] = journal_bytes
    out["unattributed_s"] = run_s - sum(own)
    return out
