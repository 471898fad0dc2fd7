"""Campaign benchmark: one command, one workload, every metric with its unit.

Run from the repository root::

    python3 perfbench/run.py --workload fp-replay --seed 1 --seconds 40 --trace 0

Each run generates the seed's plan once (:mod:`plans`), outside the
timed processes, then spawns fresh workload processes
(:mod:`workload`) that load it, so the process-wide parse, build and
golden caches start cold every time:

* first, unmeasured set-up-only processes run for ``WARMUP_S``;
* ``--trace 0``: the workload repeats, each time in a new process, for
  as long as another repetition and the set-up samples still missing
  fit in ``--seconds`` (at least once), then more processes stop after
  set-up until ``SETUP_SAMPLES`` set-up times exist.  It prints the
  medians of the end-to-end metrics.
* ``--trace 1``: one untraced and one traced process; it prints the
  per-layer metrics of the traced one and the tracing overhead.

Every repetition is checked: each campaign's ``summary()`` digest and
the ``build_report(include_timing=False)`` digest must equal the
reference recorded for this seed in ``references.json`` (when there is
one) and must agree across the run's repetitions; the workload's own
checks must pass.  ``--record`` stores this run's digests as the
seed's reference instead.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full details land in ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
RESULTS = HERE / "results"

WORKLOADS = ("hang-mix", "fp-replay", "barrier-pool")
#: Seed used when none is given.
DEFAULT_SEED = 1
#: Seed kept out of every tuning run: a later speed claim must also hold on it.
HELD_OUT_SEED = 1009
#: Set-up samples per untraced run, so ``setup_s`` is a median; set-up-only
#: processes make up what the repetitions do not provide.
SETUP_SAMPLES = 9
#: Unmeasured warm-up before the first timed process: on a 2-vCPU virtual
#: machine the first processes after an idle spell ran 20-40% slower.
WARMUP_S = 2.0
#: Wall-clock limit for one run; children are killed past it.
RUN_LIMIT_S = 170.0


def end_to_end(reps, probes):
    """Medians of the end-to-end metrics over a run's repetitions."""
    med = statistics.median
    return {
        "run_s": med(r["run_s"] for r in reps),
        "setup_s": med([r["setup_s"] for r in reps + probes]),
        "trials_per_s": med(r["trials"] / r["campaign_s"] for r in reps),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in reps),
    }


class Runner:
    def __init__(self, root: Path, plan):
        self.root = root
        self.started = time.time()
        self.work = HERE / ".work" / f"{plan.name}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.plan = self.work / "plan.pickle"
        self.plan.write_bytes(pickle.dumps(plan))
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def spawn(self, n: int, trace: bool = False, setup_only: bool = False) -> dict:
        """Run one workload process; its result with ``run_s``/``setup_s`` added."""
        out = self.work / f"{n}.json"
        cmd = [sys.executable, str(HERE / "workload.py"), "--plan", str(self.plan),
               "--work-dir", str(self.work / str(n)), "--out", str(out)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        t0 = time.time()
        left = RUN_LIMIT_S - (t0 - self.started)
        # a session of its own, so a timeout also stops forked pool workers
        proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True, start_new_session=True)
        try:
            log, _ = proc.communicate(timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited {proc.returncode}:\n{log[-4000:]}")
        result = json.loads(out.read_text())
        shutil.rmtree(self.work / str(n), ignore_errors=True)
        result["setup_s"] = result["t_setup"] - t0
        if not setup_only:
            result["run_s"] = result["t_end"] - t0
        return result


def digests(rep) -> dict:
    return {"summaries": rep["summary_digests"], "report": rep["report_digest"]}


def check(reps, reference, record: bool):
    """``(attempted, failed, notes)`` over every repetition of the run."""
    attempted = failed = 0
    notes = []
    use_reference = reference is not None and not record
    want = reference if use_reference else digests(reps[0])
    for r in reps:
        checks = {**r["checks"], **r["properties"]}
        attempted += r["trials"] + r.get("failed_trials", 0) + len(checks) + 2
        failed += r.get("failed_trials", 0) + len(r["errors"])
        failed += sum(not ok for ok in checks.values())
        notes += [f"check failed: {name}" for name, ok in checks.items() if not ok]
        notes += r["errors"]
        for key, value in digests(r).items():
            if value != want[key]:
                failed += 1
                notes.append(f"{key} digest differs from the "
                             f"{'reference' if use_reference else 'first repetition'}")
    return attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests as the seed's reference")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    compileall.compile_dir(str(root / "src" / "repro"), quiet=1)
    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    reference = references.get(args.workload, {}).get(str(args.seed))

    sys.path.insert(0, str(root / "src"))
    from plans import make_plan

    runner = Runner(root, make_plan(args.workload, args.seed))
    try:
        warm = time.time()
        while time.time() - warm < WARMUP_S:
            runner.spawn(-1, setup_only=True)
        reps, probes = [runner.spawn(0)], []
        if args.trace:
            reps.append(runner.spawn(1, trace=True))
        else:
            def fits() -> bool:
                missing = max(SETUP_SAMPLES - len(reps) - 1, 0)
                need = reps[-1]["run_s"] + missing * max(r["setup_s"] for r in reps)
                return time.time() - runner.started + need <= args.seconds
            while fits():
                reps.append(runner.spawn(len(reps)))
            probes = [runner.spawn(len(reps) + k, setup_only=True)
                      for k in range(SETUP_SAMPLES - len(reps))]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    attempted, failed, notes = check(reps, reference, args.record)
    if args.record and failed == 0:
        references.setdefault(args.workload, {})[str(args.seed)] = digests(reps[0])
        REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    if reference is None and not args.record:
        notes.append(f"no reference recorded for seed {args.seed}: checked against "
                     "the run's own repetitions and the workload checks only")

    if args.trace:
        metrics = dict(reps[1]["layers"], **{
            "trace.overhead_s": reps[1]["run_s"] - reps[0]["run_s"]})
        names = [m["name"] for m in spec["per_layer"]]
    else:
        metrics = end_to_end(reps, probes)
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {name: metrics[name] for name in names}
    counts = {k: reps[-1][k] for k in ("trials", "outcomes", "served", "golden_records",
                                        "train_launches", "journal_bytes", "cpu_count",
                                        "python", "numpy")}
    error_rate = failed / attempted if attempted else 1.0
    RESULTS.mkdir(exist_ok=True)
    detail = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "error_rate": error_rate,
        "metrics": metrics, "counts": counts, "notes": notes,
        "repetitions": [{k: v for k, v in r.items() if k not in ("spans",)} for r in reps],
        "spans": reps[-1].get("spans", []), "setup_probes_s": [p["setup_s"] for p in probes],
    }, indent=1))

    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} error_rate = {error_rate:.6g} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(f"{args.workload} counts: {json.dumps(counts, sort_keys=True)}")
    for note in notes:
        print(f"{args.workload} note: {note}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
