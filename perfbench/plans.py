"""Seeded workload generator: benchmark seed -> programs, fault plans, inputs.

Everything a workload feeds the program comes from here and from the
seed alone: the programs to build and every campaign's fault
specifications.  Programs are built at their default sizes and trained
on input seed 0.  ``run.py`` generates the plan once per run, outside
the timed workload processes, and hands each one the pickled plan: the
program under test receives only these generated specs and inputs;
nothing here runs a kernel.

Sizes are chosen for a 2-CPU host (one workload process, at most two
worker processes); ``README.md`` in this directory gives the reasoning
and the measured cost shares behind each one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.kir.analysis.dataflow import names_read_expr
from repro.kir.analysis.loops import find_loops
from repro.kir.astnodes import Kernel
from repro.swifi import FaultSpec, build_fault_specs, enumerate_targets
from repro.workloads import get_workload

FIG14_BITS = (1, 3, 6, 10, 15)
#: Bit positions a loop-bound fault flips: large enough that the loop runs
#: past the hang budget, below the sign bit (a negative bound ends the loop).
HANG_BIT_RANGE = (20, 30)
#: Parameters are struck after this many of the thread's events at most
#: (``build_fault_specs``'s default for delayed timing).
MAX_DELAY_EVENTS = 48


@dataclass
class CampaignSpec:
    """One fift campaign: which program, its fault plan, how to run it."""

    label: str
    program: str
    specs: List[FaultSpec]
    workers: int = 1


@dataclass
class WorkloadPlan:
    name: str
    #: Workload names of the programs to build, each trained on input seed 0.
    programs: Tuple[str, ...]
    campaigns: List[CampaignSpec]
    #: Run ``build_report`` and resume every campaign from its journal.
    report_and_resume: bool = False


def loop_control_names(kernel: Kernel) -> set:
    """Loop iterators plus every name a loop condition or trip count reads."""
    names = set()
    for loop in find_loops(kernel).values():
        if loop.iter_var:
            names.add(loop.iter_var)
        names |= names_read_expr(loop.stmt.cond)
        if loop.trip_count is not None:
            names |= names_read_expr(loop.trip_count)
    return names


def loop_bound_params(kernel: Kernel) -> List[str]:
    """Integer parameters that bound a loop's trip count, in kernel order."""
    bounds = set()
    for loop in find_loops(kernel).values():
        if loop.trip_count is not None:
            bounds |= names_read_expr(loop.trip_count)
    return [s.name for s in enumerate_targets(kernel, ["integer"])
            if s.kind == "param" and s.name in bounds]


def hang_specs(kernel: Kernel, n_threads: int, count: int,
               rng: np.random.Generator, label: str) -> List[FaultSpec]:
    """``count`` delayed faults that push a loop bound far past the budget.

    Each flips 1-11 bits in ``HANG_BIT_RANGE`` of one loop-bound
    parameter, so the struck thread's loop outlives the per-thread
    statement budget: a modelled hang, served by whichever path the
    program picks for it.
    """
    params = loop_bound_params(kernel)
    sites = {s.name: s.site for s in enumerate_targets(kernel, ["integer"])}
    lo, hi = HANG_BIT_RANGE
    out = []
    for j in range(count):
        name = params[j % len(params)]
        positions = rng.choice(np.arange(lo, hi + 1), size=1 + j % (hi - lo + 1),
                               replace=False)
        mask = sum(1 << int(p) for p in positions)
        out.append(FaultSpec(
            site=sites[name], mask=mask, thread=int(rng.integers(0, n_threads)),
            occurrence=int(rng.integers(1, MAX_DELAY_EVENTS + 1)),
            timing="delayed", label=f"{label}:hang:{name}#{j}",
        ))
    return out


def _n_threads(name: str) -> int:
    return get_workload(name).generate_input(0).n_threads


def _fp_specs(name: str, masks_per_site: int, seed: int) -> List[FaultSpec]:
    return build_fault_specs(
        enumerate_targets(get_workload(name).kernel, ["fp"]), n_threads=_n_threads(name),
        masks_per_site=masks_per_site, bit_counts=FIG14_BITS, seed=seed,
    )


def hang_mix(seed: int, background_masks: int = 3,
             hangs: Tuple[Tuple[str, int], ...] = (("CP", 1), ("PNS", 1), ("SAD", 0)),
             ) -> WorkloadPlan:
    """fig14-style campaigns on CP, PNS and SAD with a fixed hang stratum.

    Every site except the loop-control ones gets ``background_masks``
    masks with bit counts cycling 1-15.  Loop-control faults are the
    hang stratum: a fixed number per kernel (``hangs``), so the hang
    count, which sets most of the run time, does not move with the seed.
    SAD gets none: whether its loop-bound faults hang depends on the
    victim thread, which would make the count seed-dependent again.
    """
    rng = np.random.default_rng(seed)
    campaigns = []
    for k, (name, n_hangs) in enumerate(hangs):
        kernel = get_workload(name).kernel
        n_threads = _n_threads(name)
        control = loop_control_names(kernel)
        sites = [s for s in enumerate_targets(kernel) if s.name not in control]
        specs = build_fault_specs(
            sites, n_threads=n_threads, masks_per_site=background_masks,
            bit_counts=tuple(range(1, 16)), seed=seed * 100 + k,
        )
        specs += hang_specs(kernel, n_threads, n_hangs, rng, name)
        order = rng.permutation(len(specs))
        campaigns.append(CampaignSpec(name, name, [specs[int(i)] for i in order]))
    return WorkloadPlan("hang-mix", tuple(name for name, _ in hangs), campaigns)


def fp_replay(seed: int, masks_per_site: int = 100,
              names: Sequence[str] = ("CP", "MRI-Q", "MRI-FHD", "RPES")) -> WorkloadPlan:
    """Every fp site of four replay-eligible kernels, ``masks_per_site`` masks each."""
    campaigns = [
        CampaignSpec(name, name, _fp_specs(name, masks_per_site, seed * 100 + k))
        for k, name in enumerate(names)
    ]
    return WorkloadPlan("fp-replay", tuple(names), campaigns, report_and_resume=True)


def barrier_pool(seed: int, masks_per_site: int = 16) -> WorkloadPlan:
    """A TPACF fp-class campaign on a 2-worker fork pool: every trial a lockstep full run."""
    specs = _fp_specs("TPACF", masks_per_site, seed * 100)
    return WorkloadPlan("barrier-pool", ("TPACF",),
                        [CampaignSpec("TPACF", "TPACF", specs, workers=2)])


GENERATORS = {
    "hang-mix": hang_mix,
    "fp-replay": fp_replay,
    "barrier-pool": barrier_pool,
}
WORKLOADS = tuple(GENERATORS)


def make_plan(workload: str, seed: int, **sizes) -> WorkloadPlan:
    """The plan of ``workload`` for ``seed``; ``sizes`` override its defaults."""
    return GENERATORS[workload](seed, **sizes)
