"""Hook resolution, CombinedLibrary dispatch and HauberkProgram edge cases."""

import pytest

from repro.core.program import CombinedLibrary, HauberkProgram, RunStatus
from repro.errors import KernelCrash
from repro.gpu.device import Device
from repro.gpu.memory import GlobalMemory
from repro.gpu.runtime import ENGINE_CLOSURE, ENGINE_LOCKSTEP, GPURuntime
from repro.kir import parse_kernel
from repro.kir.interp.evalcore import ExecContext, InstrumentationLibrary, NullLibrary
from repro.kir.types import DType
from repro.workloads import get_workload


class _A(InstrumentationLibrary):
    def __init__(self):
        self.calls = []

    def lib_alpha(self, ctx, frame, x):
        self.calls.append(("a", x))


class _B(InstrumentationLibrary):
    def __init__(self):
        self.calls = []

    def lib_beta(self, ctx, frame, x):
        self.calls.append(("b", x))

    def lib_alpha(self, ctx, frame, x):  # shadowed by _A when first
        self.calls.append(("b-alpha", x))


def _ctx():
    return ExecContext(GlobalMemory(16))


class TestCombinedLibrary:
    def test_routes_to_first_handler(self):
        a, b = _A(), _B()
        lib = CombinedLibrary([a, b])
        lib.invoke("__hauberk_alpha", _ctx(), {}, [1])
        lib.invoke("__hauberk_beta", _ctx(), {}, [2])
        assert a.calls == [("a", 1)]
        assert b.calls == [("b", 2)]  # alpha went to _A, not _B

    def test_unknown_call_crashes(self):
        lib = CombinedLibrary([_A()])
        with pytest.raises(KernelCrash, match="library has no handler for __hauberk_gamma"):
            lib.invoke("__hauberk_gamma", _ctx(), {}, [])

    def test_unprefixed_call_crashes(self):
        with pytest.raises(KernelCrash, match="unbound library call gamma"):
            CombinedLibrary([_A()]).invoke("gamma", _ctx(), {}, [])
        with pytest.raises(KernelCrash, match="unbound library call gamma"):
            _A().invoke("gamma", _ctx(), {}, [])

    def test_hook_returns_first_members_handler(self):
        a, b = _A(), _B()
        lib = CombinedLibrary([a, b])
        assert lib.hook("__hauberk_alpha") == a.lib_alpha
        assert lib.hook("__hauberk_beta") == b.lib_beta
        assert lib.hook("__hauberk_gamma") is None
        assert lib.hook("alpha") is None
        assert not hasattr(lib, "handles")

    def test_null_library_hook_is_a_noop(self):
        hook = NullLibrary().hook("__hauberk_anything")
        assert hook(_ctx(), {}, 1, "x") is None
        NullLibrary().invoke("not_even_prefixed", _ctx(), {}, [])


class _Probe(InstrumentationLibrary):
    """Records every hook call with its arguments and a frame read."""

    def __init__(self):
        self.calls = []

    def lib_probe(self, ctx, frame, *args):
        self.calls.append(("probe", args, frame.get("x")))

    def lib_alpha(self, ctx, frame, x):
        self.calls.append(("alpha", x))


def _launch(src, engine, lib, n=5):
    """Launch ``src`` (params ``int n, int* out``) on one thread."""
    device = Device()
    runtime = GPURuntime(device)
    out = device.memory.alloc("out", 1, DType.INT32)
    runtime.launch(parse_kernel(src), 1, 1, {"n": n, "out": out},
                   lib=lib, engine=engine)
    return int(device.memory.memcpy_dtoh(out)[0])


ENGINES = [ENGINE_CLOSURE, ENGINE_LOCKSTEP]


@pytest.mark.parametrize("engine", ENGINES)
class TestHookResolution:
    """``ctx.hooks`` behaviour, identical on the closure and lockstep paths."""

    def test_unbound_hook_on_untaken_branch_does_not_crash(self, engine):
        src = ("kernel k(int n, int* out) { "
               "if (n > 100) { __hauberk_nothing(n); } out[0] = n; }")
        assert _launch(src, engine, InstrumentationLibrary()) == 5

    def test_executed_unbound_hook_crashes(self, engine):
        src = "kernel k(int n, int* out) { out[0] = n; __hauberk_nothing(n); }"
        with pytest.raises(KernelCrash, match="library has no handler for __hauberk_nothing"):
            _launch(src, engine, InstrumentationLibrary())
        with pytest.raises(KernelCrash, match="library has no handler for __hauberk_nothing"):
            _launch(src, engine, CombinedLibrary([_A(), _B()]))

    def test_cache_is_per_launch_not_per_kernel(self, engine):
        device = Device()
        runtime = GPURuntime(device)
        kernel = parse_kernel(
            "kernel k(int n, int* out) { __hauberk_alpha(n); out[0] = n; }"
        )
        out = device.memory.alloc("out", 1, DType.INT32)
        first, second = _A(), _B()
        runtime.launch(kernel, 1, 1, {"n": 1, "out": out}, lib=first, engine=engine)
        runtime.launch(kernel, 1, 1, {"n": 2, "out": out}, lib=second, engine=engine)
        runtime.launch(kernel, 1, 1, {"n": 3, "out": out}, lib=NullLibrary(), engine=engine)
        with pytest.raises(KernelCrash, match="no handler for __hauberk_alpha"):
            runtime.launch(kernel, 1, 1, {"n": 4, "out": out},
                           lib=InstrumentationLibrary(), engine=engine)
        assert first.calls == [("a", 1)]
        assert second.calls == [("b-alpha", 2)]

    def test_combined_library_shadowing(self, engine):
        a, b = _A(), _B()
        src = ("kernel k(int n, int* out) { "
               "__hauberk_alpha(n); __hauberk_beta(n + 1); out[0] = n; }")
        _launch(src, engine, CombinedLibrary([a, b]))
        assert a.calls == [("a", 5)]
        assert b.calls == [("b", 6)]

    def test_constant_and_evaluated_arguments(self, engine):
        probe = _Probe()
        src = ("kernel k(int n, int* out) { int x = n * 2; "
               '__hauberk_probe(7, "x", 2.5); '
               '__hauberk_probe(x + 1, "x"); '
               "for (int i = 0; i < 2; i++) { __hauberk_probe(3, \"i\"); __hauberk_probe(i); } "
               "__hauberk_alpha(x); out[0] = x; }")
        assert _launch(src, engine, probe) == 10
        assert probe.calls == [
            ("probe", (7, "x", 2.5), 10),
            ("probe", (11, "x"), 10),
            ("probe", (3, "i"), 10),
            ("probe", (0,), 10),
            ("probe", (3, "i"), 10),
            ("probe", (1,), 10),
            ("alpha", 10),
        ]


class TestProgramEdgeCases:
    def test_crashed_run_has_no_output(self):
        wl = get_workload("MRI-Q")
        prog = HauberkProgram(wl)
        from repro.swifi import FaultSpec, enumerate_targets

        ptr = next(s for s in enumerate_targets(wl.kernel) if s.name == "Qr")
        result = prog.run(
            mode="fi", seed=0,
            fault=FaultSpec(site=ptr.site, mask=1 << 30, thread=0),
        )
        assert result.status is RunStatus.CRASH
        assert result.output is None
        assert result.kernel_time == 0.0
        assert "crash" in result.failure_reason

    def test_crash_does_not_leak_alarm_state(self):
        """The device control-block copy dies with the crashed kernel."""
        wl = get_workload("MRI-Q")
        prog = HauberkProgram(wl)
        prog.train(seeds=[0])
        from repro.swifi import FaultSpec, enumerate_targets

        ptr = next(s for s in enumerate_targets(wl.kernel) if s.name == "Qr")
        before_events = list(prog.cb.events)
        result = prog.run(
            mode="fift", seed=0,
            fault=FaultSpec(site=ptr.site, mask=1 << 30, thread=0),
        )
        assert result.status is RunStatus.CRASH
        assert not result.alarm
        assert prog.cb.events == before_events  # host copy untouched

    def test_builds_are_cached(self):
        wl = get_workload("CP")
        prog = HauberkProgram(wl)
        assert prog.build("ft") is prog.build("ft")

    def test_measure_time_requires_clean_run(self):
        wl = get_workload("CP")
        prog = HauberkProgram(wl)
        # ft without training alarms but still completes: measurable
        t = prog.measure_time("ft", seed=0)
        assert t > 0
