"""Layer spans and fingerprint counters, installed from outside the package.

Both work by replacing module attributes: a public function is wrapped at
every name the engine calls it through (``tenscale.scaling.marginal``,
``tenscale.tensors.check_hermitian``, the package namespace, ...) and put
back afterwards, so ``src/`` is never edited.

``Counters`` is cheap and runs in every pass: it counts halt checks (the
resynchronizing ``apply_group`` call made from the core loop's
``verified_halt``) and collects every engine report a query produced, which
is what the per-query fingerprint needs.

``Tracer`` is the traced run: a span per wrapped call, aggregated in memory
into inclusive time of the outermost call per function, per group and per
layer, and self time per layer (a span's duration minus its child spans).
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import tenscale
from tenscale import hwv, io, oracle, reduction, scaling, tensors

LAYERS = {"tensors": tensors, "scaling": scaling, "oracle": oracle,
          "hwv": hwv, "reduction": reduction, "io": io}
# every module whose namespace may hold a name the engine calls through
NAMESPACES = [tenscale] + [sys.modules[name] for name in sorted(sys.modules)
                           if name.startswith("tenscale.")]

# Functions whose outermost time is also summed under a shared key.
GROUPS = {
    ("scaling", "upper_cholesky"): "scaling.factor",
    ("scaling", "block_cholesky"): "scaling.factor",
    ("scaling", "pad_scaling"): "scaling.pad",
    ("hwv", "evaluate_hwv"): "hwv.evaluate",
    ("hwv", "find_nonvanishing_spec"): "hwv.find_spec",
    ("hwv", "check_hwv_transformation"): "hwv.transform_check",
    ("hwv", "enumerate_specs"): "hwv.enumerate",
    ("reduction", "expand_matrix"): "reduction.expand",
    ("reduction", "expand_adjoint"): "reduction.expand",
    ("io", "report_to_obj"): "io.serialize",
    ("io", "verdict_to_obj"): "io.serialize",
    ("io", "group_to_obj"): "io.serialize",
    ("io", "dumps_canonical"): "io.serialize",
}
ENGINE_RUNS = ("run_scaling", "run_general_scaling")


class Patcher:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace_everywhere(self, original, replacement) -> None:
        for module in NAMESPACES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def set(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def public_functions(module):
    for name, obj in sorted(vars(module).items()):
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                and not name.startswith("_"):
            yield name, obj


def _halt_code():
    """Code object of the core loop's verified_halt, or None if the engine
    no longer has one (the rejected-halt count is then reported as -1)."""
    loop = getattr(scaling, "_core_loop", None)
    for const in getattr(getattr(loop, "__code__", None), "co_consts", ()):
        if inspect.iscode(const) and const.co_name == "verified_halt":
            return const
    return None


class Counters:
    def __init__(self):
        self.halt_code = _halt_code()
        self.halt_checks = 0
        self.reports: list = []
        self._patcher = Patcher()

    def reset(self) -> None:
        self.halt_checks = 0
        self.reports = []

    def install(self) -> None:
        """Install after the tracer, so the caller frame seen by the halt
        counter is the engine's and not a span wrapper."""
        if self.halt_code is not None:
            self._patcher.set(scaling, "apply_group",
                              self._halt_counter(scaling.apply_group))
        for name in ENGINE_RUNS:
            fn = getattr(tenscale, name)
            self._patcher.replace_everywhere(fn, self._observer(fn))

    def _halt_counter(self, fn):
        halt_code = self.halt_code

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if sys._getframe(1).f_code is halt_code:
                self.halt_checks += 1
            return fn(*args, **kwargs)
        return counted

    def _observer(self, fn):
        @functools.wraps(fn)
        def observed(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.reports.append(out[0] if isinstance(out, tuple) else out)
            return out
        return observed

    def restore(self) -> None:
        self._patcher.restore()

    def rejected_halts(self) -> int:
        if self.halt_code is None:
            return -1
        accepted = sum(1 for r in self.reports
                       if r.verdict == scaling.SCALED
                       or "post-hoc verification failed" in r.note)
        return self.halt_checks - accepted


class Tracer:
    def __init__(self):
        self.totals = defaultdict(float)   # key -> seconds of outermost calls
        self.calls = defaultdict(int)      # key -> number of calls
        self.self_s = defaultdict(float)   # layer -> self seconds
        self.oracle_runs = 0
        self._depth = defaultdict(int)
        self._stack: list[list] = []       # [child seconds, layer]
        self._patcher = Patcher()

    def install(self) -> None:
        for layer, module in LAYERS.items():
            for name, fn in public_functions(module):
                keys = [layer, f"{layer}.{name}"]
                if (layer, name) in GROUPS:
                    keys.append(GROUPS[(layer, name)])
                wrapped = self._wrap(fn, layer, tuple(keys),
                                     counts_runs=name in ENGINE_RUNS)
                self._patcher.replace_everywhere(fn, wrapped)
        validate = tensors.Tensor.__post_init__
        self._patcher.set(tensors.Tensor, "__post_init__",
                          self._wrap(validate, "tensors",
                                     ("tensors", "tensors.validate"), False))

    def restore(self) -> None:
        self._patcher.restore()

    def _enter(self, layer, keys, counts_runs):
        if counts_runs and self._stack and self._stack[-1][1] == "oracle":
            self.oracle_runs += 1
        for k in keys:
            self._depth[k] += 1
            self.calls[k] += 1
        frame = [0.0, layer]
        self._stack.append(frame)
        return frame

    def _exit(self, frame, keys, dur) -> None:
        self._stack.pop()
        self.self_s[frame[1]] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        for k in keys:
            self._depth[k] -= 1
            if self._depth[k] == 0:
                self.totals[k] += dur

    def _wrap(self, fn, layer, keys, counts_runs):
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            # time each resumption, so enumeration work lands in the layer
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = self._enter(layer, keys, False)
                    start = clock()
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(frame, keys, clock() - start)
                    yield value
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(layer, keys, counts_runs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame, keys, clock() - start)
        return traced
