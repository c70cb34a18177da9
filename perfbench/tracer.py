"""Call-boundary tracer for the bfamily package, installed from outside it.

The tracer wraps every public function defined in the layer modules and
patches the wrapper into every module attribute that holds the original,
because a caller looks a function up in its own module's namespace
(``cli.simulate`` is the name ``cmd_track`` calls, not
``integrator.simulate``).  Each call records its duration, its self time
(duration minus the time of traced calls made inside it), and whether it
raised.  Spans stay in memory; nothing is written while tracing.

``restore`` puts every original object back and reports how many wrappers
are still reachable from any bfamily module (zero when the restore is
complete).
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("core", "spectral", "precision", "integrator", "tracker", "synthetic", "cli")

# Calls made while this function is on the stack count as "in a step".
STEP_SCOPE = "integrator.rk4_step"


@dataclass
class CallStats:
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    calls_in_step: int = 0


class Tracer:
    """Context manager that traces the layer modules of ``package``.

    ``only`` restricts tracing to the named functions (``layer.name``).
    ``on_result`` maps a qualified name to ``hook(result, args, kwargs)``,
    which may return a replacement result; it runs after the call's
    span closes.
    """

    def __init__(self, package, only=None, on_result=None):
        self.package = package
        self.only = None if only is None else set(only)
        self.on_result = dict(on_result or {})
        self.stats: dict[str, CallStats] = {}
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self._step_depth = [0]
        self.leftover = None

    def _targets(self) -> dict[int, tuple[str, object]]:
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                qualified = f"{layer}.{name}"
                if self.only is None or qualified in self.only:
                    targets[id(obj)] = (qualified, obj)
        return targets

    def _modules(self) -> list:
        prefix = self.package.__name__ + "."
        return [self.package] + [
            module
            for name, module in sorted(sys.modules.items())
            if name.startswith(prefix) and module is not None
        ]

    def span(self, qualified: str, func):
        """Wrap ``func`` so that each call is recorded under ``qualified``."""
        stats = self.stats.setdefault(qualified, CallStats())
        stack = self._stack
        depth = self._step_depth
        clock = time.perf_counter
        is_scope = qualified == STEP_SCOPE
        hook = self.on_result.get(qualified)

        def traced(*args, **kwargs):
            if is_scope:
                depth[0] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - child
                if stack:
                    stack[-1] += elapsed
                if depth[0]:
                    stats.calls_in_step += 1
                if is_scope:
                    depth[0] -= 1
            if hook is not None:
                replaced = hook(result, args, kwargs)
                if replaced is not None:
                    result = replaced
            return result

        traced.__wrapped__ = func
        traced.__bench_traced__ = qualified
        return traced

    def install(self) -> None:
        targets = self._targets()
        wrappers = {key: self.span(q, f) for key, (q, f) in targets.items()}
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is targets[id(value)][1]:
                    setattr(module, attr, wrapper)
                    self.patched.append((module, attr, value))

    def restore(self) -> int:
        """Put the originals back; return the number of wrappers left."""
        for module, attr, value in reversed(self.patched):
            setattr(module, attr, value)
        self.patched.clear()
        return sum(
            1
            for module in self._modules()
            for value in vars(module).values()
            if inspect.isfunction(value) and hasattr(value, "__bench_traced__")
        )

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.leftover = self.restore()

    def get(self, qualified: str) -> CallStats:
        return self.stats.get(qualified, CallStats())

    def layer_self_s(self, layer: str) -> float:
        return sum(
            s.self_s for name, s in self.stats.items() if name.split(".", 1)[0] == layer
        )
