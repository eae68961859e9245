"""Outside-in tracing of heavytail_lmc's module-level entry points.

A :class:`Tracer` replaces chosen module attributes with timing wrappers
for the duration of a ``with tracer.installed():`` block and puts the
originals back in ``finally``.  Nothing inside ``src/`` is changed: the
wrappers sit at the name bindings through which the package's modules call
each other (``heavytail_lmc.sampler.grad_potential`` is the name
``lmc_step`` looks up), so every call that goes through such a binding is
timed.

Per entry point the tracer keeps the call count, the inclusive time of the
outermost activation on each thread, and the part of that time covered by
traced children (``self = total - child``).  Spans live on a per-thread
stack, so the phase sweep's worker threads are traced correctly.  An entry
point that no longer exists is listed in :attr:`Tracer.absent` and its
figures stay at zero; the run goes on.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

PACKAGE = "heavytail_lmc"


@dataclass(frozen=True)
class EntryPoint:
    """One traced name.

    ``module.attr`` is looked up when the tracer is installed.  With
    ``package_wide`` every binding of the same object in any
    ``heavytail_lmc`` module is wrapped (so internal calls are seen too);
    otherwise only ``module.attr`` itself is.  ``count_evals`` wraps the
    first positional argument (an integrand) to count its evaluations;
    ``steps`` maps a return value to a work count (e.g. solver steps).
    """

    name: str
    module: str
    attr: str
    package_wide: bool = True
    count_evals: bool = False
    steps: Optional[Callable[[object], int]] = None


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    child_s: float = 0.0
    evals: int = 0
    steps: int = 0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Install timing wrappers on entry points; restore them afterwards."""

    def __init__(self, entries: list[EntryPoint]):
        self.entries = list(entries)
        self.absent: list[str] = []
        self.reset()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            self._restore()

    def reset(self) -> None:
        self.stats = {e.name: SpanStats() for e in self.entries}
        self.root_busy_s = 0.0

    def _install(self) -> None:
        self.absent = []
        for entry in self.entries:
            try:
                module = importlib.import_module(entry.module)
            except ImportError:
                self.absent.append(entry.name)
                continue
            original = getattr(module, entry.attr, None)
            if not callable(original):
                self.absent.append(entry.name)
                continue
            wrapper = self._wrap(entry, original)
            homes = _package_modules() if entry.package_wide else [module]
            for home in homes:
                for attr, value in list(vars(home).items()):
                    if value is original:
                        setattr(home, attr, wrapper)
                        self._patched.append((home, attr, original))

    def _restore(self) -> None:
        while self._patched:
            home, attr, original = self._patched.pop()
            setattr(home, attr, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, entry: EntryPoint, fn: Callable) -> Callable:
        name = entry.name
        steps = entry.steps

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if any(frame[0] == name for frame in stack):
                # Recursive activation: time only the outermost one.
                with self._lock:
                    self.stats[name].calls += 1
                return fn(*args, **kwargs)
            evals = 0
            if entry.count_evals and args:
                integrand = args[0]

                def counted(*a):
                    nonlocal evals
                    evals += 1
                    return integrand(*a)

                args = (counted,) + args[1:]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                with self._lock:
                    st = self.stats[name]
                    st.calls += 1
                    st.total_s += dt
                    st.child_s += frame[1]
                    st.evals += evals
                    if not stack:
                        self.root_busy_s += dt
            if steps is not None:
                n = steps(result)
                with self._lock:
                    self.stats[name].steps += n
            return result

        return wrapper


def _package_modules() -> list:
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
    ]
