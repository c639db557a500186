"""In-memory span recorder wrapped around mstomo's public functions.

While installed, every public function of the traced modules is replaced,
at each module attribute that refers to it, by a wrapper that records one
span (name, parent, start, end, attributes). Replacing the attribute in
every ``mstomo`` module matters because callers resolve names where they
imported them: ``cli`` does ``from .tomography import mle_fit``, so both
``mstomo.cli.mle_fit`` and ``mstomo.tomography.mle_fit`` are wrapped.
``mstomo.core`` is left alone: its 4x4 helpers take under a microsecond,
so a wrapper would cost more than the work it measures.

Spans stay in memory; ``write`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

TRACED_MODULES = ("cli", "config", "tomography", "sampling", "measures", "gate")

# span fields, in record order
NAME, PARENT, START, END, ATTRS = range(5)


def _mle_fit_attrs(bound, result):
    return {"warm": bound.arguments.get("initial_guess") is not None,
            "iterations": result.iterations, "converged": result.converged}


# per-function span attributes, taken from the arguments and the result
ATTRIBUTE_HOOKS = {
    "tomography.mle_fit": _mle_fit_attrs,
    "tomography.linear_inversion":
        lambda bound, result: {"physical": result.physical},
    "sampling.bootstrap":
        lambda bound, result: {"resamples": result.n_resamples,
                               "failures": result.n_failures},
    "cli.write_tomography":
        lambda bound, result: {"bytes": sum(p.stat().st_size for p in result)},
    "cli.run_scan": lambda bound, result: {"points": len(result)},
}


class Tracer:
    """Records spans of the wrapped functions of one process, one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def _install(self) -> None:
        """Replace every public function of the traced modules by a wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"mstomo.{short}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for name, module in list(sys.modules.items()):
            if name != "mstomo" and not name.startswith("mstomo."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, obj))

    def _remove(self) -> None:
        """Restore the original functions."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = ATTRIBUTE_HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if hook is not None:
                record[ATTRS] = hook(signature.bind(*args, **kwargs), result)
            return result

        return traced

    # -- recording ---------------------------------------------------------

    @contextmanager
    def recording(self, name: str):
        """Install the wrappers and open one top-level span around the block.

        The wrappers come off when the block ends, so code after it (the
        op's output checks) records nothing.
        """
        self._install()
        record = [name, -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        try:
            yield
        finally:
            record[END] = perf_counter()
            self._stack.pop()
            self._remove()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "parent", "start_s", "end_s", "attrs"],
               "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
