"""Span tracer that measures snwave's layers from outside the package.

``Tracer.installed()`` wraps every public function defined in the traced
layer modules and rebinds the wrapper under each name that holds the
original in any loaded ``snwave.*`` module.  The rebinding has to cover
the importers too: ``solvers`` and ``game`` bind names through
``from .fem import ...``, so patching ``snwave.fem`` alone would miss
every call made from them.

Spans are kept in memory as ``[solve, name, start, end, parent]`` lists
and written out only when the run ends.  A span's self time is its
duration minus the time its child spans cover; the program is
single-threaded, so children never overlap and that cover is the sum of
their durations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("geometry", "fem", "solvers", "game", "cli")
MARCHES = ("solvers.solve_forward", "solvers.solve_backward")


def _any_nonzero(trajectory) -> bool:
    """True when some frame of a march result holds a nonzero value."""
    frames = getattr(trajectory, "frames", None)
    if frames is None:
        return True  # unknown result type: count the march as useful
    return any(bool((getattr(f, "values", f) != 0).any()) for f in frames)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.useful: dict = {}  # span index of a march -> it produced a nonzero frame
        self.solve = 0
        self._stack: list = []

    def _wrap(self, name: str, fn):
        spans, stack, useful = self.spans, self._stack, self.useful
        is_march = name in MARCHES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [self.solve, name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if is_march:
                useful[idx] = _any_nonzero(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced functions for the duration of the block."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"snwave.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "snwave" and not modname.startswith("snwave."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def self_times(self) -> list:
        """Self time of every span, in span order."""
        own = [s[3] - s[2] for s in self.spans]
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[3] - s[2]
        return own

    def summary(self, solve: int) -> dict:
        """Per-function calls and self seconds, plus the march figures, of one solve."""
        own = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        march_s = []
        useful = 0
        roots = []
        for idx, s in enumerate(self.spans):
            if s[0] != solve:
                continue
            calls[s[1]] += 1
            self_s[s[1]] += own[idx]
            if s[4] < 0:
                roots.append(s[3] - s[2])
            if s[1] in MARCHES:
                march_s.append(s[3] - s[2])
                useful += self.useful[idx]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "march_s": march_s,
            "useful_marches": useful,
            "inclusive_s": sum(roots),
            "min_self_s": min((own[i] for i, s in enumerate(self.spans) if s[0] == solve),
                              default=0.0),
        }

    def write(self, path):
        """Write every span as CSV: solve, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("solve,name,start,end,parent\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]!r},{s[3]!r},{s[4]}\n")

