"""In-memory span recorder that wraps library functions from outside.

A function is wrapped in the module namespace its callers look it up
from (for example ``harmonics.symbol_grid``, which ``rep_grid`` and
``projected_eigenvalue_grid`` call), so calls made inside the library are
recorded without editing it.  ``restore`` puts the original functions
back.
"""

import functools
import json
import time


class Tracer:
    """Records spans as [name, start, end, parent, op, attrs] lists.

    parent is the index of the enclosing span (None at top level) and op
    the id of the benchmark operation the span belongs to.  attrs holds
    work sizes such as the grid n or the number of frequency points.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.op = None
        self._stack = []
        self._patched = []

    def enter(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op, attrs])
        self._stack.append(idx)
        return idx

    def exit(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def wrap(self, module, attr, name, describe=None):
        """Replace module.attr by a recording wrapper; a missing name raises.

        describe(args, kwargs) returns the span's attrs; it runs before the
        span starts, so its cost lands in the caller's self time.
        """
        fn = getattr(module, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.enter(name, describe(args, kwargs) if describe else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(idx)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def restore(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "op", "attrs")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
