"""Outside-in tracer: spans around hornplex functions, installed from outside.

A target names the module attribute a caller looks up at call time, for
example ``hornplex.training.project`` (``train`` calls ``project`` through
its own module globals) rather than ``hornplex.model.project``. Installing
replaces that attribute with a wrapper that records one span per call: name,
start, end and the index of the enclosing span. Uninstalling puts every
original back. A target that no longer exists is listed in ``absent`` instead
of failing, so the benchmark outlives refactors that delete a function.
"""

import functools
import importlib
import time


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = {}  # counter name -> summed value
        self.absent = []  # targets that do not exist
        self.uncounted = set()  # spans whose counter no longer fits the call
        self._stack = []
        self._installed = []  # (module, attribute, original)

    def install(self, targets):
        """``targets`` is a list of ``(module.attribute, span name, counter)``;
        ``counter(tracer, args, result)`` may add to ``tracer.counts``."""
        for target, name, counter in targets:
            module_name, attr = target.rsplit(".", 1)
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(target)
                continue
            setattr(module, attr, self._wrap(original, name, counter))
            self._installed.append((module, attr, original))
        return self

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _wrap(self, fn, name, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    counter(self, args, result)
                except (AttributeError, IndexError, TypeError):
                    self.uncounted.add(name)
            return result

        return traced

    def summary(self):
        """``{span name: (calls, total s, self s)}``; self time is a span's
        duration minus the durations of the spans it directly encloses."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child_ns):
            calls, total, own = out.get(name, (0, 0, 0))
            out[name] = (calls + 1, total + end - start, own + end - start - inner)
        return {name: (c, t * 1e-9, s * 1e-9) for name, (c, t, s) in out.items()}
