"""Spans around calls into the package's public functions.

The benchmark installs these wrappers from outside the package, by
replacing module (or class) attributes, and restores the originals when
the tracer is closed. Callers inside the package look the functions up
through the module at call time, so they see the wrappers too.
"""

import time
from collections import Counter


class Tracer:
    """In-memory span recorder.

    A span is ``(id, parent_id, name, t0_ns, t1_ns, outcome)``:
    ``t0_ns``/``t1_ns`` are wall-clock (``perf_counter_ns``) times and
    ``outcome`` is ``"ok"`` or the class name of the exception that left the
    call. Spans of one top-level call share its root through the parent
    chain.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.results = {}            # span name -> list of return values seen
        self._stack = []
        self._open = Counter()       # span name -> nesting depth right now
        self._originals = []         # (owner, attr, original)

    # -- installation -------------------------------------------------

    def span(self, owner, attr, name, keep_result=None):
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``keep_result(result)`` extracts what to keep from each return
        value (in ``self.results[name]``).
        """
        original = getattr(owner, attr)
        spans, stack, is_open = self.spans, self._stack, self._open
        kept = self.results.setdefault(name, [])

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            is_open[name] += 1
            outcome = "ok"
            t0 = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter_ns()
                is_open[name] -= 1
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1, outcome)
            if keep_result is not None:
                kept.append(keep_result(result))
            return result

        self._install(owner, attr, original, wrapper)

    def count(self, owner, attr, name, also_inside=()):
        """Count calls of ``owner.attr``; for each span name in
        ``also_inside``, count the calls made while that span is open as
        ``"<name>@<span>"``."""
        original = getattr(owner, attr)
        counts, is_open = self.counts, self._open

        def wrapper(*args, **kwargs):
            counts[name] += 1
            for outer in also_inside:
                if is_open[outer]:
                    counts[f"{name}@{outer}"] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, wrapper)

    def before(self, owner, attr, fn, every=1):
        """Call ``fn()`` before every ``every``-th call of ``owner.attr``,
        starting with the first."""
        original = getattr(owner, attr)
        calls = [0]

        def wrapper(*args, **kwargs):
            if calls[0] % every == 0:
                fn()
            calls[0] += 1
            return original(*args, **kwargs)

        self._install(owner, attr, original, wrapper)

    def _install(self, owner, attr, original, wrapper):
        wrapper.__wrapped__ = original
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every original back, newest first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- aggregation ---------------------------------------------------

    def durations_s(self, name):
        """Durations (s) of every span called ``name``."""
        return [(s[4] - s[3]) * 1e-9 for s in self.spans if s[2] == name]

    def intervals_ns(self, name):
        """Wall-clock (start, end) of every span called ``name``."""
        return [(s[3], s[4]) for s in self.spans if s[2] == name]

    def busy_s(self, name):
        """Time covered by outermost spans of ``name`` (nested ones of the
        same name are not counted twice)."""
        by_id = self.spans
        total = 0
        for s in by_id:
            if s[2] != name:
                continue
            p = s[1]
            while p >= 0 and by_id[p][2] != name:
                p = by_id[p][1]
            if p < 0:
                total += s[4] - s[3]
        return total * 1e-9

    def self_s(self, name):
        """Busy time of ``name`` minus the part its direct children cover."""
        child = Counter()
        for s in self.spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        return sum(s[4] - s[3] - child[s[0]] for s in self.spans if s[2] == name) * 1e-9

    def failures(self, name):
        return sum(1 for s in self.spans if s[2] == name and s[5] != "ok")

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,name,t0_ns,t1_ns,outcome\n")
            for s in self.spans:
                fh.write(",".join(str(v) for v in s) + "\n")
