"""A small outside-in tracer: spans and per-span operator counters.

The tracer replaces functions and methods with timing wrappers, from
outside the traced package, and restores the originals afterwards.  It
knows two kinds of wrapper:

* ``span``: the call gets a span record of its own (name, start, end,
  parent span, root span, self time).  A span with no enclosing span is
  a root; every span below it carries the root's id.
* ``op``: a fine-grained operator called millions of times.  Each call
  only adds one to a count and its self time to a total, kept per
  enclosing span, so no record is stored per call.

Self time is a call's duration minus the time covered by the wrapped
calls made inside it, whether those are spans or ops.  Everything stays
in memory until :meth:`Tracer.dump` writes it out.
"""

from __future__ import annotations

import inspect
import json
import time


class Span:
    __slots__ = ("id", "parent", "root", "name", "start", "end", "self_s", "ops")

    def __init__(self, sid, parent, root, name):
        self.id = sid
        self.parent = parent          # id of the enclosing span, None for a root
        self.root = root
        self.name = name
        self.start = self.end = self.self_s = 0.0
        self.ops = {}                 # op name -> [calls, self seconds]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []               # finished spans, in order of completion
        self.outside = Span(0, None, 0, "outside")   # ops called outside any span
        self._current = self.outside
        self._child = [0.0]           # time covered by wrapped callees, per open call
        self._next_id = 1
        self._patches = []            # (owner, attribute, original, had_own)

    # -- wrappers ------------------------------------------------------------

    def op(self, name, fn, stat=None):
        """Wrap fn as an aggregated operator; stat(args) sees each call's arguments."""
        clock, child, tracer = self.clock, self._child, self

        def wrapper(*args, **kwargs):
            t0 = clock()
            child.append(0.0)
            try:
                if stat is not None:
                    stat(args)
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = child.pop()
                child[-1] += dt
                ops = tracer._current.ops
                agg = ops.get(name)
                if agg is None:
                    ops[name] = [1, dt - inner]
                else:
                    agg[0] += 1
                    agg[1] += dt - inner

        wrapper.__wrapped__ = fn
        return wrapper

    def span(self, name, fn):
        """Wrap fn so that each call records a span."""
        clock, child, tracer = self.clock, self._child, self

        def wrapper(*args, **kwargs):
            parent = tracer._current
            sid = tracer._next_id
            tracer._next_id += 1
            if parent is tracer.outside:
                s = Span(sid, None, sid, name)
            else:
                s = Span(sid, parent.id, parent.root, name)
            tracer._current = s
            t0 = clock()
            child.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                inner = child.pop()
                child[-1] += t1 - t0
                s.start, s.end, s.self_s = t0, t1, t1 - t0 - inner
                tracer.spans.append(s)
                tracer._current = parent

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching --------------------------------------------------------------

    def _set(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def patch_function(self, fn, wrapper, modules):
        """Replace every binding of fn in the given modules (including by-name imports)."""
        count = 0
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapper)
                    count += 1
        if not count:
            raise LookupError(f"{fn!r} is bound in none of the traced modules")

    def patch_method(self, cls, attrs, make_wrapper):
        """Wrap methods (plain or classmethod) of cls, inherited ones included.

        make_wrapper(function) returns the wrapper; aliases such as
        ``__radd__ = __add__`` are listed in attrs and wrapped separately.
        """
        for attr in attrs:
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make_wrapper(raw.__func__)))
            else:
                self._set(cls, attr, make_wrapper(raw))

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- results -----------------------------------------------------------------

    def totals(self):
        """name -> [calls, self seconds], summed over spans and over ops."""
        out = {}
        for s in [self.outside] + self.spans:
            if s is not self.outside:
                agg = out.setdefault(s.name, [0, 0.0])
                agg[0] += 1
                agg[1] += s.self_s
            for name, (calls, self_s) in s.ops.items():
                agg = out.setdefault(name, [0, 0.0])
                agg[0] += calls
                agg[1] += self_s
        return out

    def dump(self, path, extra=None):
        """Write every span (with its op counters) and extra counters as JSON."""
        doc = {
            "fields": ["id", "parent", "root", "name", "start", "end", "self_s", "ops"],
            "spans": [[s.id, s.parent, s.root, s.name, s.start, s.end, s.self_s,
                       s.ops] for s in [self.outside] + self.spans],
            "counters": extra or {},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
