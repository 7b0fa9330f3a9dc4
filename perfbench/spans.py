"""Spans around the calls into each layer, recorded from outside the program.

`Tracer.install` replaces public functions and methods of the ambreal
modules with wrappers that open a span, call the original and close the
span; `uninstall` puts the originals back.  Names a module imported from
another one (`compact.extract_gray`, `prelude.parse_defs`, ...) are
wrapped in every module that calls them, so nested calls are seen too.

Each span records name, start, end, parent span and operation id (-1
during set-up).  Self time is computed as the spans close: a span's
duration minus the durations of its children, which in one thread nest
without overlap.  Spans are kept in flat arrays and written out by
`write`; past MAX_SPANS only the totals are kept.
"""

from __future__ import annotations

import gc
import gzip
from array import array
from collections import defaultdict
from time import perf_counter_ns

MAX_SPANS = 1_000_000
SETUP = -1


def _con_count(term) -> int:
    """Constructor nodes in a term tree (what Engine.load compiles)."""
    from ambreal.terms import Con, Term

    n = 0
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Con):
            n += 1
        for f in t.__dataclass_fields__:
            v = getattr(t, f)
            if isinstance(v, Term):
                stack.append(v)
            elif isinstance(v, tuple):
                stack.extend(w if isinstance(w, Term) else w.body for w in v)
    return n


class Tracer:
    def __init__(self):
        self.op = SETUP
        self.active = False
        self.names = []
        self._name_ix = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.spans = 0
        self.stack = []  # [span index or -1, name, start, child ns]
        # (phase, name) -> [calls, total ns, self ns]; phase is "setup" or "ops"
        self.agg = defaultdict(lambda: [0, 0, 0])
        self.counts = defaultdict(int)  # ops-phase counters
        self._restore = []
        self._gc_frame = None

    # -- spans ---------------------------------------------------------------

    def enter(self, name):
        ix = -1
        if self.spans < MAX_SPANS:
            ix = self.spans
            nix = self._name_ix.get(name)
            if nix is None:
                nix = self._name_ix[name] = len(self.names)
                self.names.append(name)
            self.span_name.append(nix)
            self.span_parent.append(self.stack[-1][0] if self.stack else -1)
            self.span_op.append(self.op)
            self.span_start.append(0)
            self.span_end.append(0)
        self.spans += 1
        frame = [ix, name, 0, 0]
        self.stack.append(frame)
        frame[2] = perf_counter_ns()
        return frame

    def exit(self, frame):
        end = perf_counter_ns()
        self.stack.pop()
        ix, name, start, child = frame
        dur = end - start
        if ix >= 0:
            self.span_start[ix] = start
            self.span_end[ix] = end
        a = self.agg["setup" if self.op == SETUP else "ops", name]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if self.stack:
            self.stack[-1][3] += dur

    def exclude(self, ns):
        """Take tracer bookkeeping time out of the enclosing span's self time."""
        if self.stack:
            self.stack[-1][3] += ns

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr, name, after=None, span=True):
        """Wrap owner.attr.  after(args, kwargs, result) runs once the span
        has closed, for counters; span=False only counts calls."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if not span:
                tracer.counts[name] += tracer.op != SETUP
                return orig(*args, **kwargs)
            frame = tracer.enter(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None and tracer.op != SETUP:
                t0 = perf_counter_ns()
                after(args, kwargs, result)
                tracer.exclude(perf_counter_ns() - t0)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def _count_fuel(self, args, kwargs, result):
        """Steps of Engine.whnf / resolve_amb / collapse_star(self, t, fuel):
        fuel given minus fuel left; an Unresolved call used all it was given."""
        fuel = args[2] if len(args) > 2 else kwargs.get("fuel", self._unlimited)
        c = self.counts
        if result[0] is None:
            c["engine.unresolved"] += 1
            c["fuel.burnt"] += fuel
        else:
            c["fuel.useful"] += fuel - result[1]

    def _count_load(self, args, kwargs, result):
        self.counts["engine.load_cells"] += _con_count(args[1])

    def install(self):
        from ambreal import codec, compact, engine, intervals, prelude

        self._unlimited = engine.UNLIMITED  # the default fuel
        w = self.wrap
        w(prelude, "load_prelude", "prelude.load_prelude")
        w(prelude, "parse_defs", "terms.parse_defs")
        w(prelude, "check_compatibility", "terms.check_compatibility")
        w(prelude.Prelude, "node", "prelude.node")
        w(engine.Engine, "load", "engine.load", self._count_load)
        for meth in ("whnf", "resolve_amb", "collapse_star"):
            w(engine.Engine, meth, "engine." + meth, self._count_fuel)
        for mod in (codec, compact):
            for fn in ("inject_sd", "inject_gray", "extract_gray", "extract_sd", "gray_encode"):
                if fn in mod.__dict__:
                    w(mod, fn, "codec." + fn)
        w(compact, "grayk_to_sdk", "compact.grayk_to_sdk")
        w(compact, "sdk_to_grayk", "compact.sdk_to_grayk")
        w(compact.EngineGray, "cell_min", "compact.cell_min")
        w(compact.EngineGray, "cell_max", "compact.cell_max")
        w(compact.SDTree, "__init__", "compact.SDTree", span=False)
        w(intervals.IntervalSet, "__init__", "intervals.IntervalSet")
        gc.callbacks.append(self._gc)
        self._restore.append((None, None, None))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            if owner is None:
                gc.callbacks.remove(self._gc)
            else:
                setattr(owner, attr, orig)
        self._restore = []

    def _gc(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._gc_frame = self.enter("runtime.gc")
        elif self.stack and self.stack[-1] is self._gc_frame:
            self.exit(self._gc_frame)

    # -- results -------------------------------------------------------------

    def total(self, phase, *names):
        return sum(self.agg[phase, n][1] for n in names) / 1e9

    def self_s(self, phase, *names):
        return sum(self.agg[phase, n][2] for n in names) / 1e9

    def calls(self, phase, *names):
        return sum(self.agg[phase, n][0] for n in names)

    def write(self, path):
        """Spans as gzip'd tab-separated lines: id, parent, op, name, start
        and end in ns."""
        n = min(self.spans, MAX_SPANS)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(n):
                f.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t{names[self.span_name[i]]}"
                    f"\t{self.span_start[i]}\t{self.span_end[i]}\n"
                )
