"""Span recording around the public functions of the cd3csp layers.

The solver imports its callees by name, so a wrapper has to replace every
module-level binding of a function, not just the one in its defining
module: ``cd3csp.solver.k_minimalize`` and ``cd3csp.consistency.k_minimalize``
are the same object and both are swapped.  ``Tracer.install`` scans every
module of one imported copy of ``cd3csp`` for bindings identical to a
traced function and ``Tracer.restore`` puts the originals back.

Spans live in memory as tuples and are written out once, at the end.
A span is (id, name, start, end, parent id, instance id); times come from
``time.perf_counter``.  Hot helpers (``project``, ``Relation``
construction) are only counted, because a span per call would cost more
than the call itself.
"""

from __future__ import annotations

import json
import time
import types
from collections import defaultdict

# (layer module, function name) pairs that get a span per call.
SPANNED = (
    ("solver", "solve"),
    ("solver", "reduce_to_ideal"),
    ("solver", "quotient_reduce"),
    ("solver", "pullback"),
    ("solver", "base_case_solve"),
    ("consistency", "k_minimalize"),
    ("consistency", "make_subdirect"),
    ("consistency", "effective_instance"),
    ("jonsson", "build_lambda_J"),
    ("jonsson", "reduce_constraint_RJ"),
    ("jonsson", "classify_binary"),
    ("jonsson", "some_proper_ideal"),
    ("jonsson", "is_jonsson_trivial"),
    ("algebra", "check_cd3"),
    ("algebra", "is_simple"),
    ("algebra", "maximal_proper_congruence"),
    ("algebra", "quotient"),
    ("algebra", "restrict"),
    ("relation", "validate_invariance"),
    ("relation", "is_invariant"),
    ("relation", "satisfies"),
)

# Spanned only during set-up, on the copy that generates and writes the
# corpus and on the copy that reads it back; they are not on the solve path.
SETUP_SPANNED = (
    ("generators", "gen_cd3_algebra"),
    ("generators", "gen_instance"),
    ("fileio", "read_instance"),
)

# (layer module, function name) pairs that are only counted.
COUNTED = (("relation", "project"),)


def _package_modules(pkg):
    """The package and its submodules, as attributes of that copy."""
    subs = [
        m
        for m in vars(pkg).values()
        if isinstance(m, types.ModuleType) and m.__name__.startswith("cd3csp.")
    ]
    return [pkg, *subs]


class Tracer:
    """Records spans and counts for the functions it wraps.

    ``instance`` names the corpus instance being solved; every span opened
    while it is set carries it.  ``results`` collects what result hooks
    read off returned objects, per span name.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.results: dict[str, list] = defaultdict(list)
        self.instance = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        hook = _RESULT_HOOKS.get(name)
        results = self.results[name] if hook else None

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the id; filled in on exit
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.instance)
            if hook:
                results.append((self.instance, sid, hook(out)))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, pkg, original, replacement):
        for mod in _package_modules(pkg):
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    # -- install / restore ------------------------------------------------

    def install(self, pkg, targets=SPANNED, counted=COUNTED, count_relations=True):
        """Swap every binding of the targets in the package copy ``pkg``
        for a recording wrapper."""
        for layer, fname in targets:
            original = getattr(getattr(pkg, layer), fname)
            self._rebind(pkg, original, self._span_wrapper(f"{layer}.{fname}", original))
        for layer, fname in counted:
            original = getattr(getattr(pkg, layer), fname)
            self._rebind(pkg, original, self._count_wrapper(f"{layer}.{fname}", original))
        if count_relations:
            rel_cls = pkg.relation.Relation
            post_init = rel_cls.__post_init__
            counts = self.counts

            def counting_post_init(obj):
                counts["relation.Relation.constructions"] += 1
                post_init(obj)

            self._patched.append((rel_cls, "__post_init__", post_init))
            rel_cls.__post_init__ = counting_post_init
        return self

    def restore(self):
        """Put back every binding install() replaced, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- reading the record -----------------------------------------------

    def closed_spans(self):
        return [s for s in self.spans if s is not None]

    def summary(self):
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is the span's duration minus the durations of its direct
        children; children of one span never overlap in this
        single-threaded recorder.
        """
        spans = self.closed_spans()
        child_time = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for sid, name, start, end, _, _ in spans:
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += (end - start) - child_time[sid]
        return out

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        keys = ("id", "name", "start", "end", "parent", "instance")
        with open(path, "w") as fh:
            for span in self.closed_spans():
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ksystem_sizes(mi):
    entries = mi.system.entries
    return {
        "entries": len(entries),
        "tuples": sum(len(rel) for rel in entries.values()),
        "empty": bool(mi.empty_flag),
    }


_RESULT_HOOKS = {
    "consistency.k_minimalize": _ksystem_sizes,
    "jonsson.build_lambda_J": lambda red: {"level_sets": len(red.lamj)},
}
