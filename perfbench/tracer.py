"""Per-module timing for the traced run, by wrapping module boundaries.

The benchmark replaces the names one cayleysort module imports from another
(``census._run_word``, ``census.contains``, ``dyck.run_stack``, ...) and the
module attributes the CLI and the benchmark call (``census.count_sortable``,
``dyck.encode``, ...) with wrappers.  Nothing inside the package changes.

Each call through a wrapper is a span, but spans are not kept: a sweep makes
about a million calls, so each boundary aggregates in place its count, total
time, self time (total minus the time of spans opened inside it) and items
yielded, keyed by (span, parent span).  The aggregates are written out when
the run ends.
"""

from __future__ import annotations

import functools
import time

ROOT = "<bench>"


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list[float]] = {}
        self.frames: list[list] = []

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [name, 0.0, time.perf_counter()]
        self.frames.append(frame)
        return frame

    def _exit(self, frame: list, items: int = 0) -> None:
        elapsed = time.perf_counter() - frame[2]
        frames = self.frames
        frames.pop()
        parent = frames[-1] if frames else None
        if parent is not None:
            parent[1] += elapsed
        key = (frame[0], parent[0] if parent is not None else ROOT)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0.0, 0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]
        rec[3] += items

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def wrap_iter(self, name: str, fn):
        """Wrap a function returning an iterator: the call and every
        ``next`` are spans, and each yielded item is counted."""

        def step(it):
            while True:
                frame = self._enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    self._exit(frame)
                    return
                except BaseException:
                    self._exit(frame)
                    raise
                self._exit(frame, 1)
                yield item

        call = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return step(call(*args, **kwargs))

        return traced

    def wrap_factory(self, name: str, fn):
        """Wrap a function that returns a callable: calls of the returned
        callable are spans."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.wrap(name, fn(*args, **kwargs))

        return traced


# Boundaries: (module, attribute, span name, kind).  A span is named after
# the module that defines the function, so time spent in core while census
# calls it counts as core time.
BOUNDARIES = (
    # names census imports
    ("census", "_iter_letters", "core.generate", "iter"),
    ("census", "generate_all", "core.generate", "iter"),
    ("census", "is_weakly_increasing", "core.other", "call"),
    ("census", "hat", "core.other", "call"),
    ("census", "reverse", "core.other", "call"),
    ("census", "fubini_numbers", "core.other", "call"),
    ("census", "contains", "pattern.contains", "call"),
    ("census", "contains_mesh", "pattern.contains_mesh", "call"),
    ("census", "subpatterns", "pattern.subpatterns", "call"),
    ("census", "_run_word", "stack.run", "call"),
    ("census", "tortoise_blocks", "stack.other", "call"),
    # names stack imports
    ("stack", "_iter_letters", "core.generate", "iter"),
    ("stack", "is_weakly_increasing", "core.other", "call"),
    ("stack", "contains", "pattern.contains", "call"),
    # names pattern imports, and its own subpatterns (minimal_non_members
    # calls it once per candidate)
    ("pattern", "generate_all", "core.generate", "iter"),
    ("pattern", "normalize", "core.normalize", "call"),
    ("pattern", "subpatterns", "pattern.subpatterns", "call"),
    # names dyck imports
    ("dyck", "run_stack", "stack.run", "call"),
    # names cli imports
    ("cli", "generate_all", "core.generate", "iter"),
    ("cli", "reverse", "core.other", "call"),
    ("cli", "fubini_numbers", "core.other", "call"),
    # module attributes the CLI and the benchmark call
    ("census", "count_sortable", "census.count_sortable", "call"),
    ("census", "tortoise_refined", "census.tortoise_refined", "call"),
    ("census", "classify_sigma", "census.classify_sigma", "call"),
    ("census", "verify_class", "census.verify_class", "call"),
    ("census", "witness_non_class", "census.witness_non_class", "call"),
    ("census", "mesh21_violations", "census.mesh21_violations", "iter"),
    ("census", "popstack_violations", "census.popstack_violations", "iter"),
    ("census", "verify_bijectivity", "census.verify_bijectivity", "call"),
    ("census", "verify_involution", "census.verify_involution", "call"),
    ("census", "sort11_equinumerosity", "census.sort11_equinumerosity", "call"),
    ("census", "verify_fubini", "census.verify_fubini", "call"),
    ("census", "sortable_predicate", "census.member", "factory"),
    ("pattern", "minimal_non_members", "pattern.minimal_non_members", "call"),
    ("pattern", "avoids_all", "pattern.avoids_all", "call"),
    ("stack", "s_sigma", "stack.run", "call"),
    ("stack", "is_sigma_sortable", "stack.run", "call"),
    ("stack", "run_stack", "stack.run", "call"),
    ("stack", "run_popstack", "stack.run", "call"),
    ("stack", "fertility", "stack.run", "call"),
    ("dyck", "encode", "dyck.encode", "call"),
    ("dyck", "heights", "dyck.path", "call"),
    ("dyck", "valleys", "dyck.path", "call"),
    ("dyck", "matched_pairs", "dyck.path", "call"),
    ("dyck", "reverse_path", "dyck.path", "call"),
    ("cli", "main", "cli.main", "call"),
)


def install(tracer: Tracer, modules: dict) -> None:
    """Wrap every boundary in `modules` (short name -> module object)."""
    wrappers = {"call": tracer.wrap, "iter": tracer.wrap_iter, "factory": tracer.wrap_factory}
    for module, attr, name, kind in BOUNDARIES:
        mod = modules[module]
        setattr(mod, attr, wrappers[kind](name, getattr(mod, attr)))


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-round layer figures from the aggregates (see README)."""
    totals: dict[str, list[float]] = {}
    for (name, _parent), (count, _total, self_time, items) in tracer.stats.items():
        rec = totals.setdefault(name, [0, 0.0, 0])
        rec[0] += count
        rec[1] += self_time
        rec[2] += items

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0, 0))[1] for n in names)

    def calls(name):
        return totals.get(name, (0, 0.0, 0))[0]

    census_spans = [n for n in totals if n.startswith("census.")]
    metrics = {
        "core.generate_s": self_s("core.generate"),
        "core.words": totals.get("core.generate", (0, 0.0, 0))[2],
        "core.normalize_s": self_s("core.normalize"),
        "core.other_s": self_s("core.other"),
        "stack.run_s": self_s("stack.run"),
        "stack.runs": calls("stack.run"),
        "stack.other_s": self_s("stack.other"),
        "pattern.contains_s": self_s("pattern.contains"),
        "pattern.contains_calls": calls("pattern.contains"),
        "pattern.contains_mesh_s": self_s("pattern.contains_mesh"),
        "pattern.contains_mesh_calls": calls("pattern.contains_mesh"),
        "pattern.subpatterns_s": self_s("pattern.subpatterns"),
        "pattern.subpatterns_calls": calls("pattern.subpatterns"),
        "pattern.member_calls": calls("census.member"),
        "pattern.other_s": self_s("pattern.minimal_non_members", "pattern.avoids_all"),
        "dyck.encode_s": self_s("dyck.encode"),
        "dyck.encode_calls": calls("dyck.encode"),
        "dyck.path_s": self_s("dyck.path"),
        "census.self_s": self_s(*census_spans),
        "cli.self_s": self_s("cli.main"),
    }
    return {k: v / rounds for k, v in metrics.items()}
