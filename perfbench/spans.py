"""In-memory spans and call counters around verkit's public functions.

The package itself is not edited: `instrument` rebinds each listed function,
in every loaded ``verkit`` module that refers to it, to a wrapper that opens
a span (name, start, end, parent, tag) or bumps a counter, and returns a
function that puts the originals back.  Span clocks are
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so spans recorded in child
processes nest under the parent's spans without conversion.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# Entry points that get a span (and a call counter), per module.
TIMED = {
    "linalg": ["det", "is_positive_definite", "smith_normal_form", "permutation_equivalent"],
    "cyclo": ["verify_cd_eq_p", "fpdim_category", "fpdim_simple", "fpdim_projective"],
    "catalog": ["build", "verify_all", "cartan_character", "stable_gr", "block_cartan_dets"],
    "digits": [
        "cartan_descendant",
        "cartan_kronecker",
        "decomposition_matrix",
        "extended_decomposition_row",
        "block_partition",
    ],
    "tilting": ["invariant_dims", "series_fn", "tensor_decompose", "decompose_tilting"],
    "charring": ["mul", "weyl_expand"],
    "grring": ["fuse_simples", "fold_projectives", "check_ring_hom_fusion"],
    "cli": ["load_or_build", "category_payload", "fold_text"],
}

# Functions called thousands of times per operation: counted only, so their
# time stays with the enclosing span and tracing stays cheap.
COUNTED = {
    "cyclo": ["qint"],
    "digits": ["steinberg_label"],
    "tilting": ["tilting_char"],
    "grring": ["projective_class", "tilting_class"],
}

# The modules whose self time is reported; the benchmark's own spans are
# named "bench.*" and their self time is the unattributed time.
MODULES = ["cli", "catalog", "linalg", "cyclo", "digits", "tilting", "charring", "grring"]


class Tracer:
    """Spans kept as lists [name, start, end, parent_index, tag]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, name: str, tag: str | None = None, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent, tag])
        self._stack.append(idx)
        return idx

    def close(self, end: float | None = None) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter() if end is None else end

    def add(self, name: str, start: float, end: float, tag: str | None = None) -> None:
        """Record a closed span under the open span."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else None, tag])

    def adopt(self, dump: dict) -> None:
        """Attach spans recorded by another process under the open span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for name, start, end, par, tag in dump["spans"]:
            self.spans.append([name, start, end, parent if par is None else par + base, tag])
        self.counts.update(dump["counts"])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _json_bytes(directory: str) -> dict[str, tuple[int, int]]:
    out = {}
    for entry in os.scandir(directory):
        if entry.name.endswith(".json"):
            st = entry.stat()
            out[entry.name] = (st.st_size, st.st_mtime_ns)
    return out


def _cache_before(tracer, args, kwargs):
    cache_dir = kwargs.get("cache_dir", args[2] if len(args) > 2 else None)
    before = _json_bytes(cache_dir) if cache_dir and os.path.isdir(cache_dir) else {}
    return cache_dir, before, tracer.counts["catalog.build_calls"]


def _cache_after(tracer, state, out):
    """Hit/miss and bytes of `cli.load_or_build`, measured on the cache dir.

    A call is a hit when it did not call `catalog.build`.  Bytes read on a
    hit are the sizes of the JSON files in the cache directory (the benchmark
    gives every category its own directory); bytes written are the sizes of
    files that appeared or changed during the call.
    """
    cache_dir, before, builds = state
    after = _json_bytes(cache_dir) if cache_dir else {}
    if tracer.counts["catalog.build_calls"] == builds:
        tracer.counts["cli.cache_hits"] += 1
        tracer.counts["cli.cache_bytes_read"] += sum(size for size, _ in after.values())
    else:
        tracer.counts["cli.cache_bytes_written"] += sum(
            size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime)
        )


def _det_before(tracer, args, kwargs):
    """Computed operation count of fraction-free elimination: k^3 per call."""
    tracer.counts["linalg.det_k3"] += args[0].shape[0] ** 3


def _checks_after(tracer, state, out):
    tracer.counts["catalog.checks_failed"] += len(out.failed())


# Extra counts taken around a call: name -> (before, after).
HOOKS = {
    "cli.load_or_build": (_cache_before, _cache_after),
    "linalg.det": (_det_before, None),
    "catalog.verify_all": (None, _checks_after),
}


def _timed(tracer: Tracer, name: str, fn):
    before, after = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name + "_calls"] += 1
        state = before(tracer, args, kwargs) if before else None
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after:
            after(tracer, state, out)
        return out

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    key = name + "_calls"
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def instrument(tracer: Tracer):
    """Wrap the listed functions of every loaded verkit module; return undo."""
    loaded = [m for name, m in sys.modules.items() if name == "verkit" or name.startswith("verkit.")]
    patched = []
    for kinds, make in ((TIMED, _timed), (COUNTED, _counted)):
        for module, names in kinds.items():
            mod = sys.modules.get(f"verkit.{module}")
            if mod is None:
                continue
            for fname in names:
                orig = getattr(mod, fname)
                wrapper = make(tracer, f"{module}.{fname}", orig)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, orig))

    def restore() -> None:
        for m, attr, orig in reversed(patched):
            setattr(m, attr, orig)

    return restore


def analyse(spans: list[list]) -> dict:
    """Self times per module, inclusive times per span name, per tag group.

    The keys of by_group are (span name, group) and of self_by_group
    (module, group).

    A span's self time is its duration minus the durations of its children.
    Inclusive time per name counts only the outermost span of that name on
    each path, so recursion is not double counted.  A span's group is the
    tag of its nearest tagged ancestor (itself included).
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, tag in spans:
        if parent is not None:
            child_time[parent] += end - start
    group: list[str | None] = [None] * n
    module_self: Counter = Counter()
    inclusive: Counter = Counter()
    by_group: Counter = Counter()
    self_by_group: Counter = Counter()
    worst = 0.0
    for i, (name, start, end, parent, tag) in enumerate(spans):
        if parent is not None and not (spans[parent][1] <= start and end <= spans[parent][2]):
            worst = max(worst, spans[parent][1] - start, end - spans[parent][2])
        self_time = end - start - child_time[i]
        worst = max(worst, -self_time)
        group[i] = tag if tag is not None else (group[parent] if parent is not None else None)
        module_self[name.split(".", 1)[0]] += self_time
        self_by_group[(name.split(".", 1)[0], group[i])] += self_time
        outer = True
        j = parent
        while j is not None:
            if spans[j][0] == name:
                outer = False
                break
            j = spans[j][3]
        if outer:
            inclusive[name] += end - start
            by_group[(name, group[i])] += end - start
    wall = sum(end - start for _, start, end, parent, _ in spans if parent is None)
    return {
        "module_self": module_self,
        "inclusive": inclusive,
        "by_group": by_group,
        "self_by_group": self_by_group,
        "wall": wall,
        "nesting_error": worst,
    }
