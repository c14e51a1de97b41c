"""Span tracer that wraps tridet's public functions from outside the library.

Each module binds the names it imports at import time, so a function is
wrapped at every module attribute that holds it: ``tridet.identities.
det_prefixes`` and ``tridet.determinant.det_prefixes`` both get the wrapper.
Layer boundaries record spans (name, start, end, parent) kept in memory;
high-frequency leaves (``seq_term``, ``binomial``, ``multinomial`` and the
``partitions``/``compositions`` generators) are folded into counters whose
time is charged to the enclosing span, so a span's self time is its length
minus its child spans minus its folded leaves.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

_clock = time.perf_counter

SPANS = (
    ("cli", "run"),
    ("identities", "check_all"),
    ("determinant", "make_entries"),
    ("determinant", "det_prefixes"),
    ("determinant", "det_recurrence"),
    ("determinant", "det_trudi_partitions"),
    ("determinant", "det_trudi_compositions"),
    ("determinant", "det_dense"),
    ("series", "expand_rational"),
    ("series", "gf_catalog"),
    ("sequences", "seq_range"),
    ("tilings", "count_tilings"),
    ("tilings", "enumerate_tilings"),
)
LEAVES = (
    ("sequences", "seq_term"),
    ("combinatorics", "binomial"),
    ("combinatorics", "multinomial"),
)
GENERATORS = (
    ("combinatorics", "partitions"),
    ("combinatorics", "compositions"),
)
# registry cases' callables, wrapped by rebuilding each case
CASE_SPANS = ("identities.rhs", "identities.pair")

# (layer, its count) for every wrapped function, in report order
LAYERS = (
    [("%s.%s" % pair, "calls") for pair in SPANS + LEAVES]
    + [(name, "calls") for name in CASE_SPANS]
    + [("%s.%s" % pair, "yields") for pair in GENERATORS]
)
# counters kept by the notes below and by the harness, with their units
EXTRA_COUNTS = (
    ("determinant.det_prefixes.rows", "count"),
    ("determinant.det_prefixes.mults", "count"),
    ("determinant.lhs_max_bits", "bit"),
    ("series.expand_rational.terms", "count"),
    ("identities.reports", "count"),
    ("sequences.max_index", "count"),
    ("cli.output_bytes", "byte"),
)


# counters that keep a maximum rather than a sum
MAX_COUNTS = ("determinant.lhs_max_bits", "sequences.max_index")


def _bits(value) -> int:
    return abs(value).bit_length() if isinstance(value, int) else 0


def _note_det_prefixes(counts: Counter, args, result) -> None:
    n = args[0].n
    counts["determinant.det_prefixes.rows"] += n
    counts["determinant.det_prefixes.mults"] += n * (n + 1) // 2
    _note_lhs(counts, max(result, key=_bits))


def _note_lhs(counts: Counter, value) -> None:
    counts["determinant.lhs_max_bits"] = max(counts["determinant.lhs_max_bits"], _bits(value))


def _note_max_index(counts: Counter, index: int) -> None:
    counts["sequences.max_index"] = max(counts["sequences.max_index"], index)


NOTES: Dict[str, Callable] = {
    "determinant.det_prefixes": _note_det_prefixes,
    "determinant.det_recurrence": lambda c, a, r: _note_lhs(c, r),
    "determinant.det_trudi_partitions": lambda c, a, r: _note_lhs(c, r),
    "determinant.det_trudi_compositions": lambda c, a, r: _note_lhs(c, r),
    "determinant.det_dense": lambda c, a, r: _note_lhs(c, r),
    "series.expand_rational": lambda c, a, r: c.update({"series.expand_rational.terms": a[1]}),
    "identities.check_all": lambda c, a, r: c.update({"identities.reports": len(r[0])}),
    "sequences.seq_range": lambda c, a, r: _note_max_index(c, a[2]),
    "sequences.seq_term": lambda c, a, r: _note_max_index(c, a[1]),
}


class Tracer:
    """Spans and counters for one traced run; install() patches, uninstall() restores."""

    def __init__(self) -> None:
        self._patched: List[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters; patches stay as they are."""
        # span: [name, start, end, parent index or -1, folded leaf seconds, own index]
        self.spans: List[list] = []
        self._open: List[list] = []
        self.counts: Counter = Counter()
        self.leaf_s: Counter = Counter()

    # recording

    def begin(self, name: str) -> list:
        parent = self._open[-1][5] if self._open else -1
        span = [name, _clock(), 0.0, parent, 0.0, len(self.spans)]
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: list) -> None:
        span[2] = _clock()
        self._open.pop()

    def _fold(self, name: str, seconds: float) -> None:
        self.leaf_s[name] += seconds
        if self._open:
            self._open[-1][4] += seconds

    def span(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            counts[name + ".calls"] += 1
            if note is not None:
                note(counts, args, result)
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)
        counts = self.counts

        def wrapper(*args):
            t0 = _clock()
            result = fn(*args)
            self._fold(name, _clock() - t0)
            counts[name + ".calls"] += 1
            if note is not None:
                note(counts, args, result)
            return result

        return wrapper

    def generator(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            it = fn(*args)
            while True:
                t0 = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    self._fold(name, _clock() - t0)
                    return
                self._fold(name, _clock() - t0)
                counts[name + ".yields"] += 1
                yield item

        return wrapper

    # patching

    def install(self, package) -> None:
        """Wrap every traced function at each tridet module attribute holding it."""
        modules = [package] + [
            m for key, m in sorted(sys.modules.items()) if key.startswith(package.__name__ + ".")
        ]
        wrappers = {}
        for kinds, make in ((SPANS, self.span), (LEAVES, self.leaf), (GENERATORS, self.generator)):
            for mod, attr in kinds:
                original = getattr(sys.modules["%s.%s" % (package.__name__, mod)], attr)
                wrappers[id(original)] = (original, make("%s.%s" % (mod, attr), original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._set(module, attr, wrappers[id(value)][1])
        cli = sys.modules[package.__name__ + ".cli"]
        methods = cli._DET_METHODS
        for key, value in list(methods.items()):
            if id(value) in wrappers:
                self._patched.append((methods.__setitem__, key, value))
                methods[key] = wrappers[id(value)][1]
        identities = sys.modules[package.__name__ + ".identities"]
        self._set(identities, "registry", self._traced_registry(identities.registry))

    def _set(self, module, attr: str, value) -> None:
        self._patched.append((lambda k, v, m=module: setattr(m, k, v), attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _traced_registry(self, registry: Callable) -> Callable:
        rhs_name, pair_name = CASE_SPANS

        def traced():
            return [
                dataclasses.replace(
                    case,
                    evaluate=self.span(pair_name, case.evaluate),
                    rhs=None if case.rhs is None else self.span(rhs_name, case.rhs),
                )
                for case in registry()
            ]

        return traced

    def uninstall(self) -> None:
        while self._patched:
            setter, key, value = self._patched.pop()
            setter(key, value)

    # results

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "leaf_s": dict(self.leaf_s)}

    def absorb(self, dump: dict) -> None:
        """Append another process's spans and counters, re-basing parent links."""
        base = len(self.spans)
        parent = self._open[-1][5] if self._open else -1
        for name, start, end, up, folded, index in dump["spans"]:
            self.spans.append([name, start, end, parent if up < 0 else up + base, folded, index + base])
        for key, value in dump["counts"].items():
            if key in MAX_COUNTS:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        self.leaf_s.update(dump["leaf_s"])

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name and per folded leaf, summed over all spans."""
        child_s = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, float] = defaultdict(float)
        for name, start, end, _, folded, index in self.spans:
            out[name] += (end - start) - child_s[index] - folded
        for name, seconds in self.leaf_s.items():
            out[name] += seconds
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, folded, index in self.spans:
                fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                     "parent": parent, "folded_s": folded}) + "\n")

