"""Span recorder for the traced benchmark run.

Spans come from wrappers installed by rebinding module attributes, so the
library itself is untouched: a call that goes through ``codec.encode`` (from
the benchmark, the CLI or the segmented layer) is recorded, while the same
function reached through another name is not.  Each span holds its name,
start, end, parent span and the benchmark item it belongs to, plus an
optional exact work count taken at the boundary (symbols scanned, repair
steps, segments, words enumerated, bytes read or written).  Spans stay in
memory until ``dump``.
"""

from __future__ import annotations

import csv
import os
import time
from collections import defaultdict

# (module attribute, span name, work count taken from (args, result) or None)
WRAPPED = [
    ("codec", "first_violation", "periodicity.first_violation", lambda a, r: len(a[0])),
    ("codec", "encode", "codec.encode", lambda a, r: len(r[1].steps)),
    ("codec", "decode", "codec.decode", None),
    ("codec", "inverse_repair", "codec.inverse_repair", None),
    ("segmented", "extension_symbol", "periodicity.extension_symbol", None),
    ("segmented", "encode", "segmented.encode", lambda a, r: a[1].k),
    ("segmented", "decode", "segmented.decode", None),
    ("segmented", "select_construction", "segmented.select_construction", None),
    ("cli", "read_words", "cli.read_words", lambda a, r: os.path.getsize(a[0])),
    ("cli", "main", "cli.main", lambda a, r: _out_bytes(a[0])),
    ("cardinality", "count_brute", "cardinality.count_brute", lambda a, r: a[0].q ** a[0].n),
    ("cardinality", "lpa_count_upper", "cardinality.lpa_count_upper", None),
    ("cardinality", "lpa_count_lower", "cardinality.lpa_count_lower", None),
    ("cardinality", "build_report", "cardinality.build_report", None),
]


def _out_bytes(argv) -> int:
    """Size of the file a CLI call wrote through ``--out`` (0 for none)."""
    if "--out" not in argv:
        return 0
    path = argv[argv.index("--out") + 1]
    return 0 if path == "-" else os.path.getsize(path)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, item, work)
        self._stack: list[int] = []
        self.item = -1
        self.active = False

    def wrap(self, name, fn, work):
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.item, 0)
            if work is not None:
                self.spans[idx] = (name, start, end, parent, self.item, work(args, result))
            return result

        return traced

    def install(self, modules: dict) -> None:
        for mod, attr, name, work in WRAPPED:
            setattr(modules[mod], attr, self.wrap(name, getattr(modules[mod], attr), work))

    def dump(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "name", "start", "end", "parent", "item", "work"])
            for i, (name, start, end, parent, item, work) in enumerate(self.spans):
                out.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, item, work])

    def summary(self) -> dict:
        """Per span name: calls, busy seconds, self seconds and summed work.

        Self time is a span's duration minus the durations of its direct
        children; the wrappers only nest, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0})
        for i, (name, start, end, _, _, work) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["work"] += work
        return out
