"""Regenerate ``pins.json``, the exact-count pool of the count-plan workload.

Run from the repository root:  python3 perfbench/make_pins.py

Each class is one (family, q, n) tier; its members vary l and p (or k), so
members of a class cost about the same to enumerate.  A candidate is kept
only if no count it triggers (the report's own, plus the zero-run counts
behind its upper bound and closed form) is triggered by an earlier kept
candidate: any subset of the pool then never hits the count cache.  The
pinned values are the enumerated counts; every kept report must also be
internally consistent (``violations() == []``).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from lpacodes import cardinality  # noqa: E402
from lpacodes.cardinality import CountQuery, Family  # noqa: E402

# (family, q, n, periods); RLL classes take every run length 1 <= k <= n
CLASSES = [
    ("A", 2, 18, (3, 4, 5, 6)),
    ("B", 2, 17, (5, 6, 7, 8, 9, 10)),
    ("R", 2, 18, None),
    ("R", 2, 19, None),
    ("R", 2, 20, None),
    ("A", 3, 11, (3, 4, 5, 6, 7, 8)),
    ("A", 4, 9, (3, 4, 5, 6, 7, 8)),
]


def candidates(family, q, n, periods):
    if family == "R":
        for k in range(1, n + 1):
            yield CountQuery(Family.RLL, q, n, k=k)
        return
    for p in periods:
        for l in range(p + 1, n + 1):
            yield CountQuery(Family(family), q, n, l=l, p=p)


def main() -> None:
    keys_seen: set = set()
    touched: list = []
    inner = cardinality.count_brute

    def recording(query, *args, **kwargs):
        touched.append((query.family, query.q, query.n, query.l, query.p, query.k))
        return inner(query, *args, **kwargs)

    cardinality.count_brute = recording
    classes = []
    for spec in CLASSES:
        members = []
        for query in candidates(*spec):
            touched.clear()
            report = cardinality.build_report(query)
            keys = set(touched)
            if keys & keys_seen:
                continue
            if report.violations():
                raise SystemExit(f"inconsistent report for {query}: {report.violations()}")
            keys_seen |= keys
            members.append(
                {
                    "family": query.family.value,
                    "q": query.q,
                    "n": query.n,
                    "l": query.l,
                    "p": query.p,
                    "k": query.k,
                    "exact": report.exact,
                }
            )
        print(f"{spec[:3]}: {len(members)} members", file=sys.stderr)
        classes.append(members)
    body = ",\n".join("[\n" + ",\n".join(map(json.dumps, members)) + "\n]" for members in classes)
    Path(__file__).with_name("pins.json").write_text('{"classes": [\n' + body + "\n]}\n")


if __name__ == "__main__":
    main()
