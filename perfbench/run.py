"""lpacodes benchmark: one workload per call, end-to-end or per-layer metrics.

Run from the repository root (needs only Python and numpy; the package is
imported from ./src):

    python3 perfbench/run.py --workload random-msgs --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run: ``setup_s``
is the median of several fresh processes that import lpacodes and derive the
workload's parameters; the others come from one fresh process that loops
over whole passes of the inputs for ``--seconds``.  ``--trace 1`` prints the
per-layer metrics: one untraced and two traced processes each run the same
fixed number of passes; the traced ones record spans around calls into each
module, and their exact counts must agree.  Every process is a closed loop:
one thread, each call waiting for the previous one.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("random-msgs", "adversarial-msgs", "cli-segmented", "count-plan")
SETUP_RUNS = 7
DEADLINE_S = 170
# Per-layer metrics that are exact counts: two traced runs must agree on them.
EXACT = (
    "periodicity.first_violation.calls",
    "periodicity.symbols_scanned_per_msg_sym",
    "codec.repair_steps_per_msg",
    "codec.inverse_repair.calls",
    "segmented.segments_per_msg",
    "cli.bytes_in",
    "cli.bytes_out",
    "cardinality.count_brute.calls",
    "cardinality.words_enumerated",
)


class ChildFailed(Exception):
    pass


def child(deadline, *args):
    """Run one child process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("out of time before starting a benchmark process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *map(str, args)],
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"benchmark process timed out: {args}") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise ChildFailed(f"benchmark process exited with {proc.returncode}: {args}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(deadline, workload, seed, seconds):
    setups = [child(deadline, "setup", workload)["setup_s"] for _ in range(SETUP_RUNS)]
    res = child(deadline, "run", workload, seed, seconds, "timed")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (res["items_per_s"], "1/s"),
        "item_ms_p50": (res["item_ms_p50"], "ms"),
        "item_ms_p90": (res["item_ms_p90"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    detail = dict(res["detail"])
    detail["error_rate"] = (res["failed"] / res["attempted"], "1")
    detail["passes"] = (res["passes"], "count")
    return metrics, detail, res["attempted"], res["failed"], []


def per_layer(deadline, workload, seed, seconds):
    plain = child(deadline, "run", workload, seed, seconds, "fixed")
    traced = [child(deadline, "run", workload, seed, seconds, "traced", k) for k in (1, 2)]
    layers = dict(traced[0]["layers"])
    layers["trace.overhead_ratio"] = (traced[0]["items_per_s"] / plain["items_per_s"], "ratio")
    problems = [
        f"exact count {name} differs between traced runs: "
        f"{traced[0]['layers'][name][0]} != {traced[1]['layers'][name][0]}"
        for name in EXACT
        if traced[0]["layers"][name] != traced[1]["layers"][name]
    ]
    runs = [plain, *traced]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return layers, {}, attempted, failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "lpacodes" / "__init__.py").is_file():
        print("run.py: no src/lpacodes here; run from the repository root", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, detail, attempted, failed, problems = measure(
            deadline, args.workload, args.seed, args.seconds
        )
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for problem in problems:
        print(f"run.py: {problem}", file=sys.stderr)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in {**metrics, **{f"detail.{k}": v for k, v in detail.items()}}.items():
        print(f"  {name:45s} {value:>16.6g} {unit}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
