"""One benchmark process: generate a workload's inputs, run it, check it.

``run.py`` starts a fresh one of these for every measurement, so each
workload has its own peak RSS, pays its own import cost and starts with an
empty count cache.  Run from the repository root:

    python3 perfbench/child.py setup WORKLOAD
    python3 perfbench/child.py run WORKLOAD SEED SECONDS {timed|fixed|traced} [TAG]

``setup`` times ``import lpacodes`` plus the workload's one-off parameter
derivation.  ``run`` generates the inputs from SEED before any clock starts
and then runs whole passes over them: ``timed`` until SECONDS of wall time
have gone by, ``fixed`` and ``traced`` for the workload's fixed number of
trace passes, so that exact counts can be compared between processes.
``traced`` also records spans (written to ``perfbench/out/``).  Every output
is checked outside the clock.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# kind: what the item exercises; symbols: message symbols it carries;
# payload: the workload's own input record.
Item = namedtuple("Item", "kind symbols payload")


def import_lpacodes():
    src = ROOT / "src"
    if not (src / "lpacodes" / "__init__.py").is_file():
        raise SystemExit(f"no lpacodes sources under {src}")
    sys.path.insert(0, str(src))
    import lpacodes
    from lpacodes import cardinality, cli, codec, periodicity, segmented

    if not Path(lpacodes.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported lpacodes from {lpacodes.__file__}, not {src}")
    return {
        "cardinality": cardinality,
        "cli": cli,
        "codec": codec,
        "periodicity": periodicity,
        "segmented": segmented,
    }


def percentiles(values, qs=(50, 90)):
    import numpy as np

    return [float(v) for v in np.percentile(values, qs)] if values else [0.0] * len(qs)


# ----------------------------------------------------------------- workloads


class CodecWorkload:
    """Library ``encode`` -> ``decode`` round trip on in-memory messages."""

    def __init__(self, mods):
        self.codec = mods["codec"]
        self.first_violation = mods["periodicity"].first_violation
        self.Word = mods["periodicity"].Word

    def pass_items(self, index):
        return self.items

    def run(self, item):
        params, x = item.payload
        t0 = time.perf_counter()
        y, _ = self.codec.encode(x, params)
        t1 = time.perf_counter()
        z = self.codec.decode(y, params)
        t2 = time.perf_counter()
        return (y, z), t1 - t0, t2 - t1

    def check(self, item, out):
        params, x = item.payload
        y, z = out
        return (
            z == x
            and len(y) == params.n + 1
            and self.first_violation(y, params.l, params.p) is None
        )

    def detail(self, records, passes):
        return symbol_detail(records)


def symbol_detail(records):
    """Throughput and per-symbol latency for workloads that move messages."""
    symbols = sum(item.symbols for item, _, _ in records)
    enc = sum(a for _, a, _ in records)
    dec = sum(b for _, _, b in records)
    p50, p90 = percentiles([(a + b) * 1e9 / item.symbols for item, a, b in records])
    return {
        "throughput_sym_per_s": (symbols / (enc + dec), "sym/s"),
        "encode_sym_per_s": (symbols / enc, "sym/s"),
        "decode_sym_per_s": (symbols / dec, "sym/s"),
        "roundtrip_ns_per_sym_p50": (p50, "ns/sym"),
        "roundtrip_ns_per_sym_p90": (p90, "ns/sym"),
        "roundtrip_samples": (len(records), "count"),
    }


class RandomMsgs(CodecWorkload):
    """Uniformly random messages over the (q, p, n) grid: 0-1 repairs each,
    so encode time is almost all window scan."""

    GRID = [(q, p, n) for q in (2, 4) for p in (3, 4, 6) for n in (10**4, 10**5, 10**6)]
    # Two messages each at 10^5 and 10^6 per pass put p50 and p90 in the
    # middle of a group of equal-sized messages, not on the edge between two
    # groups where one slow sample moves them.
    COPIES = {10**4: 1, 10**5: 2, 10**6: 2}
    TRACE_PASSES = 8
    WARMUP_PASSES = 1

    def derive(self):
        self.params = {(q, p, n): self.codec.derive_params(q, n, p) for q, p, n in self.GRID}

    def make_inputs(self, rng):
        self.rng = rng

    def pass_items(self, index):
        # Fresh messages every pass (made before the pass's clock starts):
        # 2-17% of them need a repair, which doubles their encode time, so a
        # fixed handful of messages would make the cost depend on the seed.
        return [
            Item("msg", n, (self.params[q, p, n], self.Word(self.rng.integers(0, q, size=n), q)))
            for q, p, n in self.GRID
            for _ in range(self.COPIES[n])
        ]


class AdversarialMsgs(CodecWorkload):
    """Messages that force hundreds of repairs: all-zero, 0101..., the
    period-3 tiling 001..., and random heads over all-zero tails."""

    Q, P = 2, 4
    SIZES = (3000, 4000, 5000)
    TRACE_PASSES = 2
    WARMUP_PASSES = 1

    def derive(self):
        self.params = {n: self.codec.derive_params(self.Q, n, self.P) for n in self.SIZES}

    def make_inputs(self, rng):
        import numpy as np

        self.items = []
        for n in self.SIZES:
            idx = np.arange(n)
            quarter = np.zeros(n, dtype=np.int64)
            quarter[: n // 4] = rng.integers(0, self.Q, size=n // 4)
            half = np.zeros(n, dtype=np.int64)
            half[: n // 2] = rng.integers(0, self.Q, size=n // 2)
            for arr in (np.zeros(n, dtype=np.int64), idx % 2, (idx % 3 == 2).astype(np.int64), quarter, half):
                self.items.append(Item("msg", n, (self.params[n], self.Word(arr, self.Q))))


class CliSegmented:
    """In-process ``lpacodes.cli.main`` on word files: segmented encode and
    decode at two window lengths, plain encode and decode, and ``check`` on
    every codeword file."""

    N, Q, P = 10**5, 2, 4
    LAYOUTS = (16, 12, None)  # segmented window lengths; None is the plain codec
    TRACE_PASSES = 4
    WARMUP_PASSES = 1

    def __init__(self, mods):
        self.mods = mods
        self.cli = mods["cli"]
        self.dir = OUT / f"cli-{os.getpid()}"

    def derive(self):
        seg = self.mods["segmented"]
        plain = self.mods["codec"].derive_params(self.Q, self.N, self.P)
        # (window checked over the whole codeword, codeword length)
        self.expect = {None: (plain.l, self.N + 1)}
        for l in self.LAYOUTS[:-1]:
            sp = seg.select_construction(self.Q, self.N, l, self.P).params
            self.expect[l] = (l, self.N + sp.total_redundancy)

    def make_inputs(self, rng):
        self.dir.mkdir(parents=True, exist_ok=True)
        self.items = []
        for l in self.LAYOUTS:
            tag = f"seg{l}" if l else "plain"
            msg = self.dir / f"{tag}-msg.txt"
            text = "".join(map(str, rng.integers(0, self.Q, size=self.N).tolist())) + "\n"
            msg.write_text(text)
            files = (l, msg, self.dir / f"{tag}-code.txt", self.dir / f"{tag}-dec.txt", text)
            self.items.append(Item(tag, self.N, files))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def pass_items(self, index):
        return self.items

    def run(self, item):
        l, msg, code, dec, _ = item.payload
        qnp = ["--q", str(self.Q), "--n", str(self.N), "--p", str(self.P)]
        enc_io = ["--in", str(msg), "--out", str(code)]
        dec_io = ["--in", str(code), "--out", str(dec)]
        if l is None:
            enc_argv, dec_argv = ["encode", *qnp, *enc_io], ["decode", *qnp, *dec_io]
        else:
            seg = ["--l", str(l), *qnp]
            enc_argv = ["segmented", "encode", *seg, *enc_io]
            dec_argv = ["segmented", "decode", *seg, *dec_io]
        t0 = time.perf_counter()
        rc_enc = self.cli.main(enc_argv)
        t1 = time.perf_counter()
        rc_dec = self.cli.main(dec_argv)
        t2 = time.perf_counter()
        return (rc_enc, rc_dec), t1 - t0, t2 - t1

    def check(self, item, out):
        l, _, code, dec, text = item.payload
        window, length = self.expect[l]
        if out != (0, 0) or dec.read_text() != text or len(code.read_text().strip()) != length:
            return False
        argv = ["check", "--q", str(self.Q), "--l", str(window), "--p", str(self.P), "--in", str(code)]
        report = io.StringIO()
        with contextlib.redirect_stdout(report):
            rc = self.cli.main(argv)
        return rc == 0 and report.getvalue().split() == ["valid"]

    def detail(self, records, passes):
        return symbol_detail(records)


class CountPlan:
    """Distinct ``build_report`` queries (exact ones from ``pins.json`` and
    bounds-only ones) and planning queries; no codec work."""

    TRACE_PASSES = 2
    WARMUP_PASSES = 0  # every query is new, so each pays its cold cost

    def __init__(self, mods):
        self.card = mods["cardinality"]
        self.codec = mods["codec"]
        self.seg = mods["segmented"]

    def derive(self):
        pass  # nothing to derive once: set-up is the import alone

    def make_inputs(self, rng):
        classes = json.loads((HERE / "pins.json").read_text())["classes"]
        # Each pass takes the next unused member of every class, so no count
        # repeats within a process; the run ends when a class runs out.
        self.order = [[c[i] for i in rng.permutation(len(c))] for c in classes]
        self.passes = min(len(c) for c in classes)
        width = len(classes)
        self.sizes = [round(10 ** (2 + 4 * (j + 0.5) / width)) for j in range(width)]
        self.rng = rng

    def pass_items(self, index):
        if index >= self.passes:
            return None
        Family, CountQuery = self.card.Family, self.card.CountQuery
        items = []
        for j, members in enumerate(self.order):
            pin = members[index]
            query = CountQuery(Family(pin["family"]), pin["q"], pin["n"], l=pin["l"], p=pin["p"], k=pin["k"])
            items.append(Item("exact", 0, (query, pin["exact"])))
            n = self.sizes[j] + int(self.rng.integers(0, self.sizes[j] // 100 + 1))
            window = self.codec.derive_params(2, n, 4).l
            items.append(Item("bounds", 0, CountQuery(Family.LPA, 2, n, l=window, p=4)))
            items.append(Item("select", 0, (2, n, 16, 4)))
            items.append(Item("derive", 0, (4, n, 6)))
        return items

    def run(self, item):
        kind, _, arg = item
        t0 = time.perf_counter()
        if kind == "exact":
            out = self.card.build_report(arg[0])
        elif kind == "bounds":
            out = self.card.build_report(arg, include_exact=False)
        elif kind == "select":
            out = self.seg.select_construction(*arg)
        else:
            out = self.codec.derive_params(*arg)
        return out, time.perf_counter() - t0, 0.0

    def check(self, item, out):
        kind, _, arg = item
        if kind == "exact":
            return out.exact == arg[1] and out.violations() == []
        if kind == "bounds":
            upper = out.upper_bound
            return out.violations() == [] and out.lower_bound is not None and (upper is None or out.lower_bound <= upper)
        if kind == "select":
            cheapest = min(c.total_redundancy for c in out.candidates.values())
            return out.params.n == arg[1] and out.params.total_redundancy == cheapest
        # derive: l is the smallest window whose index field addresses every start.
        q, n, p = arg

        def fits(w):
            return q ** (w - p - 1) >= n - w + 2

        return out.n == n and fits(out.l) and (out.l == p + 2 or not fits(out.l - 1))

    def detail(self, records, passes):
        exact = [a for item, a, _ in records if item.kind == "exact"]
        cheap = [a * 1e3 for item, a, _ in records if item.kind != "exact"]
        p50, p90 = percentiles(cheap)
        return {
            "exact_batch_s": (sum(exact) / passes, "s"),
            "query_ms_p50": (p50, "ms"),
            "query_ms_p90": (p90, "ms"),
            "query_samples": (len(cheap), "count"),
        }


WORKLOADS = {
    "random-msgs": RandomMsgs,
    "adversarial-msgs": AdversarialMsgs,
    "cli-segmented": CliSegmented,
    "count-plan": CountPlan,
}


# ------------------------------------------------------------------ running


def run_passes(wl, seconds, fixed, tracer):
    """Whole passes over the inputs; returns per-item records and counters."""
    records = []
    attempted = failed = passes = 0
    start = time.perf_counter()
    while True:
        items = wl.pass_items(passes)
        if items is None:
            break
        for item in items:
            attempted += 1
            if tracer is not None:
                tracer.item = attempted
                tracer.active = True
            try:
                out, a, b = wl.run(item)
                ok = True
            except Exception:
                traceback.print_exc()
                ok = False
            finally:
                if tracer is not None:
                    tracer.active = False
            if ok:
                try:
                    ok = bool(wl.check(item, out))
                except Exception:
                    traceback.print_exc()
                    ok = False
            if ok:
                records.append((item._replace(payload=None), a, b))
            else:
                failed += 1
                print(f"check failed: {item.kind} item {attempted}", file=sys.stderr)
        passes += 1
        if fixed and passes >= fixed:
            break
        if not fixed and time.perf_counter() - start >= seconds:
            break
    return records, attempted, failed, passes


def layer_metrics(tracer, wl, records):
    """Per-layer metrics from the spans of one traced run."""
    s = tracer.summary()
    msgs = len(records) if not isinstance(wl, CountPlan) else 0
    msg_sym = sum(item.symbols for item, _, _ in records)

    def per(value, base):
        return value / base if base else 0.0

    seg_enc = s["segmented.encode"]
    bounds = s["cardinality.lpa_count_lower"]["busy_s"] + s["cardinality.lpa_count_upper"]["busy_s"]
    return {
        "periodicity.first_violation.calls": (s["periodicity.first_violation"]["calls"], "count"),
        "periodicity.first_violation.busy_s": (s["periodicity.first_violation"]["busy_s"], "s"),
        "periodicity.symbols_scanned_per_msg_sym": (per(s["periodicity.first_violation"]["work"], msg_sym), "sym/sym"),
        "periodicity.extension_symbol.busy_s": (s["periodicity.extension_symbol"]["busy_s"], "s"),
        "codec.encode.self_s": (s["codec.encode"]["self_s"], "s"),
        "codec.repair_steps_per_msg": (per(s["codec.encode"]["work"], msgs), "steps/msg"),
        "codec.inverse_repair.calls": (s["codec.inverse_repair"]["calls"], "count"),
        "codec.inverse_repair.busy_s": (s["codec.inverse_repair"]["busy_s"], "s"),
        "codec.decode.self_s": (s["codec.decode"]["self_s"], "s"),
        "segmented.encode.self_s": (seg_enc["self_s"], "s"),
        "segmented.decode.self_s": (s["segmented.decode"]["self_s"], "s"),
        "segmented.segments_per_msg": (per(seg_enc["work"], seg_enc["calls"]), "segments/msg"),
        "segmented.select_construction.busy_s": (s["segmented.select_construction"]["busy_s"], "s"),
        "cli.read_words.busy_s": (s["cli.read_words"]["busy_s"], "s"),
        "cli.main.self_s": (s["cli.main"]["self_s"], "s"),
        "cli.bytes_in": (s["cli.read_words"]["work"], "B"),
        "cli.bytes_out": (s["cli.main"]["work"], "B"),
        "cardinality.count_brute.calls": (s["cardinality.count_brute"]["calls"], "count"),
        "cardinality.count_brute.busy_s": (s["cardinality.count_brute"]["busy_s"], "s"),
        "cardinality.words_enumerated": (s["cardinality.count_brute"]["work"], "words"),
        "cardinality.build_report.busy_s": (s["cardinality.build_report"]["busy_s"], "s"),
        "cardinality.bounds.busy_s": (bounds, "s"),
    }


def main(argv) -> int:
    action, name = argv[0], argv[1]
    if action == "setup":
        t0 = time.perf_counter()
        wl = WORKLOADS[name](import_lpacodes())
        wl.derive()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    seed, seconds, mode = int(argv[2]), float(argv[3]), argv[4]
    mods = import_lpacodes()
    import numpy as np

    wl = WORKLOADS[name](mods)
    try:
        wl.derive()
        wl.make_inputs(np.random.default_rng(seed))
        # Untimed warm-up passes fill allocator pools and lazy state first;
        # their outputs are still checked.
        warm_attempted = warm_failed = 0
        if wl.WARMUP_PASSES:
            _, warm_attempted, warm_failed, _ = run_passes(wl, 0, wl.WARMUP_PASSES, None)
        tracer = None
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(mods)
        fixed = 0 if mode == "timed" else wl.TRACE_PASSES
        records, attempted, failed, passes = run_passes(wl, seconds, fixed, tracer)
        attempted += warm_attempted
        failed += warm_failed
    finally:
        if hasattr(wl, "close"):
            wl.close()

    timed = sum(a + b for _, a, b in records)
    p50, p90 = percentiles([(a + b) * 1e3 for _, a, b in records])
    result = {
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "items_per_s": len(records) / timed if timed else 0.0,
        "item_ms_p50": p50,
        "item_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "detail": wl.detail(records, passes) if records else {},
    }
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{name}-{argv[5]}.csv")
        result["layers"] = layer_metrics(tracer, wl, records)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
