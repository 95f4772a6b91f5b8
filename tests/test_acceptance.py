"""End-to-end scorecard: one test per advertised guarantee.

Each test prints one uncaptured [acceptance] line, so a full run reads as
a nine-line report no matter how pytest captures output.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from lpacodes import cardinality as card
from lpacodes import codec, segmented
from lpacodes.cardinality import CountQuery, Family, all_words, count_brute
from lpacodes.codec import (
    LpaParams,
    decode,
    derive_params,
    encode,
    repair,
)
from lpacodes.errors import CorruptCodewordError
from lpacodes.periodicity import Word, first_violation
from lpacodes.segmented import Variant

from helpers import naive_window_clean


@contextmanager
def scored(capsys, num, text):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] ({num}/9) {text}: FAIL")
        raise
    with capsys.disabled():
        print(f"[acceptance] ({num}/9) {text}: PASS")


def A(q, n, l, p):
    return CountQuery(Family.LPA, q, n, l=l, p=p)


def B(q, n, l, p):
    return CountQuery(Family.PA, q, n, l=l, p=p)


def R(q, n, k):
    return CountQuery(Family.RLL, q, n, k=k)


# --------------------------------------------------------------------------


def test_01_worked_example_two_step_repair(capsys):
    with scored(capsys, 1, "worked example: exact two-step repair trace"):
        params = derive_params(2, 14, 4)
        x = Word("10001010101100", 2)
        encode(x, params)  # warm-up, keep the timed call honest
        t0 = time.perf_counter()
        y, trace = encode(x, params)
        elapsed = time.perf_counter() - t0
        assert y == Word("110011010010000", 2)
        assert len(trace.steps) == 2
        assert (trace.steps[0].index, trace.steps[0].least_period) == (3, 2)
        assert (trace.steps[1].index, trace.steps[1].least_period) == (0, 3)
        assert repair(x + Word([1], 2), params)[0] == Word("100100101100110", 2)
        assert decode(y, params) == x
        assert elapsed < 1e-3


def test_02_repair_fixed_point_rejected_by_decoder(capsys):
    with scored(capsys, 2, "self-reproducing state detected by cycle guard"):
        params = derive_params(2, 14, 4)
        state = Word("111111010101010", 2)
        fixed, _ = repair(state, params)
        assert fixed == state
        with pytest.raises(CorruptCodewordError):
            decode(state, params)


@pytest.fixture(scope="module")
def binary_exhaustive():
    """Encode every binary input for p in {2,3,4}, n in [p+4, 14].

    Returns per-parameter-set step counts plus the total wall time, shared
    between the round-trip and mean-step criteria.
    """
    runs = {}
    t0 = time.perf_counter()
    for p in (2, 3, 4):
        for n in range(p + 4, 15):
            params = derive_params(2, n, p)
            steps = []
            for x in all_words(2, n):
                y, trace = encode(x, params)
                assert len(y) == n + 1
                assert first_violation(y, params.l, params.p) is None
                assert decode(y, params) == x
                steps.append(len(trace.steps))
            runs[(n, p)] = steps
    return runs, time.perf_counter() - t0


def test_03_exhaustive_round_trip_binary(capsys, binary_exhaustive):
    runs, elapsed = binary_exhaustive
    with scored(capsys, 3, "exhaustive binary round-trip, p in {2,3,4}, n to 14"):
        assert len(runs) == 9 + 8 + 7
        total = sum(len(steps) for steps in runs.values())
        assert total == sum(
            2**n for p in (2, 3, 4) for n in range(p + 4, 15)
        )
        assert elapsed < 60.0


def test_04_mean_repair_count_bounds(capsys, binary_exhaustive):
    runs, _ = binary_exhaustive
    with scored(capsys, 4, "exhaustive mean repair count below alphabet bound"):
        for (n, p), steps in runs.items():
            mean = Fraction(sum(steps), len(steps))
            assert mean <= 1, (2, n, p, mean)
        for p in (2, 3, 4):
            for n in range(p + 4, 10):
                params = derive_params(3, n, p)
                total = words = 0
                for x in all_words(3, n):
                    _, trace = encode(x, params)
                    total += len(trace.steps)
                    words += 1
                assert Fraction(total, words) <= 2, (3, n, p)


def test_05_repair_is_injective_on_invalid_words(capsys):
    with scored(capsys, 5, "repair never collides across invalid words"):
        for p in (2, 3):
            for n in range(p + 3, 11):
                params = derive_params(2, n, p)
                seen = set()
                for state in all_words(2, n + 1):
                    if first_violation(state, params.l, params.p) is None:
                        continue
                    fixed, _ = repair(state, params)
                    key = fixed.to_text()
                    assert key not in seen, (n, p, key)
                    seen.add(key)


def test_06_closed_forms_equal_enumeration(capsys):
    with scored(capsys, 6, "closed-form counts equal brute-force enumeration"):
        t0 = time.perf_counter()
        # spot values first: the oracle pins them before any formula runs
        assert count_brute(A(2, 4, 4, 3)) == 12
        assert count_brute(B(2, 4, 4, 2)) == 12
        assert count_brute(A(2, 7, 6, 3)) == 116
        assert count_brute(R(2, 3, 2)) == 5
        for q, top in ((2, 14), (3, 9)):
            for n in range(2, top + 1):
                for p in range(1, n):
                    assert card.pa_count_whole(q, n, p) == count_brute(
                        B(q, n, n, p)
                    ), ("pa_whole", q, n, p)
                for p in range(2, n + 1):
                    if n >= 2 * p - 4:
                        assert card.lpa_count_whole(q, n, p) == count_brute(
                            A(q, n, n, p)
                        ), ("lpa_whole", q, n, p)
                for l in range(2, n + 1):
                    for p in range(1, l):
                        assert card.pa_count_via_rll(q, n, l, p) == count_brute(
                            B(q, n, l, p)
                        ), ("rll_identity", q, n, l, p)
                for l in range(3, n + 1):
                    for p in range(2, l + 1):
                        if l < 2 * p - 4:
                            continue
                        if not l <= n <= min(2 * l - 2 * p + 4, 2 * l - 1):
                            continue
                        assert card.lpa_count_near_whole(
                            q, n, l, p
                        ) == count_brute(A(q, n, l, p)), ("extended", q, n, l, p)
        assert time.perf_counter() - t0 < 300.0


def test_07_bounds_sandwich_and_constructive_existence(capsys):
    with scored(capsys, 7, "lower/upper bounds sandwich the exact counts"):
        for q, top in ((2, 14), (3, 9)):
            for n in range(3, top + 1):
                for l in range(3, n + 1):
                    for p in range(2, l):
                        exact = count_brute(A(q, n, l, p))
                        lower = card.lpa_count_lower(q, n, l, p)
                        assert lower <= exact, (q, n, l, p)
                        upper = card.lpa_count_upper(q, n, l, p)
                        if upper is not None:
                            assert exact <= upper, (q, n, l, p)
                        if lower < q ** (n - 1):
                            continue
                        # the bound promises a single-redundancy code here;
                        # demonstrate it whenever the explicit construction
                        # fits, otherwise fall back to the counting witness
                        msg = n - 1
                        width = l - p - 1
                        if (
                            l >= p + 2
                            and l <= msg
                            and q**width >= msg - l + 2
                        ):
                            params = LpaParams(q=q, n=msg, p=p, l=l)
                            for x in all_words(q, msg):
                                y, _ = encode(x, params)
                                assert (
                                    first_violation(y, l, p) is None
                                ), (q, n, l, p, x.to_text())
                                assert decode(y, params) == x
                        else:
                            assert exact >= q ** (n - 1), (q, n, l, p)


def test_08_segmented_layouts_stay_valid(capsys):
    with scored(capsys, 8, "segmented layouts: validity, redundancy, round trip"):
        rng = np.random.default_rng(20260814)
        cases = [
            (Variant.SEPARATOR, 2, 28, 8, 4),
            (Variant.GLUE_ONLY, 2, 40, 9, 4),
            (Variant.HALF_WINDOW, 2, 24, 10, 2),
        ]
        for variant, q, n, l, p in cases:
            sp = segmented.plan(q, n, l, p, variant)
            k = sp.k
            expected = {
                Variant.HALF_WINDOW: k,
                Variant.SEPARATOR: (p + 3) * (k - 1) + 1,
                Variant.GLUE_ONLY: 3 * k - 2,
            }[variant]
            assert sp.total_redundancy == expected
            for _ in range(1000):
                x = Word(rng.integers(0, q, size=n, dtype=np.int64), q)
                y = segmented.encode(x, sp)
                assert len(y) - n == expected
                assert naive_window_clean(y.to_list(), l, p), (variant, x.to_text())
                assert segmented.decode(y, sp) == x


def test_09_linear_scaling_at_desk_scale(capsys):
    with scored(capsys, 9, "encode+decode wall time scales linearly to n=10^6"):
        rng = np.random.default_rng(99)

        def mean_time(n, words=100):
            params = derive_params(2, n, 4)
            warm = Word(rng.integers(0, 2, size=n, dtype=np.int64), 2)
            decode(encode(warm, params)[0], params)
            busy = 0.0
            for _ in range(words):
                x = Word(rng.integers(0, 2, size=n, dtype=np.int64), 2)
                t0 = time.perf_counter()
                y, _ = encode(x, params)
                out = decode(y, params)
                busy += time.perf_counter() - t0
                assert out == x
            return busy / words

        small = mean_time(10**5)
        large = mean_time(10**6)
        ratio = large / small
        # Scheduler interference can only inflate a block mean, so on an
        # out-of-band ratio re-measure and keep the cleanest block per
        # size; a genuinely super-linear encoder stays out of band no
        # matter how many blocks are taken.
        for _ in range(2):
            if 8.0 <= ratio <= 12.0:
                break
            small = min(small, mean_time(10**5))
            large = min(large, mean_time(10**6))
            ratio = large / small
        assert 8.0 <= ratio <= 12.0, f"scaling ratio {ratio:.2f}"


ADVERSARIAL_FAMILIES = {
    "zeros": lambda n: np.zeros(n, dtype=np.int64),
    "0101": lambda n: np.arange(n) % 2,
    "001": lambda n: (np.arange(n) % 3 == 2).astype(np.int64),
}


def test_09_scan_work_per_symbol_is_flat(monkeypatch):
    """Deterministic companion of test_09: instead of wall time, count the
    symbols the window scan reads per message symbol, which a linear
    encoder keeps flat in n.

    A random message is scanned once, plus once more past each of its
    about 0.1 repairs; the tolerance allows one repair more per four
    messages between sizes.  The adversarial families need about n / l
    repairs.  The first scan reads the whole word, each repair's scan
    resumes l - 1 symbols before the excised window and finds the next
    violation in its first probe of 2l symbols, and the last scan reads
    the clean word once more: about four symbols per message symbol in
    all.  A scan of the whole word after every repair would read about
    n / l symbols per message symbol instead, hundreds at these sizes."""
    scanned = 0
    scan = codec.first_violation

    def counting(w, l, p):
        nonlocal scanned
        scanned += len(w)
        return scan(w, l, p)

    monkeypatch.setattr(codec, "first_violation", counting)
    rng = np.random.default_rng(99)
    families = {
        "random": (
            lambda n: rng.integers(0, 2, size=n, dtype=np.int64),
            ((10**5, 100), (10**6, 20)),
            1.5,
        ),
        **{
            name: (make, ((10**4, 1), (10**5, 1)), 4.5)
            for name, make in ADVERSARIAL_FAMILIES.items()
        },
    }
    for family, (make, sizes, bound) in families.items():
        per_symbol = []
        for n, words in sizes:
            params = derive_params(2, n, 4)
            scanned = 0
            for _ in range(words):
                x = Word(make(n), 2)
                y, _ = encode(x, params)
                assert decode(y, params) == x
            per_symbol.append(scanned / (n * words))
        small, large = per_symbol
        assert abs(large - small) <= 0.25, (family, per_symbol)
        assert max(per_symbol) <= bound, (family, per_symbol)
