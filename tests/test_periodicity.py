import math
from fractions import Fraction

import numpy as np
import pytest

from lpacodes import periodicity
from lpacodes.cli import read_words
from lpacodes.periodicity import (
    Word,
    WindowViolation,
    difference,
    extension_symbol,
    first_violation,
    has_period,
    is_lpa,
    is_pa,
    is_rll,
    least_period_below,
)

from helpers import (
    all_tuples,
    naive_first_violation,
    naive_has_period,
    naive_leftmost_run,
    naive_no_period_p,
    naive_window_clean,
    naive_zero_run_free,
)


# ------------------------------------------------------------------ Word


def test_word_from_digit_text():
    w = Word("10010", 2)
    assert len(w) == 5
    assert w.to_list() == [1, 0, 0, 1, 0]
    assert w.to_text() == "10010"


def test_word_from_csv_text_large_alphabet():
    w = Word("11,0,3,10", 16)
    assert w.to_list() == [11, 0, 3, 10]
    # large alphabets always render as CSV
    assert w.to_text() == "11,0,3,10"


def test_word_csv_accepted_for_small_alphabet_too():
    assert Word("1,0,1", 2) == Word("101", 2)


def test_word_rejects_out_of_range_symbols():
    with pytest.raises(ValueError):
        Word([0, 2], 2)
    with pytest.raises(ValueError):
        Word("3", 3)
    with pytest.raises(ValueError):
        Word([-1, 0], 2)
    # symbols beyond the int64 range get the same message, not OverflowError
    for symbols in ([10**20, 1], [-(10**20)], "99999999999999999999,1"):
        with pytest.raises(ValueError, match=r"symbols must lie in \[0, 11\]"):
            Word(symbols, 12)
    # fractions are refused, not truncated
    for symbols in ([1.5, 0], np.array([1.7, 0.2]), [Fraction(3, 2), 0]):
        with pytest.raises(ValueError, match="symbols must be integers"):
            Word(symbols, 2)
    # an unsigned array past int64 is refused as the same values in a list are
    for symbols in (np.array([2**63, 1], dtype=np.uint64), [2**63, 1]):
        with pytest.raises(ValueError, match=rf"symbols must lie in \[0, {2**63 - 1}\]"):
            Word(symbols, 2**64)


def test_word_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        Word([0], 1)


def test_word_equality_and_hash():
    a = Word("0110", 2)
    b = Word([0, 1, 1, 0], 2)
    assert a == b
    assert hash(a) == hash(b)
    assert a != Word("0111", 2)
    # same symbols, different alphabet: different words
    assert Word("01", 2) != Word("01", 3)


def test_word_concat_and_slice():
    w = Word("0110", 2) + Word("01", 2)
    assert w.to_text() == "011001"
    assert w[2:5].to_text() == "100"
    assert w[0] == 0 and w[-1] == 1
    with pytest.raises(ValueError):
        Word("01", 2) + Word("01", 3)
    with pytest.raises(ValueError):
        w[::2]


def test_word_reversed():
    assert Word("0010", 2).reversed().to_text() == "0100"


def test_word_is_immutable():
    w = Word("0110", 2)
    with pytest.raises(ValueError):
        w.symbols[0] = 1


def test_word_accepts_numpy_input():
    arr = np.array([0, 1, 2], dtype=np.int64)
    assert Word(arr, 3).to_list() == [0, 1, 2]


@pytest.mark.parametrize("q", [2, 10, 11, 16, 300])
@pytest.mark.parametrize("n", [0, 1, 10**4])
def test_text_round_trip(q, n):
    rng = np.random.default_rng(1000 * q + n)
    for _ in range(3):
        symbols = rng.integers(0, q, size=n).tolist()
        w = Word(symbols, q)
        text = w.to_text()
        assert text == ("" if q <= 10 else ",").join(map(str, symbols))
        assert Word(text, q) == w
        assert Word(text, q).to_text() == text


@pytest.mark.parametrize(
    "line,q,message",
    [
        ("0120a1", 10, "invalid literal for int() with base 10: 'a'"),
        ("01 10", 2, "invalid literal for int() with base 10: ' '"),
        ("0121", 2, "symbols must lie in [0, 1]"),
        ("1,,0", 2, "invalid literal for int() with base 10: ''"),
        ("1,12", 10, "symbols must lie in [0, 9]"),
        ("99999999999999999999,1,0", 10, "symbols must lie in [0, 9]"),
    ],
)
def test_read_words_error_messages(tmp_path, line, q, message):
    path = tmp_path / "words.txt"
    path.write_text(f"# header\n0101\n{line}\n")
    with pytest.raises(ValueError) as info:
        read_words(str(path), q)
    assert str(info.value) == f"{path}:3: {message}"


def test_non_ascii_decimal_digits_parse_as_digits(tmp_path):
    # int() reads any Unicode decimal digit, and so does the text format
    assert Word("\u0661\u0660\u0661", 2) == Word("101", 2)
    assert Word("\uff11\uff10", 2) == Word("10", 2)
    path = tmp_path / "words.txt"
    path.write_text("\u0660\u0661\u0661\n", encoding="utf-8")
    assert read_words(str(path), 2) == [Word("011", 2)]


# ------------------------------------------------------- period predicates


def test_has_period_matches_definition_exhaustively():
    for n in range(2, 9):
        for bits in all_tuples(2, n):
            w = Word(list(bits), 2)
            for p in range(1, n):
                assert has_period(w, p) == naive_has_period(list(bits), p)


@pytest.mark.parametrize("q", [300, 70000])
def test_has_period_multibyte_symbols(q):
    # symbols wider than one byte: 256 and 0 share their low byte
    seq = [q - 1, 256, q - 1, 0, q - 1, 256, q - 1]
    w = Word(seq, q)
    for p in range(1, len(seq)):
        assert has_period(w, p) == naive_has_period(seq, p)
    bound = len(seq) // 2 + 2
    want = next(
        a
        for a in range(q)
        if not any(naive_has_period(seq + [a], pp) for pp in range(1, bound))
    )
    assert extension_symbol(w) == want


def test_has_period_rejects_bad_p():
    w = Word("0101", 2)
    with pytest.raises(ValueError):
        has_period(w, 0)
    with pytest.raises(ValueError):
        has_period(w, 4)


@pytest.mark.parametrize(
    "text,p,below",
    [
        ("0101", 3, 2),
        ("0000", 2, 1),
        ("0110", 3, None),
        ("0110", 4, 3),
        ("011011", 4, 3),
    ],
)
def test_least_period_below_spots(text, p, below):
    assert least_period_below(Word(text, 2), p) == below


def test_is_pa_and_is_lpa_match_naive():
    for n in range(4, 10):
        for bits in all_tuples(2, n):
            seq = list(bits)
            w = Word(seq, 2)
            for l in range(2, n + 1):
                for p in range(2, l):
                    assert is_lpa(w, l, p) == naive_window_clean(seq, l, p)
                    # is_pa forbids only the single period p
                    expected_pa = all(
                        not naive_has_period(seq[i : i + l], p)
                        for i in range(n - l + 1)
                    )
                    assert is_pa(w, l, p) == expected_pa


def test_is_lpa_vacuous_on_short_words():
    assert is_lpa(Word("01", 2), 5, 2)


def test_is_rll_matches_naive():
    for n in range(1, 10):
        for bits in all_tuples(2, n):
            w = Word(list(bits), 2)
            for k in range(1, n + 1):
                assert is_rll(w, k) == naive_zero_run_free(list(bits), k)


# ----------------------------------------------------------------- difference


@pytest.mark.parametrize(
    "text,p,expected",
    [
        ("0101", 2, "00"),
        ("10010010", 3, "00000"),
        ("110", 1, "01"),
    ],
)
def test_difference_spots(text, p, expected):
    assert str(difference(Word(text, 2), p)) == expected


def test_difference_validation():
    w = Word("0110", 2)
    with pytest.raises(ValueError):
        difference(w, 0)
    with pytest.raises(ValueError):
        difference(w, 4)


def test_difference_marks_periodic_windows():
    # A length-l window at j has period p exactly when entries j..j+l-p-1
    # of the shifted difference vanish.
    for n in range(3, 9):
        for bits in all_tuples(2, n):
            w = Word(list(bits), 2)
            for p in range(1, n):
                d = difference(w, p)
                for l in range(p + 1, n + 1):
                    for j in range(n - l + 1):
                        window = list(bits[j : j + l])
                        run_is_zero = not any(d.symbols[j : j + l - p])
                        assert naive_has_period(window, p) == run_is_zero


def test_difference_ternary_wraps_mod_q():
    d = difference(Word("021", 3), 1)
    # (0-2) % 3 = 1, (2-1) % 3 = 1
    assert list(d.symbols) == [1, 1]


def test_is_pa_equals_zero_run_freedom_of_difference():
    # Single-period avoidance and run-length freedom are the same check
    # in the difference domain, at every window length.
    for n in range(2, 13):
        for bits in all_tuples(2, n):
            w = Word(list(bits), 2)
            for p in range(1, n):
                d = difference(w, p)
                for l in range(p + 1, n + 1):
                    assert is_pa(w, l, p) == is_rll(d, l - p)


# ----------------------------------------------------- period arithmetic laws


def test_period_of_p_implies_period_of_multiples():
    for n in range(3, 9):
        for bits in all_tuples(2, n):
            w = Word(list(bits), 2)
            for p in range(1, n):
                if not has_period(w, p):
                    continue
                k = 2
                while k * p <= n - 1:
                    assert has_period(w, k * p)
                    k += 1


def test_two_periods_long_enough_share_their_gcd():
    for q, top in ((2, 11), (3, 8)):
        for n in range(2, top):
            for tup in all_tuples(q, n):
                w = Word(list(tup), q)
                for ps in range(1, n):
                    if not has_period(w, ps):
                        continue
                    for pt in range(ps + 1, n):
                        g = math.gcd(ps, pt)
                        if n < ps + pt - g:
                            continue
                        if has_period(w, pt):
                            assert has_period(w, g)


# ----------------------------------------------------------- first_violation


def test_first_violation_exhaustive_small():
    """The scan path agrees with a from-the-definition reference."""
    for n in range(5, 11):
        for bits in all_tuples(2, n):
            seq = list(bits)
            w = Word(seq, 2)
            for l, p in [(4, 2), (5, 3), (6, 3), (5, 2), (n, 4)]:
                if l > n or p + 1 >= l:
                    continue
                got = first_violation(w, l, p)
                want = naive_first_violation(seq, l, p)
                if want is None:
                    assert got is None
                else:
                    assert (got.index, got.least_period) == want


def test_first_violation_ternary_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        n = int(rng.integers(6, 14))
        seq = rng.integers(0, 3, size=n).tolist()
        w = Word(seq, 3)
        got = first_violation(w, 5, 3)
        want = naive_first_violation(seq, 5, 3)
        assert (got is None and want is None) or (
            (got.index, got.least_period) == want
        )


def test_first_violation_vector_path_agrees_with_scan():
    # words of a few hundred symbols against the list-based reference
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(280, 460))
        seq = rng.integers(0, 2, size=n).tolist()
        w = Word(seq, 2)
        for l, p in [(8, 4), (12, 3), (22, 4)]:
            got = first_violation(w, l, p)
            want = naive_first_violation(seq, l, p)
            if want is None:
                assert got is None
            else:
                assert (got.index, got.least_period) == want


def test_first_violation_vector_path_planted_patterns():
    # plant a periodic patch at chosen offsets, including both edges
    base = [0, 0, 1, 0, 1, 1, 0, 1] * 60  # period 8 > p, locally harmless
    for offset in [0, 1, 137, 470]:
        seq = list(base[:480])
        seq[offset : offset + 10] = [0, 1] * 5
        w = Word(seq, 2)
        v = first_violation(w, 10, 4)
        assert v is not None
        assert v.least_period <= 2
        assert v.index <= offset


def test_first_violation_reports_least_period_on_ties():
    # constant window has every period; the report must say 1
    w = Word([0] * 300, 2)
    v = first_violation(w, 10, 4)
    assert v == WindowViolation(index=0, least_period=1)


def test_first_violation_none_on_short_input():
    assert first_violation(Word("0101", 2), 6, 2) is None


def test_first_violation_argument_validation():
    w = Word("010010", 2)
    with pytest.raises(ValueError):
        first_violation(w, 1, 2)
    with pytest.raises(ValueError):
        first_violation(w, 4, 1)


# ------------------------------------------------------------- run kernel


@pytest.mark.parametrize("repeats", [3, 1400, 5000])
def test_leftmost_run_skips_near_miss_runs(repeats):
    # Thousands of runs one entry short of ``need`` come before the one
    # planted run that qualifies; the row lengths straddle the sizes at
    # which CPython switches substring-search algorithms.
    need = 20
    flags = ([True] * (need - 1) + [False]) * repeats
    flags += [False, False] + [True] * need + [False] * 5
    want = naive_leftmost_run(flags, need)
    assert want == len(flags) - need - 5
    assert periodicity._leftmost_run(np.array(flags), need) == want
    assert periodicity._leftmost_run(np.array(flags[:-need - 5]), need) == -1
    # the same row as a zero-run check through the public predicate
    seq = [0 if f else 1 for f in flags]
    w = Word(seq, 2)
    assert not naive_zero_run_free(seq, need)
    assert not is_rll(w, need)
    assert naive_zero_run_free(seq, need + 1)
    assert is_rll(w, need + 1)


def test_leftmost_run_need_one():
    rng = np.random.default_rng(23)
    cut = periodicity._LONG_ROW
    for n in (6, 300, 9000, cut - 1, cut, cut + 1, 40_000):
        last_only = [False] * (n - 1) + [True]
        coin = (rng.random(n) < 0.5).tolist()
        for flags in ([False] * n, last_only, [True] * n, coin):
            want = naive_leftmost_run(flags, 1)
            assert periodicity._leftmost_run(np.array(flags), 1) == want
            seq = [0 if f else 1 for f in flags]
            assert is_rll(Word(seq, 2), 1) == naive_zero_run_free(seq, 1)
    # l=3, p=3 asks for period 2 with need 1; 012... is clean until a 010
    for n, plant in ((12, 8), (400, 350)):
        seq = [0, 1, 2] * (n // 3)
        seq[plant : plant + 3] = [0, 1, 0]
        w = Word(seq, 3)
        got = first_violation(w, 3, 3)
        assert (got.index, got.least_period) == naive_first_violation(seq, 3, 3)
        assert first_violation(Word([0, 1, 2] * (n // 3), 3), 3, 3) is None


def test_leftmost_run_rows_match_single_rows():
    rng = np.random.default_rng(31)
    for m in (1, 17, 300, 700, periodicity._LONG_ROW - 1, 40_000):
        for need in (1, 2, 5, 13):
            mask = rng.random((40, m)) < 0.85
            got = periodicity._leftmost_run(mask, need)
            want = [periodicity._leftmost_run(row, need) for row in mask]
            assert got.tolist() == want
            assert want == [naive_leftmost_run(row.tolist(), need) for row in mask]


def _kernel_masks(q, rng):
    for m in (1, 2, 7, 16, 33, 140):
        yield np.ones((3, m), dtype=bool)
        # row j is one run from column j through the last column
        yield np.arange(m) >= np.arange(m)[:, None]
        yield rng.random((20, m)) < 0.8
        for rows in (rng.integers(0, q, size=(20, m + 3)), np.zeros((4, m + 3), dtype=int)):
            for d in (1, 2, 3):
                yield rows[:, :-d] == rows[:, d:]
    # rows on both sides of the long-row cut-off: all True, all False, runs
    # of 1, 13 and m - 1 entries that end in the last entry, and the shift
    # mask of a random word
    cut = periodicity._LONG_ROW
    for m in (cut - 1, cut, cut + 1, 40_000):
        at = np.arange(m)
        yield at >= m - np.array([m, 0, 1, 13, m - 1])[:, None]
        rows = rng.integers(0, q, size=(1, m + 2))
        yield rows[:, :-2] == rows[:, 2:]


class _CountedBytes(np.ndarray):
    """A bool row that counts its ``tobytes`` calls, which only the
    substring-search form of the run kernel makes."""

    calls = 0

    def tobytes(self, *args, **kwargs):
        _CountedBytes.calls += 1
        return super().tobytes(*args, **kwargs)


@pytest.mark.parametrize("q", [2, 3])
def test_matrix_kernel_matches_naive_per_row(q):
    """The run kernel against the naive scan, for the whole 2-D mask and
    for each row as a 1-D mask: need = 1, need = m and need > m, all-True
    and all-False rows, runs that end in the last column, shift masks of
    random and all-zero symbol matrices, and rows just below, at and above
    the length from which one row takes log-step doubling instead of the
    substring search.  The caller's mask is left as it was."""
    rng = np.random.default_rng(41 + q)
    for mask in _kernel_masks(q, rng):
        m = mask.shape[1]
        before = mask.copy()
        for need in sorted({1, 2, 3, 5, 8, 13, m - 1, m, m + 1} - {0}):
            want = [naive_leftmost_run(row.tolist(), need) for row in mask]
            assert periodicity._leftmost_run(mask, need).tolist() == want, (mask, need)
            for row, start in zip(mask, want):
                _CountedBytes.calls = 0
                assert periodicity._leftmost_run(row.view(_CountedBytes), need) == start
                assert (_CountedBytes.calls > 0) == (m < periodicity._LONG_ROW), m
        assert np.array_equal(mask, before)


@pytest.mark.parametrize("q", [2, 3, 300])
def test_first_windows_match_naive_first_violation(q):
    """Leftmost offending window and its least period, row by row, with
    ties toward the smaller period, against the naive scan: for the whole
    matrix (two arrays), for each row as a 1-D word (two ints, what
    ``first_violation`` returns) and for each row as a one-row matrix.

    Only the maximal periods of a set are scanned ({4, 5, 6} for the
    periods below 7), so the rows include windows whose least period
    divides a scanned one, and ``0001`` repeated: two maximal periods, 4
    and 5, find its window 0001000 at the same index."""
    rng = np.random.default_rng(43 + q)
    for m in (5, 12, 40):
        alternating = np.tile(np.arange(m) % 2, (2, 1))
        tie = np.resize([0, 0, 0, 1], (2, m))
        for rows in (
            rng.integers(0, q, size=(50, m)),
            np.zeros((3, m), dtype=int),
            alternating,
            tie,
        ):
            for l in range(3, min(m, 9) + 1):
                for p in range(2, l):
                    index, period = periodicity._first_windows(rows, l, range(1, p))
                    want = [naive_first_violation(w, l, p) or (-1, 0) for w in rows.tolist()]
                    assert list(zip(index.tolist(), period.tolist())) == want, (m, l, p)
                    for row, (index, period) in zip(rows, want):
                        got = periodicity._first_windows(row, l, range(1, p))
                        assert got == (index, period) and type(got[0]) is int
                        v = first_violation(Word(row, q), l, p)
                        assert got == ((v.index, v.least_period) if v else (-1, 0))
                        got = periodicity._first_windows(row[None], l, range(1, p))
                        assert [a.tolist() for a in got] == [[index], [period]]
    # Words of 40,000 symbols (uint16 at q = 300), whose shift masks take
    # the long-row form of the run kernel, clean but for one planted window
    # of least period 1 to 5 at the first start, in the middle or at the
    # last start.  At p = 6 only 3, 4 and 5 are scanned: period 1 is found
    # by all three at the same index, period 2 by 4 alone.  The symbol
    # before the plant breaks its period, and windows that start more than
    # l before the plant are windows of the clean base, so the naive scan
    # of the plant's neighbourhood gives the first violation of the word.
    n, p, l = 40_000, 6, {2: 30, 3: 20, 300: 8}[q]
    base = Word(rng.integers(0, q, size=n), q).symbols
    assert naive_first_violation(base.tolist(), l, p) is None
    starts = (0, n // 2, n - l)
    for tile in ([q - 1], [0, q - 1], [0, q - 1, q - 1], [0, 0, 1, 1], [0, 1, 1, 0, 1]):
        period = len(tile)
        rows = np.tile(base, (len(starts) + 1, 1))  # the last row stays clean
        for row, at in zip(rows, starts):
            row[at : at + l] = np.resize(tile, l)
            if at:
                row[at - 1] = (tile[-1] + 1) % q
            lo = max(at - l, 0)
            want = (at - lo, period)
            assert naive_first_violation(row[lo : at + 2 * l].tolist(), l, p) == want
            assert periodicity._first_windows(row, l, range(1, p)) == (at, period)
            assert first_violation(Word(row, q), l, p) == WindowViolation(at, period)
        index, least = periodicity._first_windows(rows, l, range(1, p))
        assert index.tolist() == [*starts, -1]
        assert least.tolist() == [period] * len(starts) + [0]


@pytest.mark.parametrize("q", [2, 3])
def test_rows_with_period_matches_naive_per_row(q):
    """Several periods (all below p) against the LPA oracle, one period
    (exactly p) against the PA oracle, row by row."""
    rng = np.random.default_rng(37)
    for m in (4, 9, 30):
        for rows in (rng.integers(0, q, size=(60, m)), np.zeros((3, m), dtype=int)):
            words = rows.tolist()
            for l in range(2, min(m, 8) + 1):
                for p in range(2, l + 1):
                    got = periodicity._first_windows(rows, l, range(1, p))[0] >= 0
                    assert got.tolist() == [not naive_window_clean(w, l, p) for w in words]
                for p in range(1, l):
                    got = periodicity._first_windows(rows, l, (p,))[0] >= 0
                    assert got.tolist() == [not naive_no_period_p(w, l, p) for w in words]


# ----------------------------------------------------------- blocked scan


def _exact(monkeypatch, fn, *args):
    """``fn(*args)`` with the four-symbol block filter off, so every shift
    mask goes whole to the exact run kernel."""
    with monkeypatch.context() as m:
        m.setattr(periodicity, "_BLOCKED_ROW", 1 << 62)
        return fn(*args)


def _log_run_calls(monkeypatch):
    """Make every ``_leftmost_run`` call append (mask length, need) to the
    list returned."""
    calls = []
    run = periodicity._leftmost_run

    def counting(mask, need):
        calls.append((len(mask), need))
        return run(mask, need)

    monkeypatch.setattr(periodicity, "_leftmost_run", counting)
    return calls


def _clean_tile(q, l, p, rng):
    """A random tile of 97 symbols whose cyclic windows of length l have no
    period below p; any word it tiles has none either."""
    while True:
        tile = rng.integers(0, q, size=97).tolist()
        if naive_first_violation(tile + tile[: l - 1], l, p) is None:
            return tile


def _plant(base, q, at, d, matches, rng):
    """``base`` with a stretch of ``matches`` + d symbols of least period d
    written at ``at``, and the symbols on either side set to break it, so
    the stretch holds exactly ``matches`` matches at shift d."""
    a, b = rng.choice(q, size=2, replace=False).tolist()
    seq = list(base)
    stop = at + matches + d
    seq[at:stop] = np.resize([a] * (d - 1) + [b], matches + d).tolist()
    if at:
        seq[at - 1] = (seq[at - 1 + d] + 1) % q
    if stop < len(seq):
        seq[stop] = (seq[stop - d] + 1) % q
    return seq


@pytest.mark.parametrize("q", [2, 3, 4, 255, 256])
def test_blocked_scan_matches_naive_and_exact_kernel(q, monkeypatch):
    """Words just below, at and above the length from which uint8 words are
    filtered four symbols at a time, each a clean tiled base with one
    stretch of d-periodic symbols one match short of a window, just long
    enough or one match longer, for every period d below p, at four
    consecutive starts in the middle and at four ending on the last
    symbol or just before it.  ``first_violation`` and ``is_pa`` agree
    with the naive scan of the stretch's neighbourhood (the base's windows
    are clean) and with the exact kernel on the whole word.  l = p + 10
    gives the largest period a need of 11, the least the filter takes."""
    rng = np.random.default_rng(59 + q)
    cut = periodicity._BLOCKED_ROW
    for p in range(3, 9):
        l = p + 10
        tile = _clean_tile(q, l, p, rng)
        for n in (cut - 1, cut, cut + 1):
            base = np.resize(tile, n).tolist()
            for d in range(1, p):
                for matches in (l - d - 1, l - d, l - d + 1):
                    span = matches + d
                    for at in [n // 2 + k for k in range(4)] + [n - span - k for k in range(4)]:
                        seq = _plant(base, q, at, d, matches, rng)
                        w = Word(seq, q)
                        lo, hi = max(at - l - 1, 0), min(at + span + l + 1, n)
                        near = seq[lo:hi]
                        want = naive_first_violation(near, l, p)
                        want = None if want is None else WindowViolation(lo + want[0], want[1])
                        assert first_violation(w, l, p) == want, (p, n, d, matches, at)
                        assert _exact(monkeypatch, first_violation, w, l, p) == want
                        want = naive_no_period_p(near, l, d)
                        assert is_pa(w, l, d) == want == _exact(monkeypatch, is_pa, w, l, d)


@pytest.mark.parametrize("q", [2, 3, 4, 255, 256])
def test_blocked_scan_matches_exact_kernel_on_random_words(q, monkeypatch):
    """Random words, where most candidate stretches are false alarms, and
    the same words read through a stride of 2 (which the filter leaves to
    the exact kernel): the leftmost window and its least period agree with
    the exact kernel for every p from 3 to 8 and several l, from the
    least the filter takes up."""
    rng = np.random.default_rng(61 + q)
    cut = periodicity._BLOCKED_ROW
    for n in (cut - 1, cut, cut + 1, 3 * cut + 2, 100_003):
        arr = rng.integers(0, q, size=2 * n).astype(np.uint8)
        for p in range(3, 9):
            for l in (p + 10, p + 12, p + 17, p + 24):
                periods = range(1, p)
                for row in (arr[:n], arr[n:], arr[::2]):
                    want = _exact(monkeypatch, periodicity._first_windows, row, l, periods)
                    assert periodicity._first_windows(row, l, periods) == want
                    contiguous = np.ascontiguousarray(row)
                    assert periodicity._first_windows(contiguous, l, periods) == want


@pytest.mark.parametrize("q", [2, 3, 4, 255, 256])
def test_blocked_least_period_below(q, monkeypatch):
    """The whole word as one window: a word of period d below p, and the
    same word with one symbol changed at each offset mod 4 at both ends
    and in the middle, against the naive period test."""
    rng = np.random.default_rng(67 + q)
    cut = periodicity._BLOCKED_ROW
    for n in (cut - 1, cut, cut + 1):
        for d in range(1, 8):
            tile = rng.integers(0, q, size=d).tolist()
            tile[-1] = (tile[0] + 1) % q if d > 1 else tile[-1]
            periodic = np.resize(tile, n).tolist()
            for at in [None, 0, 1, 2, 3, n // 2, n // 2 + 1, n - 2, n - 1]:
                seq = list(periodic)
                if at is not None:
                    seq[at] = (seq[at] + 1) % q
                w = Word(seq, q)
                for p in range(3, 9):
                    want = next((pp for pp in range(1, p) if naive_has_period(seq, pp)), None)
                    assert least_period_below(w, p) == want, (n, d, at, p)
                    assert _exact(monkeypatch, least_period_below, w, p) == want


@pytest.mark.parametrize("q", [300, 70000])
def test_wide_symbols_take_the_exact_kernel(q, monkeypatch):
    """uint16 and int64 words of any length keep the exact kernel: every
    ``_leftmost_run`` call sees a whole shift mask, and the results are
    the naive ones."""
    rng = np.random.default_rng(71)
    cut = periodicity._BLOCKED_ROW
    l, p = 14, 4
    tile = _clean_tile(q, l, p, rng)
    sizes = _log_run_calls(monkeypatch)
    for n in (cut, 4 * cut + 1):
        base = np.resize(tile, n).tolist()
        for d in (2, 3):
            for at in (n // 2, n // 2 + 1, n - (l - d) - d):
                seq = _plant(base, q, at, d, l - d, rng)
                w = Word(seq, q)
                assert w.symbols.dtype != np.uint8
                sizes.clear()
                got = first_violation(w, l, p)
                lo = max(at - l - 1, 0)
                want = naive_first_violation(seq[lo : at + 2 * l + 1], l, p)
                assert (got.index - lo, got.least_period) == want
                # the word's shift mask, or after a hit that of its prefix
                # that could still hold an earlier window
                heads = (n, got.index + l - 1)
                assert sizes and all(size + l - need in heads for size, need in sizes)
                sizes.clear()
                assert not is_pa(w, l, d)
                assert sizes == [(n - d, l - d)]


def _near_misses(n):
    """Words full of runs a few matches short of a window at l = 25, p = 4:
    ``0^L 1`` repeated for L = 20 .. 23, and stretches ``(01)^12`` (22
    matches at shift 2, one short) broken by ``10`` or ``110``."""
    for zeros in range(20, 24):
        yield f"0^{zeros}1", np.resize([0] * zeros + [1], n)
    for gap in ([1, 0], [1, 1, 0]):
        yield f"(01)^12{gap}", np.resize([0, 1] * 12 + gap, n)


def test_blocked_scan_caps_its_candidates(monkeypatch):
    """On words full of near misses each maximal period looks at no more
    than ``_BLOCK_MISSES`` candidate stretches before it hands the rest of
    the word to the exact kernel, with one whole-mask call; the answers are
    the exact kernel's, and the cap is reached."""
    n, l, p = 2 * 10**5, 25, 4
    cap = periodicity._BLOCK_MISSES
    calls = _log_run_calls(monkeypatch)
    capped = 0
    for name, arr in _near_misses(n):
        w = Word(arr, 2)
        want = _exact(monkeypatch, first_violation, w, l, p)
        calls.clear()
        assert first_violation(w, l, p) == want, name
        for d in (2, 3):  # the maximal periods below 4
            sizes = [size for size, need in calls if need == l - d]
            looks = [size for size in sizes if size <= l - d + 3]
            assert len(looks) <= cap, (name, d)
            assert sizes[: len(looks)] == looks and len(sizes) <= len(looks) + 1
            capped += len(looks) == cap and len(sizes) == cap + 1
    assert capped


# ---------------------------------------------------------- extension_symbol


@pytest.mark.parametrize(
    "text,q,expected",
    [
        ("0101", 2, 1),
        ("0", 2, 1),
        ("10", 2, 0),
        ("00", 2, 1),
        ("012", 3, 0),
    ],
)
def test_extension_symbol_spots(text, q, expected):
    assert extension_symbol(Word(text, q)) == expected


def test_extension_symbol_property_exhaustive():
    """The returned symbol kills every period below len//2 + 2, and is the
    smallest symbol that does."""
    for q in (2, 3):
        for n in range(1, 9 if q == 2 else 7):
            for tup in all_tuples(q, n):
                seq = list(tup)
                a = extension_symbol(Word(seq, q))
                bound = n // 2 + 2
                ext = seq + [a]

                def clean(sym):
                    cand = seq + [sym]
                    return not any(
                        naive_has_period(cand, pp)
                        for pp in range(1, min(bound, len(cand)))
                    )

                assert clean(a)
                assert all(not clean(b) for b in range(a))
