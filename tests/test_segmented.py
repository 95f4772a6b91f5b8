import hashlib

import numpy as np
import pytest

from lpacodes import codec, segmented
from lpacodes.codec import LpaParams, derive_params
from lpacodes.errors import CorruptCodewordError, InfeasibleParametersError
from lpacodes.periodicity import Word, first_violation
from lpacodes.segmented import SegmentedParams, Variant

from helpers import (
    all_tuples,
    naive_plan,
    naive_prefers_glue,
    naive_prefers_separator,
    naive_segmented_decode,
    naive_segmented_encode,
    naive_window_clean,
)


# ------------------------------------------------------------------ plans


@pytest.mark.parametrize(
    "q,n,l,p,variant,k,redundancy",
    [
        (2, 24, 10, 2, Variant.HALF_WINDOW, 4, 4),
        (2, 12, 10, 2, Variant.HALF_WINDOW, 2, 2),
        (2, 28, 8, 4, Variant.SEPARATOR, 2, 8),
        (2, 13, 6, 3, Variant.SEPARATOR, 2, 7),
        (2, 40, 9, 4, Variant.GLUE_ONLY, 2, 4),
        (2, 10, 5, 3, Variant.GLUE_ONLY, 2, 4),
        (2, 40, 6, 3, Variant.GLUE_ONLY, 5, 13),
    ],
)
def test_plan_picks_smallest_k(q, n, l, p, variant, k, redundancy):
    sp = segmented.plan(q, n, l, p, variant)
    assert sp.k == k
    assert sp.total_redundancy == redundancy
    assert sum(sp.segment_lengths) == n
    # every segment must still hold at least one per-segment window
    window = sp.base[0].l
    assert all(m >= window for m in sp.segment_lengths)


def test_plan_variant_preconditions():
    # glue-only needs two flanks' worth of window
    with pytest.raises(InfeasibleParametersError):
        segmented.plan(2, 28, 8, 4, Variant.GLUE_ONLY)
    # separator needs one flank plus the whole separator block
    with pytest.raises(InfeasibleParametersError):
        segmented.plan(2, 28, 7, 4, Variant.SEPARATOR)
    # half-window segments must fit a repair record
    with pytest.raises(InfeasibleParametersError):
        segmented.plan(2, 1000, 5, 4, Variant.HALF_WINDOW)


def test_plan_matches_naive_k_walk():
    """plan solves for its starting k and jumps over equal head lengths;
    the oracle walks k from 1."""
    points = [
        (q, n, l, p)
        for q in (2, 3)
        for p in range(2, 6)
        for l in range(2, 17)
        for n in [*range(1, 61), 1000, 1009, 4099]
    ]
    # HALF_WINDOW here passes about 6,000 counts whose tail is too short
    points.append((2, 5 * 10**5, 16, 4))
    for q, n, l, p in points:
        for variant in Variant:
            expected = naive_plan(q, n, l, p, variant.value)
            if expected is None:
                with pytest.raises(InfeasibleParametersError):
                    segmented.plan(q, n, l, p, variant)
                continue
            sp = segmented.plan(q, n, l, p, variant)
            got = (sp.k, sp.segment_lengths, sp.total_redundancy)
            assert got == expected, (q, n, l, p, variant)


def test_plan_k1_is_the_plain_code():
    sp = segmented.plan(2, 14, 9, 4, Variant.GLUE_ONLY)
    assert sp.k == 1
    assert sp.total_redundancy == 1
    assert sp.segment_lengths == (14,)


def test_params_derive_layout_from_k():
    sp = segmented.SegmentedParams(Variant.SEPARATOR, q=2, n=28, l=8, p=4, k=3)
    assert sp.segment_lengths == (10, 10, 8)
    assert [params.n for params in sp.base] == [10, 10, 8]
    assert all(params.l == 8 for params in sp.base)
    assert sp.total_redundancy == 3 + 2 * (4 + 2)
    assert segmented.plan(2, 28, 8, 4, Variant.SEPARATOR) == (
        segmented.SegmentedParams("sep", q=2, n=28, l=8, p=4, k=2)
    )


@pytest.mark.parametrize(
    "n,k",
    [
        (28, 0),  # no segment at all
        (28, -1),
        (28, 29),  # more segments than symbols
        (15, 2),  # segments of 8 and 7: the tail is shorter than the window
        (28, 1),  # one 28-symbol segment: 3 index digits address 8 starts
    ],
)
def test_params_reject_bad_k(n, k):
    with pytest.raises(ValueError):
        segmented.SegmentedParams(Variant.SEPARATOR, q=2, n=n, l=8, p=4, k=k)


def test_params_reject_layout_below_its_least_window():
    # k = 2 fits the index field, but a window that misses part of a
    # glue-only joint would not hold a whole flank at l = 8
    with pytest.raises(InfeasibleParametersError, match="needs l >= 9"):
        segmented.SegmentedParams(Variant.GLUE_ONLY, q=2, n=28, l=8, p=4, k=2)


def test_capacity_rule_agrees_across_its_users():
    """A message of n symbols fits window l exactly when the l - p - 1
    index digits address all n - l + 2 window starts; LpaParams,
    derive_params and plan must all draw the line there."""
    for q in (2, 3, 4):
        for p in range(2, 6):
            for l in range(p + 2, p + 7):
                for n in range(l, q ** (l - p - 1) + l + 2):
                    fits = q ** (l - p - 1) >= n - l + 2
                    try:
                        LpaParams(q=q, n=n, p=p, l=l)
                        built = True
                    except ValueError:
                        built = False
                    assert built == fits, (q, n, p, l)
                    assert (derive_params(q, n, p).l <= l) == fits
                    # half-window segments of window l: one segment iff it fits
                    try:
                        k = segmented.plan(q, n, 2 * l, p, Variant.HALF_WINDOW).k
                    except InfeasibleParametersError:
                        k = None
                    assert (k == 1) == fits, (q, n, p, l)


def test_plan_argument_validation():
    with pytest.raises(ValueError):
        segmented.plan(1, 20, 8, 4, Variant.SEPARATOR)
    with pytest.raises(ValueError):
        segmented.plan(2, 0, 8, 4, Variant.SEPARATOR)
    with pytest.raises(ValueError):
        segmented.plan(2, 20, 8, 1, Variant.SEPARATOR)


# ------------------------------------------------------------- round trips


def _assert_exhaustive_round_trip(sp):
    for tup in all_tuples(sp.q, sp.n):
        x = Word(list(tup), sp.q)
        y = segmented.encode(x, sp)
        assert len(y) == sp.n + sp.total_redundancy
        assert naive_window_clean(y.to_list(), sp.l, sp.p)
        assert segmented.decode(y, sp) == x


def test_half_window_exhaustive():
    _assert_exhaustive_round_trip(segmented.plan(2, 12, 10, 2, Variant.HALF_WINDOW))


def test_separator_exhaustive():
    _assert_exhaustive_round_trip(segmented.plan(2, 13, 6, 3, Variant.SEPARATOR))


def test_separator_exhaustive_below_conservative_window():
    # l = 5 at p = 3: boundary windows still can't pick up a short period
    # because any window missing part of the separator block covers a
    # whole flank and its glue symbol
    _assert_exhaustive_round_trip(segmented.plan(2, 10, 5, 3, Variant.SEPARATOR))


def test_glue_only_exhaustive():
    _assert_exhaustive_round_trip(segmented.plan(2, 10, 5, 3, Variant.GLUE_ONLY))


def test_glue_only_exhaustive_p2():
    # p = 2 means no constant window anywhere, including across the glue
    _assert_exhaustive_round_trip(segmented.plan(2, 12, 4, 2, Variant.GLUE_ONLY))


def test_separator_random_large():
    sp = segmented.plan(2, 28, 8, 4, Variant.SEPARATOR)
    rng = np.random.default_rng(5)
    for _ in range(500):
        x = Word(rng.integers(0, 2, size=28, dtype=np.int64), 2)
        y = segmented.encode(x, sp)
        assert naive_window_clean(y.to_list(), 8, 4)
        assert segmented.decode(y, sp) == x


def test_ternary_separator_round_trip():
    sp = segmented.plan(3, 16, 6, 3, Variant.SEPARATOR)
    rng = np.random.default_rng(11)
    for _ in range(300):
        x = Word(rng.integers(0, 3, size=16, dtype=np.int64), 3)
        y = segmented.encode(x, sp)
        assert naive_window_clean(y.to_list(), 6, 3)
        assert segmented.decode(y, sp) == x


@pytest.mark.parametrize("q", [2**63, 2**64])
def test_round_trips_where_q_passes_int64(q):
    """At q >= 2**63 a symbol fills an int64 and q does not fit one: the
    all-zero and all-(2**63 - 1) messages round trip through one segment and
    through four, and the batched repair loop gives each row what ``encode``
    gives it."""
    top = 2**63 - 1
    one = segmented.plan(q, 100, 12, 4, Variant.GLUE_ONLY)
    four = SegmentedParams(Variant.GLUE_ONLY, q, 100, 12, 4, k=4)
    for sp in (one, four):
        for value in (0, top):
            x = Word([value] * 100, q)
            y = segmented.encode(x, sp)
            assert naive_window_clean(y.to_list(), sp.l, sp.p)
            assert segmented.decode(y, sp) == x
    params = four.base[0]
    msgs = np.zeros((3, params.n), dtype=np.int64)
    msgs[1] = top
    msgs[2, ::2] = top
    got = codec._encode_rows(msgs, params)
    assert got.tolist() == [codec.encode(Word(m, q), params)[0].to_list() for m in msgs]
    assert np.array_equal(codec._decode_rows(got, params), msgs)


# ------------------------------------------------ segment-at-a-time oracle


def _oracle_layouts():
    """Every buildable layout over a small grid, per variant and alphabet,
    with one segment, several, and a tail shorter than the others."""
    layouts = []
    for q in (2, 3):
        for variant in Variant:
            seen = set()
            for l, p in ((10, 2), (6, 3), (8, 3), (9, 4), (12, 4)):
                for n in (7, 8, 9, 14, 23, 31, 40):
                    for k in (1, 2, 3, 4, 5):
                        try:
                            sp = SegmentedParams(variant, q=q, n=n, l=l, p=p, k=k)
                        except ValueError:
                            continue
                        head, tail = sp.segment_lengths[0], sp.segment_lengths[-1]
                        if k == 1:
                            seen.add("one")
                        else:
                            seen.add("short tail" if tail < head else "even")
                        layouts.append(sp)
            assert seen == {"one", "even", "short tail"}, (q, variant)
    return layouts


def test_matches_segment_at_a_time_oracle():
    rng = np.random.default_rng(23)
    for sp in _oracle_layouts():
        idx = np.arange(sp.n)
        messages = [np.zeros(sp.n, dtype=np.int64), idx % 2]
        messages += [rng.integers(0, sp.q, size=sp.n) for _ in range(4)]
        for arr in messages:
            x = Word(arr, sp.q)
            y = segmented.encode(x, sp)
            assert y == naive_segmented_encode(x, sp), sp
            assert segmented.decode(y, sp) == naive_segmented_decode(y, sp) == x


def _hashed_bits(n):
    """n pseudo-random bits that do not depend on numpy's generators."""
    blocks = b"".join(hashlib.sha256(i.to_bytes(4, "big")).digest() for i in range(-(-n // 256)))
    return np.unpackbits(np.frombuffer(blocks, np.uint8))[:n]


# sha256 of the codeword symbols (one byte each), as the segment-at-a-time
# codec wrote them, at n = 10^5, q = 2, p = 4 (glue-only at both l)
PINNED = {
    (16, "zeros"): "627a7291f2fcc80a",
    (16, "0101"): "678ef3c6ef8343b3",
    (16, "hashed"): "8726f7b660fdc0f3",
    (12, "zeros"): "fa794ba7ac21f861",
    (12, "0101"): "5d61a4e66a162398",
    (12, "hashed"): "a2e491b5a1cf3463",
}


@pytest.mark.parametrize("l,k", [(16, 49), (12, 725)])
def test_benchmark_scale_codewords_are_pinned(l, k):
    """The batched codec writes the codewords that encoding one segment at
    a time wrote, on messages that need many repairs per row (zeros,
    0101...) and few (hashed bits), and decodes them back."""
    n = 10**5
    sp = segmented.select_construction(2, n, l, 4).params
    assert (sp.k, sp.variant) == (k, Variant.GLUE_ONLY)
    messages = {"zeros": np.zeros(n, np.uint8), "0101": np.arange(n) % 2, "hashed": _hashed_bits(n)}
    for name, arr in messages.items():
        x = Word(arr, 2)
        y = segmented.encode(x, sp)
        assert hashlib.sha256(y.symbols.tobytes()).hexdigest()[:16] == PINNED[l, name]
        assert y == naive_segmented_encode(x, sp), name
        assert segmented.decode(y, sp) == naive_segmented_decode(y, sp) == x


def _outcome(decoder, y, sp):
    try:
        return decoder(y, sp)
    except CorruptCodewordError as exc:
        return str(exc)


@pytest.mark.parametrize("variant", [Variant.SEPARATOR, Variant.GLUE_ONLY])
@pytest.mark.parametrize("q", [2, 3])
def test_every_symbol_change_decodes_like_the_oracle(variant, q):
    """Change each symbol of k = 3 codewords to each other value: the
    result, or the first error met by a walk that decodes segment j - 1
    before it checks joint j, must be the oracle's."""
    sp = SegmentedParams(variant, q=q, n=23, l=6, p=3, k=3)
    rng = np.random.default_rng(q)
    messages = [np.zeros(sp.n, dtype=np.int64), np.arange(sp.n) % 2]
    messages += [rng.integers(0, q, size=sp.n) for _ in range(6)]
    errors = set()
    for arr in messages:
        y = segmented.encode(Word(arr, q), sp).to_list()
        for i in range(len(y)):
            for a in range(q):
                if a == y[i]:
                    continue
                z = Word(y[:i] + [a] + y[i + 1 :], q)
                got = _outcome(segmented.decode, z, sp)
                assert got == _outcome(naive_segmented_decode, z, sp), (arr, i, a)
                if isinstance(got, str):
                    errors.add(got.split(" ")[0])
    # both kinds of failure occur: a damaged joint and a damaged segment
    assert "glue" in errors and len(errors) > 1


def _counting(monkeypatch, name):
    calls = []
    real = getattr(codec, name)

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(codec, name, counted)
    return calls


def test_work_only_on_rows_that_need_it(monkeypatch):
    """Deterministic companion of the timing numbers: encode's first repair
    pass excises only the segments whose marked message has an offending
    window, and decode walks only the codewords that end in 0, lowest
    first, undoing one record per repair; the rest cost nothing, and no
    segment goes through the one-word ``codec.encode`` or ``codec.decode``."""
    sp = segmented.plan(2, 10**4, 12, 4, Variant.GLUE_ONLY)
    x = Word(np.random.default_rng(3).integers(0, 2, size=sp.n), 2)
    starts = np.cumsum((0,) + sp.segment_lengths)
    marked = [x[a:b] + Word([1], 2) for a, b in zip(starts, starts[1:])]
    need_repair = [
        j for j, w in enumerate(marked) if first_violation(w, sp.base[j].l, sp.p)
    ]
    assert 0 < len(need_repair) < sp.k // 2
    repairs = [
        len(codec.encode(x[starts[j] : starts[j + 1]], sp.base[j])[1].steps)
        for j in need_repair
    ]
    one_word = [_counting(monkeypatch, name) for name in ("encode", "decode")]

    excised = _counting(monkeypatch, "_excise_rows")
    y = segmented.encode(x, sp)
    # the tail needs no repair here, so every pass is over the equal segments
    assert need_repair[-1] < sp.k - 1
    assert excised[0].tolist() == [marked[j].to_list() for j in need_repair]
    assert all(len(a) >= len(b) for a, b in zip(excised, excised[1:]))

    step = sp.segment_lengths[0] + 1 + sp.joint_length
    codewords = [y[j * step : j * step + sp.segment_lengths[j] + 1] for j in range(sp.k)]
    walked, undone = [], []
    unwind, restore = codec._State.unwind, codec._State.restore

    def counted_unwind(state, saved):
        walked.append(bytes(saved))
        return unwind(state, saved)

    def counted_restore(state):
        count = restore(state)
        undone.append((len(walked), count))
        return count

    monkeypatch.setattr(codec._State, "unwind", counted_unwind)
    monkeypatch.setattr(codec._State, "restore", counted_restore)
    assert segmented.decode(y, sp) == x
    ends_in_0 = [j for j, w in enumerate(codewords) if w[-1] == 0]
    assert ends_in_0 == need_repair
    assert walked == [codewords[j].symbols.tobytes() for j in need_repair]
    # each walk undoes one record per repair of its segment
    totals = [0] * len(walked)
    for walk, count in undone:
        totals[walk - 1] += count
    assert totals == repairs
    assert one_word == [[], []]


# ------------------------------------------------------- decode hardening


@pytest.mark.parametrize(
    "segments",
    [
        ("sound", "cycle", "sound"),
        ("cycle", "sound", "sound"),
        ("sound", "sound", "cycle"),
        ("all zero", "cycle", "sound"),
        ("sound", "all zero", "cycle"),
        ("cycle", "sound", "all zero"),
    ],
)
def test_decode_rejects_a_segment_whose_records_cycle(segments):
    """Three segments of 14 symbols at l = 8, p = 4, with intact joints
    built from the forged codewords: a segment whose inverse walk revisits
    a state, in an equal segment or in the tail, is rejected through
    ``segmented.decode``, after the error of any earlier damaged segment."""
    sp = SegmentedParams(Variant.SEPARATOR, q=2, n=42, l=8, p=4, k=3)
    params = sp.base[0]
    assert sp.base == (params,) * 3 and (params.n, params.l) == (14, 8)
    codewords = {
        "sound": codec.encode(Word("0" * 14, 2), params)[0].to_list(),
        "cycle": [int(c) for c in "010011001110000"],
        "all zero": [int(c) for c in "000000001010010"],
    }
    errors = {"cycle": "repair records form a cycle", "all zero": "kernel block is all zero"}
    for name, error in errors.items():
        with pytest.raises(CorruptCodewordError, match=f"^{error}$"):
            codec.decode(Word(codewords[name], 2), params)
    rows = np.array([codewords[name] for name in segments], dtype=np.uint8)
    heads, tail = rows[:-1], rows[-1:]
    joined = np.hstack([heads, segmented._joints(sp, heads, tail)])
    y = Word(np.concatenate([joined.ravel(), tail[0]]), 2)
    first = next(name for name in segments if name != "sound")
    with pytest.raises(CorruptCodewordError, match=f"^{errors[first]}$"):
        segmented.decode(y, sp)


def test_decode_checks_length():
    sp = segmented.plan(2, 13, 6, 3, Variant.SEPARATOR)
    with pytest.raises(ValueError):
        segmented.decode(Word("0" * 5, 2), sp)


def test_decode_rejects_damaged_separator_block():
    sp = segmented.plan(2, 13, 6, 3, Variant.SEPARATOR)
    x = Word("1011010001101", 2)
    y = segmented.encode(x, sp)
    assert segmented.decode(y, sp) == x
    # the block after the first glue symbol must read 1 0 0; zero it out
    syms = y.to_list()
    start = sp.segment_lengths[0] + 1 + 1
    syms[start : start + sp.p] = [0] * sp.p
    with pytest.raises(CorruptCodewordError):
        segmented.decode(Word(syms, 2), sp)


@pytest.mark.parametrize("variant", [Variant.GLUE_ONLY, Variant.SEPARATOR])
def test_decode_rejects_flipped_glue_symbols(variant):
    # every symbol of every joint (u, then for SEPARATOR the 1 and each 0,
    # then w) is rebuilt from the neighbouring codewords and compared
    sp = segmented.plan(2, 20, 6, 3, variant)
    assert sp.k >= 3
    joint_len = 2 if variant is Variant.GLUE_ONLY else sp.p + 2
    rng = np.random.default_rng(17)
    for _ in range(20):
        x = Word(rng.integers(0, 2, size=sp.n, dtype=np.int64), 2)
        y = segmented.encode(x, sp)
        assert segmented.decode(y, sp) == x
        start = 0
        for j, length in enumerate(sp.segment_lengths[:-1], start=1):
            start += length + 1
            for at in range(joint_len):
                syms = y.to_list()
                syms[start + at] ^= 1
                with pytest.raises(
                    CorruptCodewordError,
                    match=f"glue joint before segment {j} .* symbol {at}$",
                ):
                    segmented.decode(Word(syms, 2), sp)
            start += joint_len


def test_encode_validates_input_length():
    sp = segmented.plan(2, 13, 6, 3, Variant.SEPARATOR)
    with pytest.raises(ValueError):
        segmented.encode(Word("101", 2), sp)


# ---------------------------------------------------------------- selection


def test_select_prefers_cheapest_variant():
    sel = segmented.select_construction(2, 28, 8, 4)
    assert sel.variant is Variant.SEPARATOR
    assert sel.params.total_redundancy == 8
    assert Variant.GLUE_ONLY not in sel.candidates  # infeasible there

    sel = segmented.select_construction(2, 40, 6, 3)
    assert sel.variant is Variant.GLUE_ONLY
    assert sel.params.k == 5
    assert sel.params.total_redundancy == 13


def test_select_breaks_ties_toward_glue():
    sel = segmented.select_construction(2, 14, 9, 4)
    assert sel.candidates[Variant.SEPARATOR].total_redundancy == 1
    assert sel.candidates[Variant.GLUE_ONLY].total_redundancy == 1
    assert sel.variant is Variant.GLUE_ONLY


def test_select_infeasible_everywhere():
    with pytest.raises(InfeasibleParametersError):
        segmented.select_construction(2, 1000, 5, 4)


def test_select_reports_every_feasible_candidate():
    sel = segmented.select_construction(2, 24, 10, 2)
    assert Variant.HALF_WINDOW in sel.candidates
    best = min(c.total_redundancy for c in sel.candidates.values())
    assert sel.params.total_redundancy == best


def test_closed_form_preference_matches_plans_in_regime():
    """Where the comparison inequalities are meant to apply, they should
    agree with redundancy comparisons computed from actual plans."""
    for q in (2, 3):
        for p in (2, 3, 4):
            for l in range(max(2 * p + 2, 3 * p - 3), 16, 2):
                n = 6 * l
                try:
                    half = segmented.plan(q, n, l, p, Variant.HALF_WINDOW)
                    sep = segmented.plan(q, n, l, p, Variant.SEPARATOR)
                except InfeasibleParametersError:
                    continue
                predicted = naive_prefers_separator(q, l, p)
                actual = sep.total_redundancy <= half.total_redundancy
                assert predicted == actual, (q, n, l, p)


@pytest.mark.parametrize(
    "variant,predicate",
    [
        (Variant.SEPARATOR, naive_prefers_separator),
        (Variant.GLUE_ONLY, naive_prefers_glue),
    ],
)
def test_closed_forms_agree_with_exact_plans(variant, predicate):
    """Wherever half-window and the other layout are both feasible, the
    closed-form comparison predicts what the exact plans that
    ``select_construction`` compares say: the other layout costs no more."""
    compared = 0
    for q in (2, 3, 4):
        for p in range(2, 7):
            for l in range(4, 25):
                for n in [*range(5, 300, 7), 10**3, 10**4, 10**5, 10**6]:
                    try:
                        candidates = segmented.select_construction(q, n, l, p).candidates
                    except InfeasibleParametersError:
                        continue
                    half = candidates.get(Variant.HALF_WINDOW)
                    other = candidates.get(variant)
                    if half is None or other is None:
                        continue
                    actual = other.total_redundancy <= half.total_redundancy
                    assert predicate(q, l, p) == actual, (q, n, l, p)
                    compared += 1
    assert compared > 7000
