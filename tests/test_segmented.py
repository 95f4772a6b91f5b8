import numpy as np
import pytest

from lpacodes import segmented
from lpacodes.codec import LpaParams, derive_params
from lpacodes.errors import CorruptCodewordError, InfeasibleParametersError
from lpacodes.periodicity import Word
from lpacodes.segmented import Variant

from helpers import all_tuples, naive_plan, naive_window_clean


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
                    if n > p + 2:
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


# ------------------------------------------------------- decode hardening


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
                predicted = segmented.prefers_separator(q, l, p)
                actual = sep.total_redundancy <= half.total_redundancy
                assert predicted == actual, (q, n, l, p)
