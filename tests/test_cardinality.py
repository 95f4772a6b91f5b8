import random
import time
from fractions import Fraction

import pytest

from lpacodes import cardinality as card
from lpacodes.cardinality import CountQuery, Family, count_brute, mobius
from lpacodes.codec import derive_params
from lpacodes.errors import BudgetExceededError
from lpacodes.periodicity import Word

from helpers import (
    all_tuples,
    naive_count,
    naive_lpa_count_lower,
    naive_no_period_p,
    naive_rll_count_upper,
    naive_window_clean,
    naive_zero_run_free,
)


def A(q, n, l, p):
    return CountQuery(Family.LPA, q, n, l=l, p=p)


def B(q, n, l, p):
    return CountQuery(Family.PA, q, n, l=l, p=p)


def R(q, n, k):
    return CountQuery(Family.RLL, q, n, k=k)


# ------------------------------------------------------------- enumeration


@pytest.mark.parametrize(
    "query,expected",
    [
        (R(2, 3, 2), 5),
        (B(2, 4, 4, 2), 12),
        (A(2, 4, 4, 3), 12),
        (A(2, 6, 6, 3), 60),
        (A(2, 7, 6, 3), 116),
        (A(2, 8, 6, 3), 224),
        (B(2, 6, 5, 2), 52),
        (A(3, 5, 4, 2), 228),
    ],
)
def test_count_brute_spot_values(query, expected):
    assert count_brute(query) == expected


def test_count_brute_agrees_with_per_word_predicates():
    # independent check: literally filter all words with the slow scanners
    for n in range(4, 9):
        words = [list(t) for t in all_tuples(2, n)]
        # windows up to two longer than the word, where every word counts
        for l in range(3, n + 3):
            for p in range(2, l):
                assert count_brute(A(2, n, l, p)) == sum(
                    naive_window_clean(w, l, p) for w in words
                )
                assert count_brute(B(2, n, l, p)) == sum(
                    naive_no_period_p(w, l, p) for w in words
                )
        for k in range(1, 5):
            assert count_brute(R(2, n, k)) == sum(
                naive_zero_run_free(w, k) for w in words
            )


def test_count_brute_ternary():
    words = [list(t) for t in all_tuples(3, 5)]
    assert count_brute(A(3, 5, 4, 2)) == sum(
        naive_window_clean(w, 4, 2) for w in words
    )


def test_count_brute_budget():
    with pytest.raises(BudgetExceededError) as info:
        count_brute(A(2, 40, 8, 2), budget=1 << 20)
    assert info.value.cost == 2**40
    assert info.value.budget == 1 << 20


def test_count_brute_refuses_past_the_digit_limit():
    # 2**20000 has 6,021 decimal digits, past what Python converts by default
    with pytest.raises(BudgetExceededError) as info:
        count_brute(A(2, 20000, 20, 4))
    assert str(info.value) == (
        "enumerating 2**20000 words exceeds the budget of 16777216"
    )
    assert info.value.cost == 2**20000


def test_budget_refusal_never_builds_q_to_the_n():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"3\*\*10000000 words"):
        count_brute(A(3, 10**7, 20, 4))
    assert time.perf_counter() - start < 0.1


def test_budget_test_matches_the_power():
    for q in (2, 3, 7, 10**6):
        for n in range(1, 40):
            cost = q**n
            for budget in (0, 1, 2, cost - 1, cost, cost + 1, 1 << 24, cost**2):
                assert card._within_budget(q, n, budget) == (cost <= budget), (q, n, budget)


# ---------------------------------------------------------- count engines

DP = "window-state DP"
ENUMERATED = "chunked lexicographic enumeration"


def by_states(family, q, n, l=None, p=None, k=None):
    """The state engine's count, never abandoned for enumeration."""
    count, engine = card._count_exact(family, q, n, l, p, k, None)
    expected = "zero-run recurrence" if family is Family.RLL else DP
    if l is not None and l > n:
        expected = "every word: no window fits"
    assert engine == expected
    return count


@pytest.mark.parametrize("q,top", [(2, 9), (3, 9), (4, 8)])
def test_state_counts_match_naive_counts_exhaustively(q, top):
    # every l, p and k up to n = top (4**9 words would take the naive
    # oracle about 7 s), windows up to one longer than the word
    for n in range(1, top + 1):
        for l in range(2, n + 2):
            for p in range(2, l + 1):
                got = by_states(Family.LPA, q, n, l, p)
                assert got == naive_count("A", q, n, l, p), ("A", q, n, l, p)
            for p in range(1, l):
                got = by_states(Family.PA, q, n, l, p)
                assert got == naive_count("B", q, n, l, p), ("B", q, n, l, p)
        for k in range(1, n + 1):
            assert by_states(Family.RLL, q, n, k=k) == naive_count("R", q, n, k=k), (q, n, k)


@pytest.mark.parametrize("q,n", [(2, 16), (3, 10), (4, 8)])
def test_state_counts_match_enumeration(q, n):
    # the largest n with q**n <= 2**16; every third window length up to 12
    # (past that, near n ~ l ~ p, the unbounded DP takes seconds)
    for l in range(2, min(n, 12) + 1, 3):
        for p in range(2, l + 1):
            assert by_states(Family.LPA, q, n, l, p) == card._enumerate(
                Family.LPA, q, n, l, p
            ), ("A", q, n, l, p)
        for p in range(1, l):
            assert by_states(Family.PA, q, n, l, p) == card._enumerate(
                Family.PA, q, n, l, p
            ), ("B", q, n, l, p)
    # zero-run words are never enumerated; the naive oracle checks them
    for k in range(1, n + 1):
        assert by_states(Family.RLL, q, n, k=k) == naive_count("R", q, n, k=k), (q, n, k)


def test_engine_choice_each_side():
    # a build allowed no states gives way to enumeration, with the same count
    for family, l, p in ((Family.LPA, 6, 3), (Family.PA, 7, 4)):
        dp = card._count_exact(family, 3, 9, l, p, None, None)
        enumerated = card._count_exact(family, 3, 9, l, p, None, 0)
        assert dp[1] == DP and enumerated[1] == ENUMERATED
        assert dp[0] == enumerated[0]
    # left to itself the library counts on the automaton wherever it has at
    # most q**n / 16 states, as B(2,17,12,10) does (1,536 states for 131,072
    # words), and enumerates on the diagonal n ~ l ~ p, where the automaton
    # is as large as the word space (B(2,16,16,15): 32,768 states for 65,536
    # words)
    report = card.build_report(A(2, 18, 6, 3))
    assert (report.exact, report.provenance["exact"]) == (158592, DP)
    report = card.build_report(B(2, 17, 12, 10))
    assert (report.exact, report.provenance["exact"]) == (34816, DP)
    assert card._count_exact(Family.PA, 2, 17, 12, 10, None, 0) == (34816, ENUMERATED)
    report = card.build_report(B(2, 16, 16, 15))
    assert (report.exact, report.provenance["exact"]) == (32768, ENUMERATED)
    assert card._count_exact(Family.PA, 2, 16, 16, 15, None, None) == (32768, DP)


def test_counts_stay_exact_past_int64():
    # both counts exceed 2**63; int64 arrays would wrap
    count, engine = card._count_exact(Family.LPA, 2, 70, 40, 3, None, None)
    assert engine == DP and count > 2**63
    assert count == card.lpa_count_near_whole(2, 70, 40, 3)
    count, engine = card._count_exact(Family.PA, 2, 70, 6, 2, None, None)
    assert engine == DP and count > 2**63
    assert count == card.pa_count_via_rll(2, 70, 6, 2, 2**80)


def chosen_engine(monkeypatch, family, q, n, l, p):
    """(engine the library picks, [(states built, gave up)] of each build),
    with enumeration stubbed out and counting on the automaton disabled."""
    built = []
    build = card._window_automaton

    def spy(*args):
        states, edges = build(*args)
        built.append((states, edges is None))
        return states, edges

    monkeypatch.setattr(card, "_window_automaton", spy)
    monkeypatch.setattr(card, "_enumerate", lambda *args: None)
    monkeypatch.setattr(card, "_count_by_levels", None)  # counting would fail
    return card._count_cached.__wrapped__(family, q, n, l, p, None)[1], built


@pytest.mark.parametrize("family,q,n,l,p", [(Family.LPA, 2, 20, 20, 20), (Family.PA, 2, 22, 21, 20)])
def test_diagonal_goes_to_enumeration_before_counting(monkeypatch, family, q, n, l, p):
    # the automaton has at least 2**19 states here; the build projects its
    # size from its first levels (1, 1 and 2 new states: the tail doubles
    # each level until it is full) and gives up holding 4 of them
    assert chosen_engine(monkeypatch, family, q, n, l, p) == (ENUMERATED, [(4, True)])


def test_automaton_size_is_capped(monkeypatch):
    # B(2,24,24,14) has 90,112 states, 1/186 of its 2**24 words, but more
    # than the cap: projected past it, the build gives up at once
    engine, built = chosen_engine(monkeypatch, Family.PA, 2, 24, 24, 14)
    assert engine == ENUMERATED
    assert [gave_up for _, gave_up in built] == [True]
    assert built[0][0] <= card._MAX_STATES < 90112 <= 2**24 // card._WORDS_PER_STATE


def test_codes_fit_inside_the_counted_family():
    # encode maps q**n messages one to one into LPA(q, n + 1, l, p)
    for q in (2, 3):
        for p in (3, 4):
            for n in range(p + 3, 64):
                if q ** (n + 1) > card.DEFAULT_BUDGET:
                    break
                l = derive_params(q, n, p).l
                assert count_brute(A(q, n + 1, l, p)) >= q**n, (q, n, l, p)


def test_query_validation():
    with pytest.raises(ValueError):
        CountQuery(Family.RLL, 2, 5)  # k missing
    with pytest.raises(ValueError):
        CountQuery(Family.PA, 2, 5, l=4, p=4)  # PA needs p < l
    with pytest.raises(ValueError):
        CountQuery(Family.LPA, 2, 5, l=4, p=1)  # LPA needs p >= 2
    with pytest.raises(ValueError):
        CountQuery(Family.LPA, 1, 5, l=4, p=2)
    # whole-word window is fine, p = l allowed for LPA
    CountQuery(Family.LPA, 2, 5, l=5, p=5)


def test_mobius_values():
    assert [mobius(d) for d in range(1, 13)] == [
        1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0,
    ]


# ------------------------------------------------------------ closed forms


def test_pa_count_whole_matches_brute():
    for q in (2, 3):
        top = 9 if q == 2 else 6
        for n in range(2, top + 1):
            for p in range(1, n):
                assert card.pa_count_whole(q, n, p) == count_brute(B(q, n, n, p))


def test_lpa_count_whole_matches_brute():
    for q in (2, 3):
        top = 9 if q == 2 else 6
        for n in range(2, top + 1):
            for p in range(2, n + 1):
                if n < 2 * p - 4:
                    continue
                assert card.lpa_count_whole(q, n, p) == count_brute(A(q, n, n, p))


def test_lpa_count_whole_regime_guard():
    with pytest.raises(ValueError):
        card.lpa_count_whole(2, 5, 6)  # n < 2p-4


def test_lpa_count_near_whole_matches_brute():
    checked = 0
    for q in (2, 3):
        top = 12 if q == 2 else 8
        for l in range(4, top + 1):
            for p in range(2, l + 1):
                if l < 2 * p - 4:
                    continue
                end = min(top, 2 * l - 2 * p + 4, 2 * l - 1)
                for n in range(l, end + 1):
                    got = card.lpa_count_near_whole(q, n, l, p)
                    assert got == count_brute(A(q, n, l, p)), (q, n, l, p)
                    checked += 1
    assert checked > 50


def test_lpa_count_near_whole_two_disjoint_windows_excluded():
    # at p = 2 the nominal range would end at n = 2l, but there the
    # single-stretch argument misses words made of two constant blocks
    # (0000 1111), so the implementation stops one short of it
    with pytest.raises(ValueError):
        card.lpa_count_near_whole(2, 8, 4, 2)
    assert count_brute(A(2, 8, 4, 2)) == 162  # what the formula would miss


def test_lpa_count_near_whole_collapses_at_n_equal_l():
    assert card.lpa_count_near_whole(2, 6, 6, 3) == card.lpa_count_whole(2, 6, 3)


def test_lpa_count_near_whole_regime_guard():
    with pytest.raises(ValueError):
        card.lpa_count_near_whole(2, 11, 6, 3)  # n > 2l - 2p + 4


def test_pa_count_via_rll_identity():
    for q in (2, 3):
        top = 10 if q == 2 else 7
        for n in range(3, top + 1):
            for l in range(3, n + 1):
                for p in range(1, l):
                    assert card.pa_count_via_rll(q, n, l, p) == count_brute(
                        B(q, n, l, p)
                    ), (q, n, l, p)


# ----------------------------------------------------------------- bounds


def test_lower_bound_spot_value():
    assert card.lpa_count_lower(2, 8, 6, 2) == 128


def test_sandwich_on_grid():
    for q in (2, 3):
        top = 11 if q == 2 else 7
        for n in range(4, top + 1):
            for l in range(3, n + 1):
                for p in range(2, l):
                    exact = count_brute(A(q, n, l, p))
                    lower = card.lpa_count_lower(q, n, l, p)
                    assert lower <= exact, (q, n, l, p)
                    upper = card.lpa_count_upper(q, n, l, p)
                    if upper is not None:
                        assert exact <= upper, (q, n, l, p)


def test_upper_bound_equality_for_small_period_targets():
    for q, n, l, p in [(2, 8, 5, 2), (2, 9, 6, 3), (2, 10, 6, 2), (3, 7, 5, 3)]:
        assert card.lpa_count_upper(q, n, l, p) == count_brute(A(q, n, l, p))


def test_rll_upper_bound_dominates_exact():
    for q in (2, 3):
        top = 12 if q == 2 else 8
        for n in range(4, top + 1):
            for k in range(2, n // 2 + 1):
                if n < 2 * k:
                    continue
                analytic = card.rll_count_upper(q, n, k)
                assert analytic >= count_brute(R(q, n, k)), (q, n, k)


def test_rll_upper_bound_large_arguments_stay_sane():
    # must not underflow to zero even when the correction term is huge
    val = card.rll_count_upper(2, 10**4, 1)
    assert 0 < val < 2**10**4


def test_power_equals_pow():
    for q in range(2, 65):
        for e in range(201):
            assert card._power(q, e) == q**e, (q, e)


def test_bounds_equal_their_rational_oracles():
    rng = random.Random(28)
    for _ in range(600):
        q = rng.choice((2, 3, 4, 5, 6, 8, 16, 300, 2**63))
        n = rng.randrange(1, 3001)
        p = rng.randrange(2, 10)
        l = p + rng.randrange(1, 20)
        k = rng.randrange(1, 16)
        assert card.lpa_count_lower(q, n, l, p) == naive_lpa_count_lower(q, n, l, p), (q, n, l, p)
        if n >= 2 * k:
            assert card.rll_count_upper(q, n, k) == naive_rll_count_upper(q, n, k), (q, n, k)


@pytest.mark.parametrize(
    "q,n,l,p,expected",
    [
        (2, 8, 7, 4, 0),  # D = (q-1) q**(l-p) = 8 = n
        (2, 100, 7, 4, 0),  # D < n
        (2, 7, 7, 4, 16),  # D = n + 1: 2**7 / 8
        (3, 17, 4, 2, 3**15 // 2),  # D = 18 = n + 1, not a whole multiple
        (2, 3, 10, 4, 7),  # n < l - p: floor(8 * 61 / 64)
        (2, 6, 10, 4, 58),  # n = l - p: floor(64 * 58 / 64)
    ],
)
def test_lower_bound_edges(q, n, l, p, expected):
    assert card.lpa_count_lower(q, n, l, p) == expected
    assert naive_lpa_count_lower(q, n, l, p) == expected


@pytest.mark.parametrize(
    "q,n,k",
    [
        (2, 8, 4),  # n = 2k: no exponent cut, q**n plus the slack
        (5, 6, 3),
        (2, 10**4, 1),  # t_int = 901
        (3, 200, 1),
        (300, 40, 1),
    ],
)
def test_rll_upper_bound_edges(q, n, k):
    assert card.rll_count_upper(q, n, k) == naive_rll_count_upper(q, n, k)


@pytest.mark.parametrize("q", [2, 3, 4, 6])
def test_bounds_equal_their_oracles_at_large_n(q):
    # n = 10**5: q = 2 and 4 build q**n by a shift alone, 6 by 3**n and a
    # shift, 3 by pow alone
    n = 10**5
    assert card.lpa_count_lower(q, n, 20, 4) == naive_lpa_count_lower(q, n, 20, 4)
    assert card.rll_count_upper(q, n, 9) == naive_rll_count_upper(q, n, 9)


def test_rll_upper_bound_past_the_float_range():
    # 2 q**2 still fits a float at q = 2**511, so c is the oracle's float there
    q = 2**511
    assert card.rll_count_upper(q, 10, 2) == naive_rll_count_upper(q, 10, 2)
    q = 2**600
    with pytest.raises(OverflowError):
        naive_rll_count_upper(q, 10, 2)
    # q**-k leaves nothing to cut: q**n plus the 2**-40 slack
    assert card.rll_count_upper(q, 10, 2) == q**10 + (q**10 >> 40)
    assert card.lpa_count_upper(q, 30, 8, 3) == q**2 * card.rll_count_upper(q, 28, 6)
    assert card.lpa_count_lower(q, 30, 8, 3) == naive_lpa_count_lower(q, 30, 8, 3)


def test_upper_bound_falls_back_to_analytic():
    # exact RLL enumeration would need 2^61 words; analytic regime applies
    got = card.lpa_count_upper(2, 64, 10, 4, budget=1 << 20)
    assert got is not None
    assert got >= card.lpa_count_lower(2, 64, 10, 4)


def test_upper_bound_label_names_the_branch_taken():
    # the relaxation counts zero-run words of length m = n - p + 1 = 61
    q, n, l, p = 2, 64, 10, 4
    m = n - p + 1
    exact = card.build_report(A(q, n, l, p), include_exact=False, budget=q**m)
    analytic = card.build_report(A(q, n, l, p), include_exact=False, budget=q**m - 1)
    assert exact.provenance["upper_bound"] == "exact zero-run relaxation"
    assert analytic.provenance["upper_bound"] == "analytic zero-run relaxation, ceiled"
    assert exact.lower_bound <= exact.upper_bound <= analytic.upper_bound
    neither = card.build_report(A(2, 30, 25, 4), include_exact=False, budget=1 << 10)
    assert neither.upper_bound is None
    assert "upper_bound" not in neither.provenance


def test_upper_bound_absent_when_nothing_applies():
    # out of the analytic regime and over budget for exact enumeration
    assert card.lpa_count_upper(2, 30, 25, 4, budget=1 << 10) is None


def test_monotonicity_in_p_and_l():
    for n in (7, 9):
        counts_p = [count_brute(A(2, n, 6, p)) for p in range(2, 6)]
        assert counts_p == sorted(counts_p, reverse=True)
        counts_l = [count_brute(A(2, n, l, 3)) for l in range(4, n + 1)]
        assert counts_l == sorted(counts_l)


def test_lpa_as_intersection_of_pa():
    # the strict family at p equals the intersection of single-period
    # families at every smaller period
    for n in range(5, 9):
        for l in (4, 5):
            for p in (3, 4):
                if p + 1 > l:
                    continue
                inter = 0
                for tup in all_tuples(2, n):
                    seq = list(tup)
                    if all(
                        naive_no_period_p(seq, l, pp) for pp in range(1, p)
                    ):
                        inter += 1
                assert count_brute(A(2, n, l, p)) == inter


# ----------------------------------------------------- window feasibility


def test_min_window_feasible_spots():
    assert card.min_window_feasible(2, 14, 4) == 4
    assert card.min_window_feasible(2, 100, 4) == 7


def test_min_window_feasible_monotone_in_n():
    values = [card.min_window_feasible(2, n, 4) for n in range(20, 4000, 37)]
    assert values == sorted(values)


def test_derived_window_close_to_feasible():
    from lpacodes.codec import derive_params

    for n in (100, 500, 2500, 60000):
        achieved = derive_params(2, n, 4).l
        feasible = card.min_window_feasible(2, n + 1, 4)
        if n + 1 >= 3 * achieved - 2 * 4 + 2:
            assert achieved - feasible <= 6


# ----------------------------------------------------------------- reports


def test_build_report_consistent():
    report = card.build_report(A(2, 8, 6, 3))
    assert report.exact == 224
    assert report.formula == 224
    assert report.violations() == []
    assert report.lower_bound <= report.exact <= report.upper_bound
    assert "exact" in report.provenance


def test_build_report_formula_only():
    report = card.build_report(B(2, 20, 6, 2), include_exact=False)
    assert report.exact is None
    assert report.formula == 4 * count_brute(R(2, 18, 4))
    assert report.violations() == []


def test_build_report_flags_disagreement():
    report = card.CountReport(
        query=A(2, 6, 4, 2),
        exact=10,
        formula=11,
        lower_bound=None,
        upper_bound=None,
        provenance={},
    )
    assert report.violations()


def test_report_names_each_broken_bound():
    report = card.CountReport(query=A(2, 6, 4, 2), exact=10, lower_bound=11, upper_bound=9)
    assert report.violations() == [
        "lower bound 11 exceeds exact value 10",
        "exact value 10 exceeds upper bound 9",
    ]


def test_formula_skip_past_the_digit_limit():
    # the zero-run identity would enumerate 2**19996 words
    report = card.build_report(B(2, 20000, 20, 4), include_exact=False)
    assert report.formula is None
    assert report.provenance["formula"] == (
        "zero-run identity skipped: enumerating 2**19996 words exceeds the "
        "budget of 16777216"
    )


def test_all_words_enumerates_in_order():
    words = list(card.all_words(2, 3))
    assert len(words) == 8
    assert words[0] == Word("000", 2)
    assert words[-1] == Word("111", 2)
    assert all(isinstance(w, Word) for w in words)
