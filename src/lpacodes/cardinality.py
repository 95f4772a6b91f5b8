"""Exact counts, closed-form counts, and analytic bounds.

Families of words over {0, .., q-1}:

* LPA (letter ``A``): no length-l window has any period below p.
* PA  (letter ``B``): no length-l window has period exactly p.
* RLL (letter ``R``): no run of k consecutive zeros.

``count_brute`` is the exact count every closed form is tested against.
It counts by states rather than words: zero-run words by the length of
their trailing zero run (O(n k)), window families on a compiled automaton
whose states are the last few symbols and one match run per forbidden
period, as in transfer-matrix counts of pattern-avoiding strings (Guibas
and Odlyzko, 1981).  The automaton is built once, breadth first, into
arrays of edges; each of the n levels is then a gather, a multiply and a
sum per target.  Where it would be nearly as large as the word space (n
near l near p) the build stops within its first levels, before any
counting, and all q**n words are enumerated in lexicographic chunks
instead, filtered with vectorized window masks.  The formulas and bounds
use exact integer arithmetic, rounding analytic expressions outward so a
bound is never accidentally tightened by floating-point noise; a power of
q whose exponent grows with n is built by ``_power``, which shifts q's
factor of 2 out and back, so q = 2 costs one shift instead of a pow.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError
from .periodicity import (
    Word,
    _check_alphabet,
    _check_run_length,
    _dtype_for,
    _first_windows,
)

__all__ = [
    "Family",
    "CountQuery",
    "CountReport",
    "DEFAULT_BUDGET",
    "all_words",
    "count_brute",
    "mobius",
    "pa_count_whole",
    "lpa_count_whole",
    "lpa_count_near_whole",
    "lpa_count_lower",
    "lpa_count_upper",
    "rll_count_upper",
    "pa_count_via_rll",
    "min_window_feasible",
    "build_report",
]

DEFAULT_BUDGET = 1 << 24
_CHUNK_ROWS = 1 << 16
# A window family is counted on its automaton when that has at most
# q**n // 16 states, and at most 2**16, and enumerated otherwise.  A state
# costs 3-10 us to build and a word 0.2-1 us to enumerate, and on the
# diagonal n ~ l ~ p the automaton has about as many states as there are
# words.  Over 1,114 window queries (q = 2..5, q**n up to 2**18; two runs on
# a 2-vCPU VM) a divisor of 1, 4, 8, 16, 32, 64 or 128 took 24-26, 15-17,
# 10-11, 8.7-9.2, 8.8-9.1, 10-11 or 12-13 s in all, against 37 s for
# enumeration alone and 17-19 s for a dict-per-level DP abandoned past
# q**n // (16 n) states.  A state also holds 500-700 B, so the cap keeps a
# build under about 45 MB; without it B(2,24,24,18) took 8.9 s and 543 MB
# on its automaton against 4.4 s and 84 MB by enumeration.
_WORDS_PER_STATE = 16
_MAX_STATES = 1 << 16


class Family(str, enum.Enum):
    LPA = "A"
    PA = "B"
    RLL = "R"


@dataclass(frozen=True)
class CountQuery:
    """One counting request; which fields matter depends on the family."""

    family: Family
    q: int
    n: int
    l: int | None = None
    p: int | None = None
    k: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        _check_alphabet(self.q)
        if self.n < 1:
            raise ValueError(f"word length must be positive, got {self.n}")
        if self.family is Family.RLL:
            if self.k is None or self.k < 1:
                raise ValueError("RLL counts need a run length k >= 1")
        else:
            if self.l is None or self.l < 2:
                raise ValueError("window counts need a window length l >= 2")
            if self.p is None:
                raise ValueError("window counts need a period p")
            if self.family is Family.PA and not 1 <= self.p < self.l:
                raise ValueError(
                    f"PA period must lie in [1, {self.l - 1}], got {self.p}"
                )
            if self.family is Family.LPA and not 2 <= self.p <= self.l:
                raise ValueError(
                    f"LPA period target must lie in [2, {self.l}], got {self.p}"
                )


def _lex_chunks(q: int, n: int) -> Iterator[np.ndarray]:
    """Yield all q**n words as uint8/uint16 matrices, lexicographically."""
    dtype = _dtype_for(q)
    total = q**n
    for start in range(0, total, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, total)
        idx = np.arange(start, stop, dtype=np.int64)
        rows = np.empty((stop - start, n), dtype=dtype)
        for col in range(n - 1, -1, -1):
            idx, rem = np.divmod(idx, q)
            rows[:, col] = rem.astype(dtype)
        yield rows


def all_words(q: int, n: int) -> Iterator[Word]:
    """All words of length n in lexicographic order.  Caller minds the cost."""
    _check_alphabet(q)
    for rows in _lex_chunks(q, n):
        for row in rows:
            arr = row.copy()
            arr.setflags(write=False)
            yield Word._trusted(arr, q)


def _forbidden_periods(family: Family, p: int) -> tuple[int, ...]:
    """Periods no window of a family member may have."""
    return (p,) if family is Family.PA else tuple(range(1, p))


def _enumerate(family: Family, q: int, n: int, l: int, p: int) -> int:
    """Size of a window family by testing every word, one lexicographic
    chunk at a time."""
    periods = _forbidden_periods(family, p)
    return sum(
        int(np.count_nonzero(_first_windows(rows, l, periods)[0] < 0))
        for rows in _lex_chunks(q, n)
    )


def _count_zero_runs(q: int, n: int, k: int) -> int:
    """Words with no k-run of zeros, by the length of their trailing zero run."""
    ends = [1] + [0] * (k - 1)  # ends[j]: words whose trailing zero run is j
    for _ in range(n):
        ends = [(q - 1) * sum(ends)] + ends[:-1]
    return sum(ends)


def _window_automaton(
    q: int, l: int, periods: tuple[int, ...], max_states: int | None
) -> tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray] | None]:
    """The automaton that reads words left to right and rejects any
    length-l window of a period in ``periods``, built breadth first from the
    empty word: (states built, edges), with edges None once the build
    passes, or is projected to pass, ``max_states`` states (None: no limit).

    A state is the last max(periods) symbols, relabelled in order of first
    occurrence, plus for each period d the run of consecutive positions i
    with w[i] == w[i - d]; a run of l - d such matches is a window of
    period d.  Both families depend only on which symbols are equal, so a
    state stands for all its relabellings: appending one of the m symbols
    in its tail leads to one state each, appending any of the q - m others
    leads to the same state, q - m times over.  A state depends only on the
    last l - 1 symbols, so every state is met by level l - 1, whatever the
    word length.

    After each level the build projects its final size: the newest level
    keeps growing by its last ratio until the tail is full (level
    max(periods)) and keeps its size from there to level l - 1.  The build
    gives up rather than add a state past the first ``max_states``.

    State 0 is the empty word and every other state is entered by some
    edge.  The edges come as arrays sorted by target: source, multiplicity,
    and where the edges into each of the states 1, 2, .. begin.
    """
    cap = math.inf if max_states is None else max_states
    depth = max(periods)
    limits = [l - d for d in periods]
    zeros = [0] * len(periods)
    tail_moves: dict = {}  # tail -> [(multiplicity, next tail, periods matched)]
    states = [((), tuple(zeros))]
    ids = {states[0]: 0}
    src, dst, mult = [], [], []
    level, begin = 0, 0  # the newest level, and the first state met at it
    while begin < len(states):
        end = len(states)
        for i in range(begin, end):
            tail, runs = states[i]
            moves = tail_moves.get(tail)
            if moves is None:
                moves = tail_moves[tail] = []
                m = max(tail) + 1 if tail else 0
                for s in range(min(m + 1, q)):
                    nxt = (tail + (s,))[-depth:]
                    if len(tail) == depth:
                        seen: dict = {}
                        nxt = tuple([seen.setdefault(x, len(seen)) for x in nxt])
                    hits = [j for j, d in enumerate(periods) if len(tail) >= d and tail[-d] == s]
                    moves.append((1 if s < m else q - m, nxt, hits))
            for times, nxt, hits in moves:
                new_runs = zeros[:]
                for j in hits:
                    new_runs[j] = runs[j] + 1
                    if new_runs[j] == limits[j]:
                        break
                else:
                    target = (nxt, tuple(new_runs))
                    to = ids.setdefault(target, len(states))
                    if to == len(states):
                        if to >= cap:
                            return to, None
                        states.append(target)
                    src.append(i)
                    dst.append(to)
                    mult.append(times)
        level += 1
        size, projected = len(states) - end, len(states)
        ratio = size / (end - begin)
        for later in range(level + 1, l):
            if later <= depth:
                size *= ratio
            projected += size
        if projected > cap:
            return len(states), None
        begin = end
    dst = np.asarray(dst, dtype=np.int64)
    order = np.argsort(dst, kind="stable")
    entering = np.bincount(dst, minlength=len(states))[1:]
    heads = np.concatenate(([0], np.cumsum(entering)[:-1]))
    return len(states), (np.asarray(src)[order], np.asarray(mult)[order], heads)


def _count_by_levels(
    states: int, edges: tuple[np.ndarray, np.ndarray, np.ndarray], n: int, dtype
) -> int:
    """Words of length n the automaton accepts: n levels of gathering each
    edge's source count, times its multiplicity, summed per target."""
    src, mult, heads = edges
    mult = mult.astype(dtype)
    counts = np.zeros(states, dtype=dtype)
    counts[0] = 1
    for _ in range(n):
        nxt = np.zeros_like(counts)
        nxt[1:] = np.add.reduceat(counts[src] * mult, heads)
        counts = nxt
    return int(counts.sum())


def _count_exact(
    family: Family,
    q: int,
    n: int,
    l: int | None,
    p: int | None,
    k: int | None,
    max_states: int | None,
) -> tuple[int, str]:
    """(family size, engine that counted it).  A window family is counted
    on its automaton unless the build passes, or is projected to pass,
    ``max_states`` states (None: no limit); enumeration counts it then.
    Counts are int64 while q**n fits, Python ints past that."""
    if family is Family.RLL:
        return _count_zero_runs(q, n, k), "zero-run recurrence"
    if l > n:
        return _power(q, n), "every word: no window fits"
    states, edges = _window_automaton(q, l, _forbidden_periods(family, p), max_states)
    if edges is None:
        return _enumerate(family, q, n, l, p), "chunked lexicographic enumeration"
    dtype = np.int64 if _within_budget(q, n, 2**63 - 1) else object
    return _count_by_levels(states, edges, n, dtype), "window-state DP"


@lru_cache(maxsize=None)
def _count_cached(family: Family, q: int, n: int, l: int | None, p: int | None, k: int | None) -> tuple[int, str]:
    return _count_exact(family, q, n, l, p, k, min(q**n // _WORDS_PER_STATE, _MAX_STATES))


def _power(q: int, e: int) -> int:
    """q**e with q's factor 2**a shifted out and back: (q >> a)**e << a*e,
    so q = 2 or 4 costs one shift and q = 6 only 3**e."""
    a = (q & -q).bit_length() - 1
    return (q >> a) ** e << (a * e)


def _within_budget(q: int, n: int, budget: int) -> bool:
    """Whether q**n <= budget, building q**n only while n is below the bit
    length of budget: from there on q**n > budget, since q >= 2."""
    return n < budget.bit_length() and q**n <= budget


def _check_budget(q: int, n: int, budget: int) -> None:
    """Refuse to enumerate all q**n words past ``budget`` of them, raising
    BudgetExceededError; its text writes the cost as ``{q}**{n}``, never in
    decimal, so a refusal costs the same at any n."""
    if not _within_budget(q, n, budget):
        raise BudgetExceededError(
            f"enumerating {q}**{n} words exceeds the budget of {budget}", q, n, budget
        )


def count_brute(query: CountQuery, budget: int = DEFAULT_BUDGET) -> int:
    """Exact family size; refuses past ``budget`` words (q**n), whichever
    engine would count them."""
    _check_budget(query.q, query.n, budget)
    return _count_cached(query.family, query.q, query.n, query.l, query.p, query.k)[0]


def mobius(d: int) -> int:
    """Moebius function by trial division."""
    if d < 1:
        raise ValueError(f"argument must be positive, got {d}")
    result = 1
    m = d
    f = 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            result = -result
        f += 1
    if m > 1:
        result = -result
    return result


def pa_count_whole(q: int, n: int, p: int) -> int:
    """Words of length n that do not have period p: q**n - q**p."""
    _check_alphabet(q)
    if not 1 <= p <= n - 1:
        raise ValueError(f"period must lie in [1, {n - 1}], got {p}")
    return _power(q, n) - q**p


def lpa_count_whole(q: int, n: int, p: int) -> int:
    """Words of length n with no period below p (whole word as the window).

    Moebius inclusion-exclusion over the lattice of short periods; valid
    for n >= 2p - 4.
    """
    _check_alphabet(q)
    if p < 2:
        raise ValueError(f"period target must be at least 2, got {p}")
    if n < 2 * p - 4:
        raise ValueError(
            f"closed form needs n >= 2p - 4 = {2 * p - 4}, got {n}"
        )
    if n < 1:
        raise ValueError(f"word length must be positive, got {n}")
    acc = 0
    for d in range(1, p):
        acc += mobius(d) * (q ** ((p - 1) // d) - 1)
    scaled = q * acc
    if scaled % (q - 1):
        raise AssertionError("short-period count is not divisible as expected")
    return _power(q, n) - scaled // (q - 1)


def lpa_count_near_whole(q: int, n: int, l: int, p: int) -> int:
    """LPA count for words slightly longer than one window.

    Exact for l <= n <= 2l - 2p + 4 with n < 2l (and l >= 2p - 4): every
    invalid word then contains one dominating short-period stretch, which
    scales the single-window complement by q**(n-l) * (1 + (n-l)(1 - 1/q)).
    The extra n < 2l clause only bites for p = 2, where the nominal range
    would otherwise admit two disjoint offending windows (e.g. 0000 1111
    at n = 8, l = 4) that the single-stretch argument counts twice.
    """
    _check_alphabet(q)
    top = min(2 * l - 2 * p + 4, 2 * l - 1)
    if not l <= n <= top:
        raise ValueError(
            f"extension applies only for {l} <= n <= {top}, got {n}"
        )
    complement = _power(q, l) - lpa_count_whole(q, l, p)
    extra = n - l
    scaled = complement * _power(q, extra) * (q + extra * (q - 1))
    if scaled % q:
        raise AssertionError("scaled complement is not divisible as expected")
    return _power(q, n) - scaled // q


def lpa_count_lower(q: int, n: int, l: int, p: int) -> int:
    """Existence lower bound: floor of q**n * (1 - n / D) with
    D = (q-1) q**(l-p), as one integer floor division, or 0 where D <= n
    (a family size is never below 0)."""
    _check_alphabet(q)
    if l <= p:
        raise ValueError("window length must exceed the period target")
    d = (q - 1) * q ** (l - p)
    return _power(q, n) * (d - n) // d if d > n else 0


def rll_count_upper(q: int, n: int, k: int) -> int:
    """Analytic ceiling on the number of words with no k-run of zeros.

    q**(n - c (n - 2k) / q**k) with c = (q-1)^2 / (2 q^2 ln q), rounded
    up (with a hair of extra slack so float error can only loosen it).
    The exponent's integer part t_int is split off so the fractional power
    never underflows; that power, a float num/den, and the slack
    (2**40 + 1) / 2**40 then make one integer ceiling division.
    Requires n >= 2k.
    """
    _check_alphabet(q)
    _check_run_length(k)
    if n < 2 * k:
        raise ValueError(f"analytic bound needs n >= 2k = {2 * k}, got {n}")
    try:
        c = (q - 1) ** 2 / (2 * q * q * math.log(q))
    except OverflowError:
        # 2q^2 passes the float range past q ~ 2**511; (1 - 1/q)^2 rounds to
        # 1 long before that, and q**-k < 2**-511 rounds the power to 1.0.
        c = 0.5 / math.log(q)
    t = c * (n - 2 * k) * math.exp(-k * math.log(q))
    t_int = math.floor(t)
    num, den = math.exp(-(t - t_int) * math.log(q)).as_integer_ratio()
    return -(-_power(q, n - t_int) * num * ((1 << 40) + 1) // (den << 40))


def lpa_count_upper(
    q: int, n: int, l: int, p: int, budget: int = DEFAULT_BUDGET
) -> int | None:
    """Tightest available upper bound on the LPA count.

    Every LPA word embeds a zero-run-limited word once periods are divided
    out, so q**(p-1) times the matching RLL count dominates.  Uses the
    exact RLL count when its q**(n-p+1) words fit the budget, the analytic
    ceiling when it applies, and returns None otherwise.
    """
    if p < 2 or l < p:
        raise ValueError("bound needs p >= 2 and l >= p")
    m = n - p + 1
    k = l - p + 1
    if m < k:
        raise ValueError("bound needs n >= l")
    branch = _upper_branch(q, m, k, budget)
    if branch == _UPPER_EXACT:
        return q ** (p - 1) * count_brute(CountQuery(Family.RLL, q, m, k=k), budget)
    if branch == _UPPER_ANALYTIC:
        return q ** (p - 1) * rll_count_upper(q, m, k)
    return None


_UPPER_EXACT = "exact zero-run relaxation"
_UPPER_ANALYTIC = "analytic zero-run relaxation, ceiled"


def _upper_branch(q: int, m: int, k: int, budget: int) -> str | None:
    """The bound ``lpa_count_upper`` takes for zero-run words of length m
    and run limit k, named as ``build_report`` labels it; None for none."""
    if _within_budget(q, m, budget):
        return _UPPER_EXACT
    if m >= 2 * k:
        return _UPPER_ANALYTIC
    return None


def pa_count_via_rll(q: int, n: int, l: int, p: int, budget: int = DEFAULT_BUDGET) -> int:
    """PA count through the zero-run identity: q**p * |RLL(n-p, l-p)|.

    Dividing out the period-p structure maps PA words bijectively onto
    zero-run-limited difference words, so this is exact, not a bound.
    """
    if not 1 <= p < l or l > n:
        raise ValueError("identity needs 1 <= p < l <= n")
    rll = count_brute(CountQuery(Family.RLL, q, n - p, k=l - p), budget)
    return q**p * rll


def min_window_feasible(q: int, n: int, p: int) -> int:
    """Smallest window length not excluded by the counting lower bound.

    Solves l >= log_q(n - 2l + p) + p - 3.5 by integer search, comparing
    q**(2(l-p)+7) against (n - 2l + p)^2 so no floating logs are needed.
    A window below this cannot support a single-redundancy code; the gap
    to the constructive window from ``derive_params`` stays small.
    """
    _check_alphabet(q)
    if p < 1 or n < 1:
        raise ValueError("n and p must be positive")
    l = 2
    while True:
        m = n - 2 * l + p
        if m < 1:
            return l
        e = 2 * (l - p) + 7
        if e >= 0:
            if q**e >= m * m:
                return l
        l += 1


@dataclass(frozen=True)
class CountReport:
    """Everything known about one count: oracle value, closed form, bounds."""

    query: CountQuery
    exact: int | None = None
    formula: int | None = None
    lower_bound: int | None = None
    upper_bound: int | None = None
    provenance: dict[str, str] = field(default_factory=dict)

    def violations(self) -> list[str]:
        """Internal inconsistencies; non-empty means the numbers contradict."""
        exact, problems = self.exact, []
        if exact is None:
            return problems
        formula, lower, upper = self.formula, self.lower_bound, self.upper_bound
        if formula is not None and formula != exact:
            problems.append(f"formula value {formula} != exact value {exact}")
        if lower is not None and lower > exact:
            problems.append(f"lower bound {lower} exceeds exact value {exact}")
        if upper is not None and exact > upper:
            problems.append(f"exact value {exact} exceeds upper bound {upper}")
        return problems


def _formula_for(query: CountQuery, budget: int) -> tuple[int | None, str]:
    q, n, l, p = query.q, query.n, query.l, query.p
    if query.family is Family.PA:
        if n == l:
            return pa_count_whole(q, n, p), "whole-word power difference"
        if l < n:
            try:
                return pa_count_via_rll(q, n, l, p, budget), "zero-run identity"
            except BudgetExceededError as exc:
                return None, f"zero-run identity skipped: {exc}"
        return None, "no closed form for windows longer than the word"
    if query.family is Family.LPA:
        if n == l and n >= 2 * p - 4:
            return lpa_count_whole(q, n, p), "Moebius inclusion-exclusion"
        if l <= n <= min(2 * l - 2 * p + 4, 2 * l - 1) and l >= 2 * p - 4:
            return lpa_count_near_whole(q, n, l, p), "near-whole-word extension"
        return None, "length outside every closed-form regime"
    return None, "zero-run counts have no closed form here"


def build_report(
    query: CountQuery,
    *,
    include_exact: bool = True,
    include_formula: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> CountReport:
    """Assemble a CountReport; the exact count may raise BudgetExceededError."""
    provenance: dict[str, str] = {}
    exact = None
    if include_exact:
        exact = count_brute(query, budget)
        # count_brute has just cached the count and the engine that made it
        provenance["exact"] = _count_cached(
            query.family, query.q, query.n, query.l, query.p, query.k
        )[1]
    formula = None
    if include_formula:
        formula, label = _formula_for(query, budget)
        provenance["formula"] = label
    lower = upper = None
    if query.family is Family.LPA and query.l > query.p:
        lower = lpa_count_lower(query.q, query.n, query.l, query.p)
        provenance["lower_bound"] = "existence bound, floored"
        if query.n >= query.l:
            upper = lpa_count_upper(query.q, query.n, query.l, query.p, budget)
            if upper is not None:
                m, k = query.n - query.p + 1, query.l - query.p + 1
                provenance["upper_bound"] = _upper_branch(query.q, m, k, budget)
    return CountReport(
        query=query,
        exact=exact,
        formula=formula,
        lower_bound=lower,
        upper_bound=upper,
        provenance=provenance,
    )
