"""Slow reference implementations used to cross-check the library.

Everything here works on plain Python lists and is written as directly
from the definitions as possible, so the real implementations are tested
against independent logic rather than themselves.  The segmented oracles
are the exception: they walk the segments one at a time through the
library's single-segment codec, so they cross-check the layout and its
joints, not the codec.  The codec oracles are the other exception: they
are the plain repair loop, which rescans the whole word with the library's
``first_violation`` and builds a new word at every step, so they
cross-check the in-place engine (its resumed scan and its shifts), not
the scan.  The planner's oracles are closed forms: from (q, l, p) alone
they predict whether a joined layout costs no more than half-window, which
the library decides from exact plans.  The two analytic bounds are the
library's integer forms written in ``Fraction`` arithmetic.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from lpacodes import codec
from lpacodes.errors import CorruptCodewordError
from lpacodes.periodicity import Word, first_violation


def naive_has_period(seq, p):
    if not 1 <= p <= len(seq) - 1:
        raise ValueError(p)
    return all(seq[i] == seq[i + p] for i in range(len(seq) - p))


def naive_least_period(seq):
    for p in range(1, len(seq)):
        if naive_has_period(seq, p):
            return p
    return len(seq)


def naive_window_clean(seq, l, p):
    """True when no l-window of seq has a period strictly below p."""
    if len(seq) < l:
        return True
    for i in range(len(seq) - l + 1):
        window = seq[i : i + l]
        for pp in range(1, p):
            if naive_has_period(window, pp):
                return False
    return True


def naive_first_violation(seq, l, p):
    """(index, least period) of the first offending window, or None."""
    if len(seq) < l:
        return None
    for i in range(len(seq) - l + 1):
        window = seq[i : i + l]
        for pp in range(1, p):
            if naive_has_period(window, pp):
                return (i, pp)
    return None


def naive_no_period_p(seq, l, p):
    # the weaker family: only period exactly p is forbidden per window
    for i in range(len(seq) - l + 1):
        if naive_has_period(seq[i : i + l], p):
            return False
    return True


def naive_zero_run_free(seq, k):
    run = 0
    for s in seq:
        run = run + 1 if s == 0 else 0
        if run >= k:
            return False
    return True


def naive_leftmost_run(flags, need):
    """Smallest j with flags[j : j + need] all true, or -1."""
    for j in range(len(flags) - need + 1):
        if all(flags[j : j + need]):
            return j
    return -1


def naive_plan(q, n, l, p, variant):
    """(k, segment lengths, total redundancy) of the smallest segment count
    k = 1, 2, ... whose segments each hold a window and whose longest
    segment fits the index field, or None when the layout or every k in
    [1, n] is infeasible.

    The variant is a ``Variant`` value: "half", "sep" or "glue".  A window
    that misses part of a joint must still hold one flank of
    max(p - 1, 2p - 4) symbols plus its glue symbol, and a segment's
    window must hold a repair record (at least p + 2 symbols).
    """
    flank = max(p - 1, 2 * p - 4)
    least_l = {"half": 0, "sep": p + flank, "glue": 2 * flank + 1}[variant]
    window = l // 2 if variant == "half" else l
    if l < least_l or window < p + 2:
        return None
    joint = {"half": 0, "sep": p + 2, "glue": 2}[variant]
    width = window - p - 1
    for k in range(1, n + 1):
        head = -(-n // k)
        last = n - (k - 1) * head
        if head >= window and last >= window and q**width >= head - window + 2:
            return k, (head,) * (k - 1) + (last,), k + (k - 1) * joint
    return None


def naive_prefers_separator(q, l, p):
    """Closed-form redundancy comparison: separator beats half-window."""
    return l >= 3 * p - 3 and _naive_beats_half_window(q, l, p, p + 3)


def naive_prefers_glue(q, l, p):
    """Closed-form redundancy comparison: glue-only beats half-window."""
    return l >= 4 * p - 7 and _naive_beats_half_window(q, l, p, 3)


def _naive_beats_half_window(q, l, p, divisor):
    # q^(l/2 - p - 1) + l/2 - 2  <=  (q^(l - p - 1) + l - 2) / divisor,
    # kept exact for odd l by comparing squares of the half-power.
    rhs = (Fraction(q) ** (l - p - 1) + l - 2) / divisor
    rest = rhs - Fraction(l, 2) + 2
    if rest < 0:
        return False
    return Fraction(q) ** (l - 2 * p - 2) <= rest * rest


def all_tuples(q, n):
    return product(range(q), repeat=n)


def naive_count(family, q, n, l=None, p=None, k=None):
    """Size of a family ("A", "B" or "R") by testing words with the naive
    predicates.

    Windows only ask which symbols are equal, so for "A" and "B" one word
    stands for every relabelling of it: the words tested are those whose
    symbols first appear in the order 0, 1, 2, ..., and one with m distinct
    symbols counts q (q - 1) ... (q - m + 1) times.  Zero runs only ask
    which symbols are zero, so for "R" a word over {0, 1} with j ones
    counts (q - 1)**j times, once for each way to make its ones nonzero.
    """
    if family == "R":
        return sum(
            (q - 1) ** sum(w) for w in all_tuples(2, n) if naive_zero_run_free(list(w), k)
        )
    member = {"A": naive_window_clean, "B": naive_no_period_p}[family]
    return sum(weight for w, weight in _first_occurrence_words(q, n) if member(w, l, p))


def naive_lpa_count_lower(q, n, l, p):
    """The existence lower bound in rational arithmetic: the floor of
    q**n * (1 - n / ((q-1) q**(l-p))), or 0 where that is negative."""
    value = Fraction(q**n) * (1 - Fraction(n, (q - 1) * q ** (l - p)))
    return max(0, math.floor(value))


def naive_rll_count_upper(q, n, k):
    """The analytic zero-run ceiling in rational arithmetic: q**(n - t)
    with t = c (n - 2k) / q**k and c = (q-1)^2 / (2 q^2 ln q), its
    fractional power taken as the exact value of the float, times the
    slack 1 + 2**-40, rounded up.  c is the float the library computes
    wherever that does not overflow."""
    c = (q - 1) ** 2 / (2 * q * q * math.log(q))
    t = c * (n - 2 * k) * math.exp(-k * math.log(q))
    t_int = math.floor(t)
    factor = Fraction(math.exp(-(t - t_int) * math.log(q)))
    slack = 1 + Fraction(1, 1 << 40)
    return math.ceil(q ** (n - t_int) * factor * slack)


@lru_cache(maxsize=None)
def _first_occurrence_words(q, n):
    out = []
    for w in all_tuples(q, n):
        m = 0
        for s in w:
            if s > m:
                break
            m += s == m
        else:
            out.append((list(w), math.perm(q, m)))
    return out


def naive_extension_symbol(seq, q):
    """Smallest symbol a such that seq + [a] has no period below
    len(seq) // 2 + 2."""
    bound = len(seq) // 2 + 2
    return next(
        a
        for a in range(q)
        if not any(
            naive_has_period(seq + [a], pp) for pp in range(1, min(bound, len(seq) + 1))
        )
    )


def _naive_joint(sp, left, right):
    """``u block w`` between two neighbouring codewords (lists): u extends
    the left codeword's tail and w the reversed head of the right one, each
    of at most max(p - 1, 2p - 4) symbols."""
    block = {"half": None, "sep": [1] + [0] * (sp.p - 1), "glue": []}[sp.variant.value]
    if block is None:
        return []
    f = min(max(sp.p - 1, 2 * sp.p - 4), len(left), len(right))
    u = naive_extension_symbol(left[len(left) - f :], sp.q)
    w = naive_extension_symbol(right[:f][::-1], sp.q)
    return [u, *block, w]


def naive_segmented_encode(x, sp):
    """Segmented encode one segment at a time: encode, then glue to the
    previous codeword."""
    out = []
    previous = None
    offset = 0
    for length, params in zip(sp.segment_lengths, sp.base):
        piece = codec.encode(x[offset : offset + length], params)[0].to_list()
        if previous is not None:
            out += _naive_joint(sp, previous, piece)
        out += piece
        previous = piece
        offset += length
    return Word(out, sp.q)


def naive_segmented_decode(y, sp):
    """Segmented decode one segment at a time: check joint j against the
    codewords it sits between, then decode segment j."""
    joint_len = (sp.total_redundancy - sp.k) // max(sp.k - 1, 1)
    pieces = []
    previous = None
    offset = 0
    for j, (length, params) in enumerate(zip(sp.segment_lengths, sp.base)):
        start = offset + joint_len if j > 0 else offset
        codeword = y[start : start + length + 1]
        if j > 0:
            found = y[offset:start].to_list()
            expected = _naive_joint(sp, previous, codeword.to_list())
            if found != expected:
                at = next(i for i, (a, b) in enumerate(zip(found, expected)) if a != b)
                raise CorruptCodewordError(
                    f"glue joint before segment {j} is damaged at its symbol {at}"
                )
        pieces.append(codec.decode(codeword, params).symbols)
        previous = codeword.to_list()
        offset = start + length + 1
    return Word(np.concatenate(pieces), sp.q)


def _naive_repair_at(y, params, index, period):
    """The state after excising the window at ``index`` of ``y`` and
    appending its record, and the kernel it logs."""
    arr = y.symbols
    kernel = arr[index : index + period].tolist()
    digits = []
    value = index
    for _ in range(params.index_width):
        value, digit = divmod(value, params.q)
        digits.insert(0, digit)
    record = kernel + [1] + [0] * (params.p - period - 1) + digits + [0]
    out = np.concatenate([arr[:index], arr[index + params.l :], record])
    return Word(out, params.q), Word(kernel, params.q)


def naive_encode(x, params):
    """(codeword, [(index, period, kernel), ...]): append the marker 1, then
    rescan the whole word and repair its first violation until none is left."""
    y = x + Word([1], params.q)
    steps = []
    while (violation := first_violation(y, params.l, params.p)) is not None:
        index, period = violation.index, violation.least_period
        y, kernel = _naive_repair_at(y, params, index, period)
        steps.append((index, period, kernel))
    return y, steps


def naive_inverse_repair(y, params):
    """Undo the repair record that ends ``y``, building a new word."""
    if y[-1] != 0:
        raise ValueError("inverse repair requires a word ending in 0")
    syms = y.to_list()
    total, l, p, q = params.n + 1, params.l, params.p, params.q
    index = 0
    for d in syms[total - 1 - params.index_width : total - 1]:
        index = index * q + d
    if index > total - l:
        raise CorruptCodewordError(
            f"window index {index} exceeds the last window start {total - l}"
        )
    block = syms[total - l : total - l + p]
    nonzero = [pos for pos in range(p) if block[pos] != 0]
    if not nonzero:
        raise CorruptCodewordError("kernel block is all zero")
    period = nonzero[-1]
    if block[period] != 1:
        raise CorruptCodewordError(
            f"kernel separator must be 1, found {block[period]}"
        )
    if period < 1:
        raise CorruptCodewordError("kernel block encodes an impossible period 0")
    window = [block[i % period] for i in range(l)]
    base = syms[: total - l]
    return Word(base[:index] + window + base[index:], q)


def naive_decode(y, params):
    """Undo records until the marker 1 ends the word; a state seen before
    means a cycle.  It keeps every state, not Brent's one saved state."""
    seen = {y}
    while y[-1] == 0:
        y = naive_inverse_repair(y, params)
        if y in seen:
            raise CorruptCodewordError("repair records form a cycle")
        seen.add(y)
    if y[-1] != 1:
        raise CorruptCodewordError(f"trailing marker must be 1, found {y[-1]}")
    return y[: params.n]
