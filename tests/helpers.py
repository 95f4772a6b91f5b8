"""Slow reference implementations used to cross-check the library.

Everything here works on plain Python lists and is written as directly
from the definitions as possible, so the real implementations are tested
against independent logic rather than themselves.
"""

from itertools import product


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


def all_tuples(q, n):
    return product(range(q), repeat=n)
