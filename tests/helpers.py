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


def all_tuples(q, n):
    return product(range(q), repeat=n)
