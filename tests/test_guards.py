"""Input guards and short-cut branches of the public API that no other test
reaches, each pinned to its exception type (and its text, where the text
is part of the contract) or to its return value."""

import re

import numpy as np
import pytest

from lpacodes import cardinality as card
from lpacodes.cardinality import CountQuery, Family
from lpacodes.cli import main
from lpacodes.codec import EncodeTrace, LpaParams, RepairStep, replay_trace
from lpacodes.periodicity import (
    Word,
    difference,
    extension_symbol,
    is_pa,
    is_rll,
    least_period_below,
)


class Raises:
    def __init__(self, error, text=None):
        self.error, self.text = error, text


def _replay_bad_period():
    params = LpaParams(q=2, n=14, p=4, l=8)
    step = RepairStep(index=0, least_period=4, kernel=Word("0000", 2))
    return replay_trace(Word("0" * 14, 2), params, EncodeTrace(steps=(step,)))


W = Word("0110", 2)
Q1 = "alphabet size must be at least 2, got 1"

CASES = [
    # cardinality
    ("CountQuery n < 1", lambda: CountQuery(Family.LPA, 2, 0, l=4, p=2),
     Raises(ValueError, "word length must be positive, got 0")),
    ("CountQuery without p", lambda: CountQuery(Family.LPA, 2, 5, l=4),
     Raises(ValueError, "window counts need a period p")),
    ("all_words n = 0", lambda: list(card.all_words(3, 0)), [Word([], 3)]),
    ("all_words q < 2, n = 0", lambda: list(card.all_words(1, 0)), Raises(ValueError, Q1)),
    ("all_words q < 2, n = 3", lambda: list(card.all_words(1, 3)), Raises(ValueError, Q1)),
    ("pa_count_whole q < 2", lambda: card.pa_count_whole(1, 5, 2), Raises(ValueError, Q1)),
    ("lpa_count_whole q < 2", lambda: card.lpa_count_whole(1, 6, 3), Raises(ValueError, Q1)),
    ("lpa_count_near_whole q < 2", lambda: card.lpa_count_near_whole(1, 7, 6, 3),
     Raises(ValueError, Q1)),
    ("lpa_count_lower q < 2", lambda: card.lpa_count_lower(1, 10, 6, 3),
     Raises(ValueError, Q1)),
    ("rll_count_upper q < 2", lambda: card.rll_count_upper(1, 10, 2), Raises(ValueError, Q1)),
    ("mobius(0)", lambda: card.mobius(0),
     Raises(ValueError, "argument must be positive, got 0")),
    ("pa_count_whole p out of range", lambda: card.pa_count_whole(2, 5, 5),
     Raises(ValueError, "period must lie in [1, 4], got 5")),
    ("lpa_count_whole p < 2", lambda: card.lpa_count_whole(2, 5, 1),
     Raises(ValueError, "period target must be at least 2, got 1")),
    ("lpa_count_whole n < 1", lambda: card.lpa_count_whole(2, 0, 2),
     Raises(ValueError, "word length must be positive, got 0")),
    ("lpa_count_lower l <= p", lambda: card.lpa_count_lower(2, 10, 4, 4),
     Raises(ValueError, "window length must exceed the period target")),
    ("rll_count_upper k < 1", lambda: card.rll_count_upper(2, 10, 0),
     Raises(ValueError, "run length must be at least 1, got 0")),
    ("rll_count_upper n < 2k", lambda: card.rll_count_upper(2, 5, 3),
     Raises(ValueError, "analytic bound needs n >= 2k = 6, got 5")),
    ("lpa_count_upper p < 2", lambda: card.lpa_count_upper(2, 10, 6, 1),
     Raises(ValueError, "bound needs p >= 2 and l >= p")),
    ("lpa_count_upper n < l", lambda: card.lpa_count_upper(2, 5, 6, 3),
     Raises(ValueError, "bound needs n >= l")),
    ("pa_count_via_rll out of range", lambda: card.pa_count_via_rll(2, 5, 6, 3),
     Raises(ValueError, "identity needs 1 <= p < l <= n")),
    ("min_window_feasible q < 2", lambda: card.min_window_feasible(1, 10, 4),
     Raises(ValueError, "alphabet size must be at least 2, got 1")),
    ("min_window_feasible p < 1", lambda: card.min_window_feasible(2, 10, 0),
     Raises(ValueError, "n and p must be positive")),
    ("min_window_feasible no room left", lambda: card.min_window_feasible(2, 1, 10), 6),
    # codec
    ("LpaParams q < 2", lambda: LpaParams(q=1, n=14, p=4, l=8),
     Raises(ValueError, "alphabet size must be at least 2, got 1")),
    ("LpaParams p < 2", lambda: LpaParams(q=2, n=14, p=1, l=8),
     Raises(ValueError, "least-period target must be at least 2, got 1")),
    ("replay_trace period out of range", _replay_bad_period,
     Raises(ValueError, "trace step 0: the encoder repairs window 0 with period 1")),
    # periodicity
    ("Word from a generator", lambda: Word((s for s in (0, 1, 1, 0)), 2), W),
    ("Word from a 2-D array", lambda: Word(np.zeros((2, 2), dtype=np.int64), 2),
     Raises(ValueError, "symbols must form a one-dimensional sequence")),
    ("iter(Word)", lambda: list(W), [0, 1, 1, 0]),
    ("Word + list", lambda: W + [1], Raises(TypeError)),
    ("Word == str", lambda: W == "0110", False),
    ("repr(Word)", lambda: repr(W), "Word('0110', q=2)"),
    ("least_period_below p < 2", lambda: least_period_below(W, 1),
     Raises(ValueError, "period threshold must be at least 2, got 1")),
    ("least_period_below one symbol", lambda: least_period_below(Word("1", 2), 3),
     Raises(ValueError)),
    ("is_pa l < 2", lambda: is_pa(W, 1, 1),
     Raises(ValueError, "window length must be at least 2, got 1")),
    ("is_pa p out of range", lambda: is_pa(W, 3, 3),
     Raises(ValueError, "period must lie in [1, 2], got 3")),
    ("is_pa word shorter than l", lambda: is_pa(Word("000", 2), 4, 1), True),
    ("is_rll k < 1", lambda: is_rll(W, 0),
     Raises(ValueError, "run length must be at least 1, got 0")),
    # q = 2**63 does not fit an int64, and past it a difference mod q can
    # pass the symbols a Word holds
    ("difference at q = 2**63",
     lambda: difference(Word([0, 2**62, 0, 2**62 + 1], 2**63), 1),
     Word([2**62, 2**62, 2**62 - 1], 2**63)),
    ("difference at q = 2**64", lambda: difference(Word([1, 0], 2**64), 1), Word([1], 2**64)),
    ("difference past the symbols of q = 2**64",
     lambda: difference(Word([0, 1], 2**64), 1),
     Raises(ValueError, f"symbols must lie in [0, {2**63 - 1}]")),
    ("extension_symbol of nothing", lambda: extension_symbol(Word([], 2)),
     Raises(ValueError, "cannot extend an empty word")),
    # cli: usage errors exit 2
    ("cli check --rll 0",
     lambda: main(["check", "--q", "2", "--rll", "0", "--in", "-"]), 2),
    ("cli stats without samples",
     lambda: main(["stats", "--q", "2", "--n", "14", "--p", "4"]), 2),
]


@pytest.mark.parametrize("call,want", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_rarely_taken_branches(call, want):
    if isinstance(want, Raises):
        match = None if want.text is None else f"^{re.escape(want.text)}$"
        with pytest.raises(want.error, match=match):
            call()
    else:
        assert call() == want
