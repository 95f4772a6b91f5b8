"""Single-redundancy codec for least-period-avoiding words.

Encoding appends a marker symbol and then repeatedly excises the first
window whose least period falls below the target, appending in its place
a fixed-size record: the window's period kernel, a separator ``1``,
zero padding, the window index in base-q digits (place values from
``LpaParams._place_values``), and a trailing ``0``.  The record is
exactly one window long, so every repair keeps the word at n + 1
symbols.  Decoding walks those records backwards until the original
marker ``1`` reappears at the end.

(q, n, p) fix the code: the window l is the least whose l - p - 1 index
digits can address every window start, n <= q**(l - p - 1) + l - 2.

``encode``, ``decode``, ``repair`` and ``inverse_repair`` each change
one ``_State`` in place: the word under repair, in raw symbol bytes,
with its scan, excise and restore steps.  No other code knows the byte
layout.  ``_read_record`` is the one record reader.  Its
writer has two forms, each measured faster on its side: ``_record`` packs
one with struct, ``_excise_rows`` writes every row's with a few array
operations, and ``test_record_writers_agree`` pins them together.  The
record's separator blocks and struct formats are immutable tables built
at the first repair under a parameter set, so a clean message pays for
none of them.  ``replay_trace`` runs ``encode`` and compares its steps
with a recorded trace, so the repair loop and its resumed scan are
written once.

The first scan reads the whole word, since most messages need no
repair.  After a repair at window ``i``, the symbols before ``i`` are
unchanged, and every window that starts at ``i - l`` or earlier lies
among them and was clean, or ``i`` would not have been the first
offender.  So the next scan resumes at ``i - l + 1``.  It probes slices
of 2l, 8l, 32l, ... symbols, overlapping by l - 1 so every window lies
whole in one probe, and takes the rest of the word at once when fewer
than 16l symbols would be left: a step scans O(l + distance to the next
offender) symbols, not the whole word.  The first probe of 2l is where
a long periodic stretch shows its next window; later probes grow
4-fold, which reaches a far offender, or the end, in half the probes of
doubling, for up to about 4 times the symbols it needed instead of 2
(a one-repair random message of 10^5 symbols takes about 7 probes,
against 11 by doubling).  The tail memmove is O(n) bytes per step, in C;
it is free for an excision at the front but costs most for a restore
there.  The inverse walk, ``_State.unwind``, is written once, for
``decode`` and ``_decode_rows`` alike; its cycle guard (Brent's) compares
the state with a saved copy on every step, a memcmp that stops at the
first difference, and copies the state only when the saved copy moves,
after 1, 2, 4, ... steps.

``_encode_rows`` runs the repair loop over a matrix of short words at
once, one word per row (the segments of a segmented layout), so a pass
costs a few array operations instead of a call per row; each pass
rescans every live row whole, since a row is shorter than one probe.
``_decode_rows`` stacks the rows that do not end in their marker in one
``_State`` and walks them one at a time: the inverse reads only each
row's own records, so it needs no batched form.
"""

from __future__ import annotations

import struct
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CorruptCodewordError
from .periodicity import (
    Word,
    WindowViolation,
    _check_alphabet,
    _dtype_for,
    _first_windows,
    first_violation,
)

__all__ = [
    "LpaParams",
    "RepairStep",
    "EncodeTrace",
    "StepStats",
    "derive_params",
    "repair",
    "inverse_repair",
    "encode",
    "decode",
    "replay_trace",
    "step_statistics",
]


@dataclass(frozen=True)
class LpaParams:
    """Parameters of one single-redundancy code instance.

    q -- alphabet size
    n -- message length (codewords have n + 1 symbols)
    p -- least-period target: no codeword window has a period < p
    l -- window length
    """

    q: int
    n: int
    p: int
    l: int

    def __post_init__(self):
        _check_alphabet_and_target(self.q, self.p)
        if self.l < self.p + 2:
            raise ValueError(
                f"window length {self.l} is too small for period target {self.p}"
            )
        if self.l > self.n:
            raise ValueError(
                f"message length {self.n} is too short for one repair record "
                f"of {self.l} symbols"
            )
        if self.n > _capacity(self.q, self.l, self.p):
            raise ValueError(
                f"index field of {self.index_width} base-{self.q} digits cannot "
                f"address {self.n - self.l + 2} window positions"
            )

    @property
    def index_width(self) -> int:
        """Digits of a window index inside one record: what is left of the
        window after the p-symbol kernel block and the trailing 0."""
        return self.l - self.p - 1

    @cached_property
    def _place_values(self) -> tuple[int, ...]:
        """Place value of each index digit, most significant first, capped
        at the codeword length n + 1: every window index lies below it, so a
        capped place gives the digit 0, as its power would, in an int64."""
        values, value = [], 1
        for _ in range(self.index_width):
            values.append(value)
            value = min(value * self.q, self.n + 1)
        return tuple(values[::-1])

    @cached_property
    def _dtype(self) -> np.dtype:
        """dtype of every Word over q: the symbol width of a state's bytes."""
        return np.dtype(_dtype_for(self.q))

    @cached_property
    def _record_format(self) -> tuple[tuple[bytes, ...], str, str]:
        """The record in raw symbol bytes: the separator block after a
        kernel of each period d < p (a 1, then p - d - 1 zeros; entry 0 is
        unused), the struct format of the index digits and the trailing 0,
        and the struct format of a whole record."""
        char = self._dtype.char
        separators = tuple(
            struct.pack(f"@{self.p - d}{char}", 1, *[0] * (self.p - d - 1))
            for d in range(self.p)
        )
        return separators, f"@{self.index_width + 1}{char}", f"@{self.l}{char}"


def _check_alphabet_and_target(q: int, p: int) -> None:
    """The q >= 2, p >= 2 check of LpaParams, derive_params and plan."""
    _check_alphabet(q)
    if p < 2:
        raise ValueError(f"least-period target must be at least 2, got {p}")


def _capacity(q: int, l: int, p: int) -> int:
    """Longest message a window of l symbols can serve: a codeword of n + 1
    symbols has n - l + 2 window starts, and the l - p - 1 index digits of
    a record address q**(l - p - 1) of them."""
    return q ** (l - p - 1) + l - 2


def derive_params(q: int, n: int, p: int) -> LpaParams:
    """Least window length whose record can index every window start.

    The least l with n <= q**(l - p - 1) + l - 2 is at most n once n >= p + 2;
    ``LpaParams`` refuses a shorter n.  q and p are checked first: at q < 2
    the search would run to n.
    """
    _check_alphabet_and_target(q, p)
    l = next((l for l in range(p + 2, n + 1) if n <= _capacity(q, l, p)), p + 2)
    return LpaParams(q=q, n=n, p=p, l=l)


@dataclass(frozen=True)
class RepairStep:
    """One excision: which window was removed and the kernel that rebuilds it."""

    index: int
    least_period: int
    kernel: Word


@dataclass(frozen=True)
class EncodeTrace:
    """Repair steps taken by one encode call, in order."""

    steps: tuple[RepairStep, ...]


def _record(params: LpaParams, index: int, period: int, kernel: bytes) -> bytes:
    """The repair record, in raw symbol bytes, of the window at ``index``
    whose least period ``period`` has the kernel bytes ``kernel``: the
    kernel, its separator block, the index digits and the trailing 0.  The
    index digit of place value w is index // w % q, w from
    ``params._place_values``.  ``_read_record`` is the one reader."""
    separators, tail, _ = params._record_format
    q = params.q
    digits = [index // w % q for w in params._place_values]
    return kernel + separators[period] + struct.pack(tail, *digits, 0)


def _read_record(
    params: LpaParams, record: Sequence[int], last: int
) -> tuple[int, int]:
    """Window index and period of the repair record ``record``, l symbols
    as Python ints, in a word whose last window starts at ``last``.  The
    index is read by Horner's rule, uncapped, where ``_record`` wrote its
    digits from ``params._place_values``; the period is the place of the
    kernel block's last nonzero symbol, its separator.

    Raises CorruptCodewordError, in this order, for an index past ``last``,
    an all-zero kernel block, a separator other than 1, or period 0.
    """
    p, q = params.p, params.q
    index = 0
    for digit in record[p:-1]:
        index = index * q + digit
    if index > last:
        raise CorruptCodewordError(
            f"window index {index} exceeds the last window start {last}"
        )
    for period in range(p - 1, -1, -1):
        if record[period] != 0:
            break
    else:
        raise CorruptCodewordError("kernel block is all zero")
    if record[period] != 1:
        raise CorruptCodewordError(f"kernel separator must be 1, found {record[period]}")
    if period < 1:
        raise CorruptCodewordError("kernel block encodes an impossible period 0")
    return index, period


class _State:
    """The word under repair, in raw symbol bytes: the one code that knows
    their layout.  Its methods take and give offsets in symbols.

    ``buf`` holds the state's symbols, ``width`` bytes each in the dtype of
    ``params``.  ``excise`` deletes a window's bytes, one memmove of the
    tail, and appends its record from ``_record``; CPython deletes from the
    front of a bytearray by moving its start, so an excision at index 0
    copies nothing.  ``restore`` deletes the last record and inserts the
    rebuilt window at its index, one memmove of the tail the other way, and
    ``unwind`` restores until the marker shows.  Both work on the last
    n + 1 symbols, the word being decoded: ``_decode_rows`` keeps the rows
    still to decode before it, and they do not move.

    A state lives for one call, and so does its memo, from an excision's
    index and kernel bytes to its step and record: a long periodic stretch
    is excised window by window from one index, and its equal steps share
    one step object and one record.

    A bytearray with a view on it cannot resize, so no view of ``buf`` may
    outlive the next edit: each probe of ``scan`` lives only for its call,
    and ``word()`` is taken once the edits are done.
    """

    __slots__ = ("buf", "params", "width", "known")

    def __init__(
        self, symbols: np.ndarray, params: LpaParams, marker: int | None = None
    ):
        """The state of ``symbols``, a word's array in the dtype of
        ``params``, followed by ``marker`` when one is given."""
        self.buf = bytearray(symbols.data)
        self.params = params
        self.width = params._dtype.itemsize
        self.known: dict[tuple[int, bytes], tuple[RepairStep, bytes]] = {}
        if marker is not None:
            self.buf += marker.to_bytes(self.width, sys.byteorder)

    def scan(self, start: int, size: int) -> WindowViolation | None:
        """First offending window that starts at ``start`` or later, or None.

        Probes slices of ``size``, 4 * size, 16 * size, ... symbols, each
        overlapping the one before by l - 1, so every window lies whole in
        some probe and the leftmost offender of the first probe that finds
        one is the leftmost overall.  A probe that would leave fewer than 16l
        symbols takes them too: one call costs about as much as scanning
        thousands of symbols, so a few more symbols in the last probe are
        cheaper than another call.  Each probe goes through the name
        ``first_violation``, so a wrapper bound to it sees every symbol
        scanned.
        """
        buf, width, params = self.buf, self.width, self.params
        l, q, dtype = params.l, params.q, params._dtype
        total = len(buf) // width
        while True:
            stop = start + size
            if stop > total - 16 * l:
                stop = total
            found = first_violation(
                Word._trusted(np.frombuffer(buf, dtype, stop - start, start * width), q),
                l,
                params.p,
            )
            if found is not None:
                if start == 0:  # the probe's offsets are the word's
                    return found
                return WindowViolation(start + found.index, found.least_period)
            if stop == total:
                return None
            start, size = stop - l + 1, 4 * size

    def excise(self, index: int, period: int) -> RepairStep:
        """Delete the window at ``index``, whose least period is ``period``,
        and append its record, which is one window long; returns the step.
        The kernel word of a new step owns its symbols."""
        buf, width, known = self.buf, self.width, self.known
        at = index * width
        kernel = bytes(buf[at : at + period * width])
        hit = known.get((index, kernel))
        if hit is None:
            params = self.params
            hit = known[index, kernel] = (
                RepairStep(
                    index,
                    period,
                    Word._trusted(np.frombuffer(kernel, params._dtype).copy(), params.q),
                ),
                _record(params, index, period, kernel),
            )
        step, record = hit
        del buf[at : at + len(record)]
        buf += record
        return step

    def restore(self) -> None:
        """Undo the repair record that fills the last l symbols; the caller
        has checked that the state ends in 0.  Its index is a window start
        of the last n + 1 symbols.  A record ``_record`` cannot have written
        raises ``_read_record``'s CorruptCodewordError."""
        buf, width, params = self.buf, self.width, self.params
        l, last = params.l, params.n + 1 - params.l
        end = len(buf) - l * width  # where window ``last`` starts
        record = struct.unpack_from(params._record_format[2], buf, end)
        index, period = _read_record(params, record, last)
        kernel = buf[end : end + period * width]
        del buf[end:]
        at = end - (last - index) * width
        buf[at:at] = (kernel * -(-l // period))[: l * width]

    def unwind(self, saved) -> None:
        """Restore records until the last n + 1 symbols no longer end in 0,
        then check that they end in the marker 1; ``saved`` holds their
        bytes now, in any buffer.  A revisited state means they were never
        produced by the encoder, so the walk raises CorruptCodewordError
        instead of cycling forever.  The guard is Brent's cycle detection:
        it keeps one saved state, replaced after 1, 2, 4, ... steps, instead
        of a copy of every state, and still catches any cycle within a few
        times its length plus its lead-in.  Each step compares the state
        with the saved one in place; the state is copied only when the saved
        one moves and another step follows, so a word one record deep is
        never copied here."""
        buf, width = self.buf, self.width
        size, zero = (self.params.n + 1) * width, bytes(width)
        lap, steps = 1, 0
        while buf[-width:] == zero:
            if steps == lap:
                saved, lap, steps = buf[-size:], 2 * lap, 0
            self.restore()
            if buf.endswith(saved):
                raise CorruptCodewordError("repair records form a cycle")
            steps += 1
        marker = int.from_bytes(buf[-width:], sys.byteorder)
        if marker != 1:
            raise CorruptCodewordError(f"trailing marker must be 1, found {marker}")

    def word(self) -> Word:
        """The state as a word, a read-only view of ``buf``."""
        return Word._trusted(np.frombuffer(self.buf, self.params._dtype), self.params.q)

def _repair_budget(params: LpaParams) -> int:
    """Repairs after which ``encode`` and ``_encode_rows`` give up with
    ``_OVERRUN``; no message needs that many, so only a defect meets it."""
    return params.q**4 * (params.n + 1)


_OVERRUN = (
    "repair loop exceeded its safety budget; the convergence argument has "
    "been violated"
)


def repair(y: Word, params: LpaParams) -> tuple[Word, RepairStep]:
    """Remove the first offending window of ``y`` and log it at the end.

    ``y`` must have n + 1 symbols and at least one window with a period
    below p; the output has the same length and always ends in 0.
    """
    _check_word(y, params.n + 1, params.q, "codeword")
    state = _State(y.symbols, params)
    violation = state.scan(0, params.n + 1)
    if violation is None:
        raise ValueError("word has no offending window; nothing to repair")
    step = state.excise(violation.index, violation.least_period)
    return state.word(), step


def inverse_repair(y: Word, params: LpaParams) -> Word:
    """Undo one repair record; ``y`` must end in the step marker 0.  A
    record ``repair`` cannot have written raises ``_read_record``'s
    CorruptCodewordError."""
    _check_word(y, params.n + 1, params.q, "codeword")
    if y[-1] != 0:
        raise ValueError("inverse repair requires a word ending in 0")
    state = _State(y.symbols, params)
    state.restore()
    return state.word()


def encode(x: Word, params: LpaParams) -> tuple[Word, EncodeTrace]:
    """Append the marker 1 and repair until every window is clean.

    Returns the codeword of n + 1 symbols together with the trace of the
    repairs applied.  The states in between are what ``repair`` returns
    when called in a loop on the marked message; here they live in one
    ``_State``, and each scan resumes l - 1 symbols before the window just
    excised (see the module docstring).  Equal steps of a long periodic
    stretch are one object, from the state's memo.  Termination is
    guaranteed; the repair budget (``_repair_budget``) only trips on an
    implementation defect.
    """
    _check_word(x, params.n, params.q, "message")
    state = _State(x.symbols, params, marker=1)
    steps: list[RepairStep] = []
    budget = _repair_budget(params)
    # Most messages need no repair, so the first probe is the whole word;
    # after a repair the next violation tends to lie close by.
    start, size = 0, params.n + 1
    while (violation := state.scan(start, size)) is not None:
        if len(steps) >= budget:
            raise AssertionError(_OVERRUN)
        steps.append(state.excise(violation.index, violation.least_period))
        start, size = max(0, violation.index - params.l + 1), 2 * params.l
    return state.word(), EncodeTrace(steps=tuple(steps))


def decode(y: Word, params: LpaParams) -> Word:
    """Invert ``encode``: peel repair records until the marker 1 remains.

    A codeword that already ends in its marker is returned as a view of
    its first n symbols, without a copy; any other is copied once into a
    ``_State`` and walked back in place by ``_State.unwind``, whose cycle
    guard raises CorruptCodewordError on a walk that revisits a state.
    """
    _check_word(y, params.n + 1, params.q, "codeword")
    arr = y.symbols
    if arr[-1] != 1:
        state = _State(arr, params)
        # the first saved state is the codeword itself, read-only already
        state.unwind(arr.data)
        arr = state.word().symbols
    return Word._trusted(arr[: params.n], params.q)


def _excise_rows(
    state: np.ndarray, params: LpaParams, index: np.ndarray, period: np.ndarray
) -> np.ndarray:
    """``_State.excise`` on every row of the 2-D ``state`` at once, the
    window of row r at ``index[r]`` with least period ``period[r]``; returns
    the new states as a new array.  The tails move left by one masked
    select, and the record block is ``_record``'s.  A digit index // w lies
    below n + 2, so only q <= n + 1 needs its ``% q``; a wider q may not fit
    an int64."""
    rows, total = state.shape
    l, p, q = params.l, params.p, params.q
    start = total - l
    out = np.empty_like(state)
    before = np.arange(start) < index[:, None]
    out[:, :start] = np.where(before, state[:, :start], state[:, l:])
    slot = np.arange(p)
    kernel = state[np.arange(rows)[:, None], index[:, None] + slot]
    out[:, start : start + p] = np.where(
        slot < period[:, None], kernel, slot == period[:, None]
    )
    digits = index[:, None] // np.array(params._place_values)
    out[:, start + p : -1] = digits % q if q <= params.n + 1 else digits
    out[:, -1] = 0
    return out


def _encode_rows(msgs: np.ndarray, params: LpaParams) -> np.ndarray:
    """Codewords of the messages in the rows of the 2-D ``msgs``, each what
    ``encode`` returns for it.  One repair loop serves every row: each pass
    finds the leftmost offending window and its least period in every row
    still live, excises them all in one ``_excise_rows``, and retires the
    rows that were already clean."""
    rows, n = msgs.shape
    out = np.ones((rows, n + 1), dtype=msgs.dtype)
    out[:, :n] = msgs
    live, state, steps = np.arange(rows), out, 0
    budget = _repair_budget(params)
    while True:
        index, period = _first_windows(state, params.l, range(1, params.p))
        bad = index >= 0
        if steps:
            out[live[~bad]] = state[~bad]
        if not bad.any():
            return out
        if steps >= budget:
            raise AssertionError(_OVERRUN)
        live, steps = live[bad], steps + 1
        state = _excise_rows(state[bad], params, index[bad], period[bad])


def _decode_rows(codewords: np.ndarray, params: LpaParams) -> np.ndarray:
    """Messages of the codewords in the rows of the 2-D ``codewords``, in
    the dtype of ``params``, each what ``decode`` returns for it; the
    lowest row that fails raises its ``decode`` error.  The rows that do
    not end in their marker 1 are stacked in one ``_State``, lowest row
    last.  Lowest first, each is walked by ``_State.unwind`` as the last
    row of the buffer, so its records index only that row, and then its
    message is taken off the end."""
    msgs = codewords[:, :-1].copy()
    live = np.flatnonzero(codewords[:, -1] != 1)
    rows = codewords[live[::-1]]
    state, out = _State(rows, params), bytearray()
    buf, width = state.buf, state.width
    size = params.n * width
    for row in rows[::-1]:
        state.unwind(row.data)
        start = len(buf) - size - width
        out += buf[start : start + size]
        del buf[start:]
    msgs[live] = np.frombuffer(out, msgs.dtype).reshape(-1, params.n)
    return msgs


def replay_trace(x: Word, params: LpaParams, trace: EncodeTrace) -> Word:
    """Check a recorded repair sequence against ``x``; returns the codeword.

    Accepts exactly the trace ``encode`` produces on ``x``: ``encode`` runs
    once, and the trace's steps are compared with its steps in order.  Any
    other trace raises ValueError at the first difference, naming the step
    and what the encoder does there, rather than rebuilding a word
    ``encode`` never returns.
    """
    y, encoded = encode(x, params)
    wanted = encoded.steps + (None,)
    for number, (step, want) in enumerate(zip(trace.steps, wanted)):
        if step == want:
            continue
        if want is not None and step.index == want.index:
            if step.least_period == want.least_period:
                raise ValueError("recorded kernel does not match the state")
        raise ValueError(f"trace step {number}: {_next_repair(want)}")
    if (number := len(trace.steps)) < len(encoded.steps):
        raise ValueError(f"trace has no step {number}: {_next_repair(wanted[number])}")
    return y


def _next_repair(want: RepairStep | None) -> str:
    """What the encoder does at a step: repair ``want``, or stop at None."""
    if want is None:
        return "the encoder stops, as no window offends"
    return f"the encoder repairs window {want.index} with period {want.least_period}"


@dataclass(frozen=True)
class StepStats:
    """Repair-step statistics over a collection of messages."""

    mean_steps: Fraction
    max_steps: int
    histogram: dict[int, int]
    total_words: int


def step_statistics(params: LpaParams, inputs: Iterable[Word]) -> StepStats:
    """Encode every input and tally how many repairs each one needed."""
    hist = Counter(len(encode(x, params)[1].steps) for x in inputs)
    if not hist:
        raise ValueError("statistics need at least one input word")
    count = sum(hist.values())
    return StepStats(
        mean_steps=Fraction(sum(steps * c for steps, c in hist.items()), count),
        max_steps=max(hist),
        histogram=dict(sorted(hist.items())),
        total_words=count,
    )


def _check_word(w: Word, length: int, q: int, noun: str) -> None:
    """The input check of every codec and segmented entry point: ValueError
    unless ``w`` (a "message" or "codeword", as ``noun`` says) has
    ``length`` symbols over q."""
    if len(w) != length:
        raise ValueError(f"{noun} must have {length} symbols, got {len(w)}")
    if w.q != q:
        raise ValueError(f"{noun} alphabet {w.q} does not match q={q}")
