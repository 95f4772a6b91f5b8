"""Single-redundancy codec for least-period-avoiding words.

Encoding appends a marker symbol and then repeatedly excises the first
window whose least period falls below the target, appending in its place
a fixed-size record: the window's period kernel, a separator ``1``,
zero padding, the window index in fixed-width base-q digits, and a
trailing ``0``.  The record is exactly one window long, so every repair
preserves the overall length.  Decoding walks those records backwards
until the original marker ``1`` reappears at the end.

(q, n, p) fix the code: the window l is the least whose l - p - 1 index
digits can address every window start, n <= q**(l - p - 1) + l - 2.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import CorruptCodewordError
from .periodicity import Word, WindowViolation, first_violation

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
        if self.q < 2:
            raise ValueError(f"alphabet size must be at least 2, got {self.q}")
        if self.p < 2:
            raise ValueError(f"least-period target must be at least 2, got {self.p}")
        if self.l < self.p + 2:
            raise ValueError(
                f"window length {self.l} is too small for period target {self.p}"
            )
        if self.l > self.n:
            raise ValueError(
                f"window length {self.l} exceeds message length {self.n}"
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


def _capacity(q: int, l: int, p: int) -> int:
    """Longest message a window of l symbols can serve: a codeword of n + 1
    symbols has n - l + 2 window starts, and the l - p - 1 index digits of
    a record address q**(l - p - 1) of them."""
    return q ** (l - p - 1) + l - 2


def derive_params(q: int, n: int, p: int) -> LpaParams:
    """Least window length whose record can index every window start.

    The capacity grows with l and reaches n by l = n at the latest, so
    the least l with n <= q**(l - p - 1) + l - 2 always exists.
    """
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")
    if p < 2:
        raise ValueError(f"least-period target must be at least 2, got {p}")
    if n <= p + 2:
        raise ValueError(
            f"message length must exceed p + 2 = {p + 2} to fit one repair "
            f"record, got {n}"
        )
    l = next(l for l in range(p + 2, n + 1) if n <= _capacity(q, l, p))
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


def _index_digits(value: int, width: int, q: int) -> list[int]:
    digits = [0] * width
    for pos in range(width - 1, -1, -1):
        value, digits[pos] = divmod(value, q)
    if value:
        raise AssertionError("window index does not fit its digit field")
    return digits


def _digits_value(digits: list[int], q: int) -> int:
    value = 0
    for d in digits:
        value = value * q + d
    return value


def _apply_repair(y: Word, params: LpaParams, index: int, period: int) -> Word:
    """Excise the window at ``index`` and append its repair record."""
    arr = y.symbols
    l, p = params.l, params.p
    kernel = arr[index : index + period].tolist()
    record = np.array(
        kernel
        + [1]
        + [0] * (p - period - 1)
        + _index_digits(index, params.index_width, params.q)
        + [0],
        dtype=arr.dtype,
    )
    out = np.concatenate([arr[:index], arr[index + l :], record])
    return Word._trusted(out, params.q)


def repair(y: Word, params: LpaParams) -> tuple[Word, RepairStep]:
    """Remove the first offending window of ``y`` and log it at the end.

    ``y`` must have n + 1 symbols and at least one window with a period
    below p; the output has the same length and always ends in 0.
    """
    _check_state(y, params)
    violation = first_violation(y, params.l, params.p)
    if violation is None:
        raise ValueError("word has no offending window; nothing to repair")
    return _repair_at(y, params, violation)


def _repair_at(
    y: Word, params: LpaParams, violation: WindowViolation
) -> tuple[Word, RepairStep]:
    start, period = violation.index, violation.least_period
    # A copy, not a view: a view would keep every intermediate state alive
    # until the encode returns.
    kernel = Word._trusted(y.symbols[start : start + period].copy(), params.q)
    step = RepairStep(index=start, least_period=period, kernel=kernel)
    return _apply_repair(y, params, start, period), step


def inverse_repair(y: Word, params: LpaParams) -> Word:
    """Undo one repair record; ``y`` must end in the step marker 0.

    Raises CorruptCodewordError when the record cannot have been produced
    by ``repair``: index out of range, an all-zero kernel block, or a
    kernel separator other than 1.
    """
    _check_state(y, params)
    if y[-1] != 0:
        raise ValueError("inverse repair requires a word ending in 0")
    syms = y.symbols
    total = params.n + 1
    l, p, width, q = params.l, params.p, params.index_width, params.q

    digits = syms[total - 1 - width : total - 1].tolist()
    index = _digits_value(digits, q)
    if index > total - l:
        raise CorruptCodewordError(
            f"window index {index} exceeds the last window start {total - l}"
        )

    block = syms[total - 1 - width - p : total - 1 - width].tolist()
    period = None
    for pos in range(p - 1, -1, -1):
        if block[pos] != 0:
            period = pos
            break
    if period is None:
        raise CorruptCodewordError("kernel block is all zero")
    if block[period] != 1:
        raise CorruptCodewordError(
            f"kernel separator must be 1, found {block[period]}"
        )
    if period < 1:
        raise CorruptCodewordError("kernel block encodes an impossible period 0")

    kernel = np.asarray(block[:period], dtype=syms.dtype)
    reps = -(-l // period)
    window = np.tile(kernel, reps)[:l]
    base = syms[: total - l]
    out = np.concatenate([base[:index], window, base[index:]])
    return Word._trusted(out, q)


def _append_marker(x: Word, params: LpaParams) -> Word:
    arr = x.symbols
    return Word._trusted(
        np.concatenate([arr, np.ones(1, dtype=arr.dtype)]), params.q
    )


def encode(x: Word, params: LpaParams) -> tuple[Word, EncodeTrace]:
    """Append the marker 1 and repair until every window is clean.

    Returns the codeword of n + 1 symbols together with the trace of the
    repairs applied.  The states in between are what ``repair`` returns
    when called in a loop on the marked message.  Termination is
    guaranteed; the iteration budget of q**4 * (n + 1) only trips on an
    implementation defect.
    """
    if len(x) != params.n:
        raise ValueError(f"message must have {params.n} symbols, got {len(x)}")
    if x.q != params.q:
        raise ValueError(f"message alphabet {x.q} does not match q={params.q}")
    y = _append_marker(x, params)
    steps: list[RepairStep] = []
    budget = params.q**4 * (params.n + 1)
    while (violation := first_violation(y, params.l, params.p)) is not None:
        if len(steps) >= budget:
            raise AssertionError(
                "repair loop exceeded its safety budget; the convergence "
                "argument has been violated"
            )
        y, step = _repair_at(y, params, violation)
        steps.append(step)
    return y, EncodeTrace(steps=tuple(steps))


def decode(y: Word, params: LpaParams) -> Word:
    """Invert ``encode``: peel repair records until the marker 1 remains.

    A revisited state means ``y`` was never produced by the encoder, so
    the walk raises CorruptCodewordError instead of cycling forever.  The
    guard is Brent's cycle detection: it keeps one saved state, replaced
    after 1, 2, 4, ... steps, instead of a copy of every state, and still
    catches any cycle within a few times its length plus its lead-in.
    """
    _check_state(y, params)
    saved, lap, steps = y, 1, 0
    cur = y
    while cur[-1] == 0:
        cur = inverse_repair(cur, params)
        if cur == saved:
            raise CorruptCodewordError("repair records form a cycle")
        steps += 1
        if steps == lap:
            saved, lap, steps = cur, 2 * lap, 0
    if cur[-1] != 1:
        raise CorruptCodewordError(
            f"trailing marker must be 1, found {cur[-1]}"
        )
    return cur[: params.n]


def replay_trace(x: Word, params: LpaParams, trace: EncodeTrace) -> Word:
    """Re-apply a recorded repair sequence to ``x``; returns the codeword.

    Each step is validated against the evolving state, so a trace that was
    not produced on ``x`` fails loudly rather than rebuilding nonsense.
    """
    if len(x) != params.n:
        raise ValueError(f"message must have {params.n} symbols, got {len(x)}")
    y = _append_marker(x, params)
    for step in trace.steps:
        if not 0 <= step.index <= params.n + 1 - params.l:
            raise ValueError(f"recorded window index {step.index} is out of range")
        if not 1 <= step.least_period < params.p:
            raise ValueError(
                f"recorded period {step.least_period} is out of range"
            )
        if y[step.index : step.index + step.least_period] != step.kernel:
            raise ValueError("recorded kernel does not match the state")
        y = _apply_repair(y, params, step.index, step.least_period)
    return y


@dataclass(frozen=True)
class StepStats:
    """Repair-step statistics over a collection of messages."""

    mean_steps: Fraction
    max_steps: int
    histogram: dict[int, int]
    total_words: int


def step_statistics(params: LpaParams, inputs: Iterable[Word]) -> StepStats:
    """Encode every input and tally how many repairs each one needed."""
    hist: Counter[int] = Counter()
    total = 0
    count = 0
    max_steps = 0
    for x in inputs:
        _, trace = encode(x, params)
        steps = len(trace.steps)
        hist[steps] += 1
        total += steps
        count += 1
        if steps > max_steps:
            max_steps = steps
    if count == 0:
        raise ValueError("statistics need at least one input word")
    return StepStats(
        mean_steps=Fraction(total, count),
        max_steps=max_steps,
        histogram=dict(sorted(hist.items())),
        total_words=count,
    )


def _check_state(y: Word, params: LpaParams) -> None:
    if len(y) != params.n + 1:
        raise ValueError(
            f"expected a word of {params.n + 1} symbols, got {len(y)}"
        )
    if y.q != params.q:
        raise ValueError(f"word alphabet {y.q} does not match q={params.q}")
