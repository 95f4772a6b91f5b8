"""Segmented layouts that trade extra redundancy for feasible windows.

When one repair record cannot index every window of a long word, the
message is split into k segments that are encoded independently.  Three
layouts are supported:

* HALF_WINDOW  -- each segment is encoded against half the window length,
  so any full-length window overlaps one segment far enough to inherit
  its guarantee; costs one redundancy symbol per segment.
* SEPARATOR    -- segments keep the full window but are joined by
  ``u 1 0...0 w`` blocks whose ends are chosen to kill short periods on
  the adjacent flanks; costs (p + 3)(k - 1) + 1 symbols.
* GLUE_ONLY    -- like SEPARATOR but with just the two glue symbols and
  no zero block, viable once the window comfortably spans both flanks;
  costs 3k - 2 symbols.

Given the layout and (q, n, l, p), the segment count k fixes everything
else: ``SegmentedParams`` derives the segment lengths, each segment's
``LpaParams`` and the redundancy from k.  ``plan`` finds the smallest k
for a layout, and ``select_construction`` picks the layout whose exact
plan costs the fewest symbols.  Closed-form comparisons of the layouts
from (q, l, p) alone are a test oracle for that choice, not library code.

``encode`` and ``decode`` work on the k - 1 equal segments as one matrix,
one segment per row, and on the tail as a one-row matrix.  The codec's
batched repair loop (``codec._encode_rows``) repairs all rows of a matrix
together, one pass per repair, and drops each row once it is clean.
Decoding (``codec._decode_rows``) walks each row that does not end in its
marker 1 back with ``decode``'s own inverse walk, ``codec._State.unwind``,
lowest row first, so a corrupt segment raises ``decode``'s error.  Every
joint comes from the matrices of segment flanks in one pass.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from . import codec
from .codec import LpaParams, _capacity, _check_alphabet_and_target
from .errors import CorruptCodewordError, InfeasibleParametersError
from .periodicity import Word, _extension_symbols
# perfbench/tracer.py wraps extension_symbol under this module's name
from .periodicity import extension_symbol  # noqa: F401

__all__ = [
    "Variant",
    "SegmentedParams",
    "Selection",
    "plan",
    "encode",
    "decode",
    "select_construction",
]


class Variant(str, enum.Enum):
    HALF_WINDOW = "half"
    SEPARATOR = "sep"
    GLUE_ONLY = "glue"


@dataclass(frozen=True)
class SegmentedParams:
    """A segmented layout, fixed by the segment count k: k - 1 segments of
    ceil(n/k) symbols and a tail of what remains, each encoded on its own
    against the layout's per-segment window.

    ``segment_lengths``, ``base`` (each segment's ``LpaParams``),
    ``joint_length`` and ``total_redundancy`` are derived from these
    fields.  Raises InfeasibleParametersError when l is too short for the
    layout, and ValueError when k leaves a segment that cannot hold a
    window or whose windows its index field cannot address.
    """

    variant: Variant
    q: int
    n: int
    l: int
    p: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.k < 1:
            raise ValueError(f"segment count must be at least 1, got {self.k}")
        self._pieces  # building them checks k

    @cached_property
    def _pieces(self) -> tuple[LpaParams, LpaParams]:
        """Parameters of a full segment and of the tail segment."""
        window = _segment_window(self.variant, self.l, self.p)
        head = -(-self.n // self.k)
        return tuple(
            LpaParams(q=self.q, n=m, p=self.p, l=window)
            for m in (head, self.n - (self.k - 1) * head)
        )

    @cached_property
    def base(self) -> tuple[LpaParams, ...]:
        full, tail = self._pieces
        return (full,) * (self.k - 1) + (tail,)

    @cached_property
    def segment_lengths(self) -> tuple[int, ...]:
        return tuple(params.n for params in self.base)

    @cached_property
    def joint_length(self) -> int:
        """Symbols of ``u block w`` between two segments (0: they abut)."""
        block = _layout(self.variant, self.l, self.p)[2]
        return 0 if block is None else len(block) + 2

    @cached_property
    def total_redundancy(self) -> int:
        """One symbol per segment plus one joint between each two."""
        return self.k + (self.k - 1) * self.joint_length


def _flank_length(p: int) -> int:
    # Long enough that (flank + glue symbol) inherits any period below p
    # from a surrounding window, and short enough that one symbol can
    # always be chosen to kill those periods.
    return max(p - 1, 2 * p - 4)


def _layout(
    variant: Variant, l: int, p: int
) -> tuple[int, int, tuple[int, ...] | None]:
    """Everything that differs between the layouts: the per-segment window,
    the least l at which a window that misses part of a joint still holds
    one full flank plus its glue symbol, and the block between the two glue
    symbols of a joint (None: segments abut with no joint at all)."""
    flank = _flank_length(p)
    if variant is Variant.HALF_WINDOW:
        return l // 2, 0, None
    if variant is Variant.SEPARATOR:
        return l, p + flank, (1,) + (0,) * (p - 1)
    return l, 2 * flank + 1, ()


def _segment_window(variant: Variant, l: int, p: int) -> int:
    """The per-segment window, once l meets the layout's preconditions."""
    window, least_l, _ = _layout(variant, l, p)
    if l < least_l:
        name = variant.name.lower().replace("_", "-")
        raise InfeasibleParametersError(
            f"{name} layout needs l >= {least_l} at p = {p}, got {l}"
        )
    if window < p + 2:
        raise InfeasibleParametersError(
            f"per-segment window {window} cannot hold a repair record "
            f"for period target {p}"
        )
    return window


def _joints(sp: SegmentedParams, heads: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """The k - 1 joints ``u block w`` of a layout, one per row, between each
    equal segment's codeword (a row of ``heads``) and the next codeword
    (the next row, or the one-row ``tail`` last).  u extends the left
    codeword's last flank and w guards the right codeword's first flank
    (chosen through the reversal symmetry of periods)."""
    block = _layout(sp.variant, sp.l, sp.p)[2]
    if block is None:
        return np.empty((len(heads), 0), dtype=heads.dtype)
    # every codeword is longer than a flank: it holds one window, and the
    # layout's window holds a flank
    f = _flank_length(sp.p)
    firsts = np.concatenate([heads[:, :f], tail[:, :f]])[1:]
    out = np.empty((len(heads), len(block) + 2), dtype=heads.dtype)
    out[:, 0] = _extension_symbols(heads[:, -f:], sp.q)
    out[:, 1:-1] = block
    out[:, -1] = _extension_symbols(firsts[:, ::-1], sp.q)
    return out


def plan(q: int, n: int, l: int, p: int, variant: Variant) -> SegmentedParams:
    """Smallest segment count k that makes ``variant`` work at (q, n, l, p).

    A segment fits its repair record's index field exactly when it is no
    longer than the capacity of the per-segment window (the rule that
    ``derive_params`` uses), so k starts at the least count whose longest
    segment (length h = ceil(n/k)) fits.  From there k grows until the
    tail segment covers one window too, and gives up once the longest
    segment no longer does.  Every k with the same h leaves a shorter tail
    than the smallest one, so a failing k jumps to ceil(n/(h - 1)), the
    least count with a shorter longest segment: O(sqrt(n)) steps.
    """
    variant = Variant(variant)
    _check_alphabet_and_target(q, p)
    if n < 1:
        raise ValueError(f"message length must be positive, got {n}")
    seg_window = _segment_window(variant, l, p)
    k = -(-n // _capacity(q, seg_window, p))
    while (head := -(-n // k)) >= seg_window:
        if n - (k - 1) * head >= seg_window:
            return SegmentedParams(variant=variant, q=q, n=n, l=l, p=p, k=k)
        k = -(-n // (head - 1))
    raise InfeasibleParametersError(
        f"no segment count in [1, {n}] supports the {variant.name} layout "
        f"for q={q}, n={n}, l={l}, p={p}"
    )


def encode(x: Word, sp: SegmentedParams) -> Word:
    """Encode each segment independently and join per the layout."""
    codec._check_word(x, sp.n, sp.q, "message")
    full, last = sp._pieces
    cut = (sp.k - 1) * full.n
    heads = codec._encode_rows(x.symbols[:cut].reshape(sp.k - 1, full.n), full)
    tail = codec._encode_rows(x.symbols[cut:].reshape(1, last.n), last)
    joined = np.hstack([heads, _joints(sp, heads, tail)])
    out = Word._trusted(np.concatenate([joined.ravel(), tail[0]]), sp.q)
    if len(out) != sp.n + sp.total_redundancy:
        raise AssertionError("layout produced the wrong output length")
    return out


def decode(y: Word, sp: SegmentedParams) -> Word:
    """Split ``y`` at the fixed layout offsets and decode each segment.

    Each joint between segments is rebuilt from the neighbouring codewords;
    any mismatch raises CorruptCodewordError.  Errors come in the order of
    a walk that decodes segment j - 1 before it checks joint j.
    """
    codec._check_word(y, sp.n + sp.total_redundancy, sp.q, "codeword")
    full, last = sp._pieces
    cut = (sp.k - 1) * (full.n + 1 + sp.joint_length)
    rows = y.symbols[:cut].reshape(sp.k - 1, full.n + 1 + sp.joint_length)
    heads, found = rows[:, : full.n + 1], rows[:, full.n + 1 :]
    tail = y.symbols[cut:].reshape(1, last.n + 1)
    damaged = found != _joints(sp, heads, tail)
    bad = np.flatnonzero(damaged.any(axis=1))
    if bad.size:
        j = int(bad[0]) + 1
        codec._decode_rows(heads[:j], full)  # their errors come before joint j's
        raise CorruptCodewordError(
            f"glue joint before segment {j} is damaged at its symbol "
            f"{int(damaged[j - 1].argmax())}"
        )
    msgs = [codec._decode_rows(heads, full).ravel(), codec._decode_rows(tail, last)[0]]
    return Word._trusted(np.concatenate(msgs), sp.q)


@dataclass(frozen=True)
class Selection:
    """Outcome of comparing every feasible layout at one parameter point."""

    variant: Variant
    params: SegmentedParams
    candidates: Mapping[Variant, SegmentedParams]


_TIE_ORDER = {Variant.GLUE_ONLY: 0, Variant.SEPARATOR: 1, Variant.HALF_WINDOW: 2}


def select_construction(q: int, n: int, l: int, p: int) -> Selection:
    """Cheapest feasible layout; ties prefer glue-only, then separator.

    The exact per-layout plans alone decide the winner: the one whose
    ``total_redundancy`` is least.  The closed-form comparisons of each
    layout with half-window, which predict that from (q, l, p), are an
    oracle for this choice in the test suite (``tests/helpers.py``).
    """
    candidates: dict[Variant, SegmentedParams] = {}
    for variant in Variant:
        try:
            candidates[variant] = plan(q, n, l, p, variant)
        except ValueError:
            continue
    if not candidates:
        raise InfeasibleParametersError(
            f"no layout is feasible for q={q}, n={n}, l={l}, p={p}"
        )
    best = min(
        candidates.items(),
        key=lambda item: (item[1].total_redundancy, _TIE_ORDER[item[0]]),
    )
    return Selection(variant=best[0], params=best[1], candidates=candidates)
