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

``plan`` finds the smallest k for a layout, ``select_construction`` picks
the cheapest feasible layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import codec
from .codec import LpaParams
from .errors import CorruptCodewordError, InfeasibleParametersError
from .periodicity import Word, extension_symbol

__all__ = [
    "Variant",
    "SegmentedParams",
    "Selection",
    "plan",
    "encode",
    "decode",
    "select_construction",
    "prefers_separator",
    "prefers_glue",
]


class Variant(str, enum.Enum):
    HALF_WINDOW = "half"
    SEPARATOR = "sep"
    GLUE_ONLY = "glue"


@dataclass(frozen=True)
class SegmentedParams:
    """Resolved layout: how the message splits and what each piece uses."""

    variant: Variant
    q: int
    n: int
    l: int
    p: int
    k: int
    segment_lengths: tuple[int, ...]
    base: tuple[LpaParams, ...]
    total_redundancy: int

    def __post_init__(self):
        if sum(self.segment_lengths) != self.n:
            raise ValueError("segment lengths must sum to the message length")
        if len(self.segment_lengths) != self.k or len(self.base) != self.k:
            raise ValueError("segment count must match k")


def _segment_window(variant: Variant, l: int) -> int:
    return l // 2 if variant is Variant.HALF_WINDOW else l


def _flank_length(p: int) -> int:
    # Long enough that (flank + glue symbol) inherits any period below p
    # from a surrounding window, and short enough that one symbol can
    # always be chosen to kill those periods.
    return max(p - 1, 2 * p - 4)


def plan(q: int, n: int, l: int, p: int, variant: Variant) -> SegmentedParams:
    """Smallest segment count k that makes ``variant`` work at (q, n, l, p).

    The k-search checks the longest segment (length ceil(n/k)) against the
    repair-record inequality and additionally requires the trailing
    remainder segment to still cover one window.
    """
    variant = Variant(variant)
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")
    if p < 2:
        raise ValueError(f"least-period target must be at least 2, got {p}")
    if n < 1:
        raise ValueError(f"message length must be positive, got {n}")
    # Boundary soundness: a window that misses part of a separator block
    # must still contain one full flank plus its glue symbol, so the glue
    # variants need enough room relative to the flank length.
    flank = _flank_length(p)
    if variant is Variant.SEPARATOR and l < p + flank:
        raise InfeasibleParametersError(
            f"separator layout needs l >= {p + flank} at p = {p}, got {l}"
        )
    if variant is Variant.GLUE_ONLY and l < 2 * flank + 1:
        raise InfeasibleParametersError(
            f"glue-only layout needs l >= {2 * flank + 1} at p = {p}, got {l}"
        )
    seg_window = _segment_window(variant, l)
    if seg_window < p + 2:
        raise InfeasibleParametersError(
            f"per-segment window {seg_window} cannot hold a repair record "
            f"for period target {p}"
        )
    width = seg_window - p - 1
    for k in range(1, n + 1):
        head = -(-n // k)
        last = n - (k - 1) * head
        if last < seg_window or head < seg_window:
            continue
        if q**width < head - seg_window + 2:
            continue
        lengths = (head,) * (k - 1) + (last,)
        base = tuple(
            LpaParams(q=q, n=m, p=p, l=seg_window, index_width=width)
            for m in lengths
        )
        return SegmentedParams(
            variant=variant,
            q=q,
            n=n,
            l=l,
            p=p,
            k=k,
            segment_lengths=lengths,
            base=base,
            total_redundancy=_redundancy(variant, k, p),
        )
    raise InfeasibleParametersError(
        f"no segment count in [1, {n}] supports the {variant.name} layout "
        f"for q={q}, n={n}, l={l}, p={p}"
    )


def _redundancy(variant: Variant, k: int, p: int) -> int:
    if variant is Variant.HALF_WINDOW:
        return k
    if variant is Variant.SEPARATOR:
        return (p + 3) * (k - 1) + 1
    return 3 * k - 2


def _glue_symbols(left: Word, right: Word, p: int) -> tuple[int, int]:
    """Symbols flanking a boundary: u extends the left codeword's tail,
    w guards the right codeword's head (chosen through the reversal
    symmetry of periods)."""
    f = min(_flank_length(p), len(left), len(right))
    u = extension_symbol(left[len(left) - f :])
    w = extension_symbol(right[:f].reversed())
    return u, w


def encode(x: Word, sp: SegmentedParams) -> Word:
    """Encode each segment independently and join per the layout."""
    if len(x) != sp.n:
        raise ValueError(f"message must have {sp.n} symbols, got {len(x)}")
    if x.q != sp.q:
        raise ValueError(f"message alphabet {x.q} does not match q={sp.q}")
    segments = []
    offset = 0
    for length, params in zip(sp.segment_lengths, sp.base):
        piece, _ = codec.encode(x[offset : offset + length], params)
        segments.append(piece)
        offset += length

    dtype = segments[0].symbols.dtype
    parts: list[np.ndarray] = []
    for j, piece in enumerate(segments):
        if j > 0:
            u, w = _glue_symbols(segments[j - 1], piece, sp.p)
            if sp.variant is Variant.SEPARATOR:
                joint = [u, 1] + [0] * (sp.p - 1) + [w]
            elif sp.variant is Variant.GLUE_ONLY:
                joint = [u, w]
            else:
                joint = []
            if joint:
                parts.append(np.asarray(joint, dtype=dtype))
        parts.append(piece.symbols)
    out = Word._trusted(np.concatenate(parts), sp.q)
    if len(out) != sp.n + sp.total_redundancy:
        raise AssertionError("layout produced the wrong output length")
    return out


def decode(y: Word, sp: SegmentedParams) -> Word:
    """Split ``y`` at the fixed layout offsets and decode each segment.

    The separator block and the glue symbols between segments are
    recomputed from the neighbouring codewords; any mismatch raises
    CorruptCodewordError.
    """
    if len(y) != sp.n + sp.total_redundancy:
        raise ValueError(
            f"expected {sp.n + sp.total_redundancy} symbols, got {len(y)}"
        )
    if y.q != sp.q:
        raise ValueError(f"word alphabet {y.q} does not match q={sp.q}")
    joint_len = {
        Variant.HALF_WINDOW: 0,
        Variant.SEPARATOR: sp.p + 2,
        Variant.GLUE_ONLY: 2,
    }[sp.variant]
    pieces = []
    previous = None
    offset = 0
    for j, (length, params) in enumerate(zip(sp.segment_lengths, sp.base)):
        if j > 0:
            offset += joint_len
        codeword = y[offset : offset + length + 1]
        if j > 0 and joint_len:
            joint = y[offset - joint_len : offset].to_list()
            separator = [1] + [0] * (sp.p - 1)
            if sp.variant is Variant.SEPARATOR and joint[1:-1] != separator:
                raise CorruptCodewordError(
                    f"separator block damaged before segment {j}"
                )
            if (joint[0], joint[-1]) != _glue_symbols(previous, codeword, sp.p):
                raise CorruptCodewordError(
                    f"glue symbols damaged before segment {j}"
                )
        pieces.append(codec.decode(codeword, params).symbols)
        previous = codeword
        offset += length + 1
    return Word._trusted(np.concatenate(pieces), sp.q)


def prefers_separator(q: int, l: int, p: int) -> bool:
    """Closed-form redundancy comparison: separator beats half-window."""
    return l >= 3 * p - 3 and _beats_half_window(q, l, p, p + 3)


def prefers_glue(q: int, l: int, p: int) -> bool:
    """Closed-form redundancy comparison: glue-only beats half-window."""
    return l >= 4 * p - 7 and _beats_half_window(q, l, p, 3)


def _beats_half_window(q: int, l: int, p: int, divisor: int) -> bool:
    # q^(l/2 - p - 1) + l/2 - 2  <=  (q^(l - p - 1) + l - 2) / divisor,
    # kept exact for odd l by comparing squares of the half-power.
    rhs = (Fraction(q) ** (l - p - 1) + l - 2) / divisor
    rest = rhs - Fraction(l, 2) + 2
    if rest < 0:
        return False
    return Fraction(q) ** (l - 2 * p - 2) <= rest * rest


@dataclass(frozen=True)
class Selection:
    """Outcome of comparing every feasible layout at one parameter point."""

    variant: Variant
    params: SegmentedParams
    candidates: Mapping[Variant, SegmentedParams]
    notes: tuple[str, ...]


_TIE_ORDER = {Variant.GLUE_ONLY: 0, Variant.SEPARATOR: 1, Variant.HALF_WINDOW: 2}


def select_construction(q: int, n: int, l: int, p: int) -> Selection:
    """Cheapest feasible layout; ties prefer glue-only, then separator.

    The exact per-layout plans decide the winner.  The closed-form
    comparison predicates are evaluated as a cross-check and any
    disagreement is reported in ``notes`` rather than changing the choice.
    """
    candidates: dict[Variant, SegmentedParams] = {}
    for variant in Variant:
        try:
            candidates[variant] = plan(q, n, l, p, variant)
        except (InfeasibleParametersError, ValueError):
            continue
    if not candidates:
        raise InfeasibleParametersError(
            f"no layout is feasible for q={q}, n={n}, l={l}, p={p}"
        )
    best = min(
        candidates.items(),
        key=lambda item: (item[1].total_redundancy, _TIE_ORDER[item[0]]),
    )
    notes = []
    half = candidates.get(Variant.HALF_WINDOW)
    for variant, predicate in (
        (Variant.SEPARATOR, prefers_separator),
        (Variant.GLUE_ONLY, prefers_glue),
    ):
        other = candidates.get(variant)
        if half is None or other is None:
            continue
        predicted = predicate(q, l, p)
        actual = other.total_redundancy <= half.total_redundancy
        if predicted != actual:
            notes.append(
                f"closed-form comparison for {variant.name} vs HALF_WINDOW "
                f"predicts {predicted} but exact plans say {actual}"
            )
    return Selection(
        variant=best[0],
        params=best[1],
        candidates=candidates,
        notes=tuple(notes),
    )
