"""Symbol words and window-periodicity predicates.

Building blocks shared by every other module: an immutable word type over
the alphabet {0, .., q-1}, period tests, sliding-window period-avoidance
predicates, and the search for the first window whose least period falls
below a target.

Every window question goes through one kernel, ``_leftmost_run``: the
leftmost run of at least ``need`` True entries in a bool mask.  A window
has period p exactly when the shift-comparison mask ``w[i] == w[i+p]``
holds over its first l - p positions, and ``is_rll`` asks it about the
mask ``w == 0``.  A row shorter than 30,000 entries is a substring
search; longer rows, and a matrix of rows, take log-step doubling (see
``_leftmost_run``).  A word of uint8 symbols with 8,192 or more of them
is first compared four symbols at a time, and the kernel runs only on
the few stretches where a window can start (see ``_shift_run``).  One
search, ``_first_windows``, finds the leftmost window with a period in a
given set and that window's least period, for one word or for a matrix
of words, one word per row.  It scans only the maximal periods of the
set, those that divide no other one, since a window with period d also
has every multiple of d below l as a period; then it finds the least
period on the one window it found.  ``first_violation`` (and through it
``is_lpa`` and ``least_period_below``) asks it about one word and the
periods below p, and ``is_pa`` about the period p alone; the codec's
batched repair loop asks it about the segments of a segmented layout;
and the counting engine keeps only whether each row of a chunk of
enumerated words has such a window (periods below p for LPA, exactly p
for PA).  Whole-word period tests compare the two shifted copies
directly: ``_periodic`` the bytes of one word (for ``has_period`` and a
found window's least period), ``_extension_symbols`` many words at once.

Symbol text for q <= 10 is a line of ASCII digits, read and written as
bytes (one byte per symbol, offset by ``ord("0")``).  Comma-separated
lines, and digit lines holding anything else (a space, a non-ASCII digit),
go through ``int`` one token at a time.

The independent reference oracles, written straight from the
definitions, live in the test suite (``tests/helpers.py``), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterator

import numpy as np

__all__ = [
    "Word",
    "WindowViolation",
    "has_period",
    "least_period_below",
    "is_pa",
    "is_lpa",
    "is_rll",
    "difference",
    "first_violation",
    "extension_symbol",
]


def _check_alphabet(q: int) -> None:
    """The q >= 2 check of every entry point that takes an alphabet size."""
    if q < 2:
        raise ValueError(f"alphabet size must be at least 2, got {q}")


def _check_run_length(k: int) -> None:
    """The k >= 1 check of every entry point that takes a zero-run length."""
    if k < 1:
        raise ValueError(f"run length must be at least 1, got {k}")


def _dtype_for(q: int):
    if q <= 256:
        return np.uint8
    if q <= 65536:
        return np.uint16
    return np.int64


class Word:
    """Immutable sequence of symbols drawn from {0, .., q-1}.

    Symbols live in a read-only numpy array so large words can be scanned
    with vector operations while small ones stay cheap to slice.  A string
    is parsed as contiguous digits for q <= 10 and as comma-separated
    integers otherwise (or whenever it holds a comma).  Words compare and
    hash by (alphabet, content).
    """

    __slots__ = ("_symbols", "_q", "_hash")

    def __init__(self, symbols, q: int):
        _check_alphabet(q)
        if isinstance(symbols, str):
            symbols = _parse_symbol_text(symbols, q)
        elif not isinstance(symbols, (np.ndarray, list, tuple)):
            symbols = list(symbols)
        top = min(q, 1 << 63)  # symbols are held in int64 at most
        arr = np.asarray(symbols)
        if arr.dtype.kind not in "iu":
            # numpy casts an array's floats past int64 silently, Python's loudly
            if isinstance(symbols, np.ndarray):
                symbols = symbols.tolist()
            try:
                ints = np.asarray(symbols, dtype=np.int64)
            except OverflowError:  # a symbol beyond the int64 range
                raise ValueError(f"symbols must lie in [0, {top - 1}]") from None
            # the conversion truncates fractions (floats, Fraction, Decimal)
            if arr.dtype.kind in "fO" and (ints != arr).any():
                raise ValueError("symbols must be integers")
            arr = ints
        if arr.ndim != 1:
            raise ValueError("symbols must form a one-dimensional sequence")
        if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= top):
            raise ValueError(f"symbols must lie in [0, {top - 1}]")
        out = arr.astype(_dtype_for(q))
        out.setflags(write=False)
        self._symbols = out
        self._q = q
        self._hash = None

    @classmethod
    def _trusted(cls, arr: np.ndarray, q: int) -> "Word":
        """Wrap an already-validated array without copying or checking."""
        obj = object.__new__(cls)
        if arr.flags.writeable:
            arr.setflags(write=False)
        obj._symbols = arr
        obj._q = q
        obj._hash = None
        return obj

    @property
    def symbols(self) -> np.ndarray:
        """Read-only array view of the symbols."""
        return self._symbols

    @property
    def q(self) -> int:
        return self._q

    def to_list(self) -> list[int]:
        return self._symbols.tolist()

    def to_text(self) -> str:
        if self._q <= 10:
            return (self._symbols + _ZERO).tobytes().decode("ascii")
        return ",".join(map(str, self._symbols.tolist()))

    def reversed(self) -> "Word":
        return Word._trusted(np.ascontiguousarray(self._symbols[::-1]), self._q)

    def __len__(self) -> int:
        return int(self._symbols.shape[0])

    def __iter__(self) -> Iterator[int]:
        return iter(self._symbols.tolist())

    def __getitem__(self, key):
        if isinstance(key, slice):
            if key.step not in (None, 1):
                raise ValueError("strided word slices are not supported")
            return Word._trusted(self._symbols[key], self._q)
        return int(self._symbols[key])

    def __add__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        if other._q != self._q:
            raise ValueError("cannot concatenate words over different alphabets")
        return Word._trusted(np.concatenate([self._symbols, other._symbols]), self._q)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._q == other._q and np.array_equal(self._symbols, other._symbols)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._q, self._symbols.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Word({self.to_text()!r}, q={self._q})"

    def __str__(self) -> str:
        return self.to_text()


_ZERO = np.uint8(ord("0"))


def _parse_symbol_text(text: str, q: int) -> np.ndarray | list[int]:
    text = text.strip()
    if not text:
        return []
    if "," in text or q > 10:
        return [int(tok) for tok in text.split(",")]
    if text.isascii():
        digits = np.frombuffer(text.encode("ascii"), np.uint8) - _ZERO
        if digits.max() <= 9:  # bytes below "0" wrap round to 208 and up
            return digits
    # int() judges every other line symbol by symbol: it words the error,
    # and it accepts any Unicode decimal digit
    return [int(ch) for ch in text]


@dataclass(frozen=True)
class WindowViolation:
    """Location of the first window whose least period is below target.

    ``index`` is the zero-based start of the offending window and
    ``least_period`` its smallest period; no smaller period exists for
    that window.
    """

    index: int
    least_period: int


def has_period(w: Word, p: int) -> bool:
    """True iff every symbol of ``w`` equals the symbol ``p`` positions later."""
    if not 1 <= p <= len(w) - 1:
        raise ValueError(f"period must lie in [1, {len(w) - 1}], got {p}")
    return _periodic(w.symbols, p)


def _periodic(arr: np.ndarray, d: int) -> bool:
    """Whether the 1-D ``arr`` has period d, by one compare of its bytes."""
    text, cut = arr.tobytes(), d * arr.itemsize
    return text[:-cut] == text[cut:]


# A 1-D mask this long or longer takes log-step doubling.  CPython's
# ``bytes.find`` switches to its two-way search here for needles under 100
# bytes; on shift masks the two measured even between 2**14 and 2**15
# entries, and doubling wins from there on.
_LONG_ROW = 30_000


def _leftmost_run(mask: np.ndarray, need: int) -> int | np.ndarray:
    """Start of the leftmost run of at least ``need`` consecutive True
    entries in each row of the bool ``mask``, or -1 where there is none.

    A 1-D mask is one row and gives an int; a 2-D mask of shape (rows, m)
    gives one start per row as an array, as ``_first_windows`` does for
    words.  The window search reduces to this: the length-l window at j
    has period p exactly when entries j .. j+l-p-1 of the shift-comparison
    mask ``w[i] == w[i+p]`` all hold.

    A row shorter than ``_LONG_ROW`` (30,000 entries) is a substring
    search for ``need`` one-bytes, since bool entries are single 0/1
    bytes; CPython runs it in C in at most m * need byte comparisons.
    Longer rows, and several rows at once, take log-step doubling, one
    loop for both shapes: a run of w ones at j and a run of w ones at
    j + s, with s <= w, make a run of w + s ones at j, so about log2(need)
    ANDs of the mask with itself shifted leave entry j True exactly when a
    run of ``need`` starts there, and ``argmax`` finds the first per row.
    That costs O(m * log need) and reads the whole row even when a run
    starts early; at 10^6 entries it measured 0.4-0.5 ms against 0.5-1.8 ms
    for ``find`` (need 10-25, shift masks of random words, q = 2 and 4).
    The caller's mask is never changed.
    """
    one_row = mask.ndim == 1
    if one_row and len(mask) < _LONG_ROW:
        return mask.tobytes().find(b"\x01" * need)
    if mask.shape[-1] < need:
        return -1 if one_row else np.full(len(mask), -1)
    mask = _run_starts(mask, need)
    starts = mask.argmax(axis=-1)
    if one_row:
        return int(starts) if mask[starts] else -1
    starts[~mask[np.arange(len(mask)), starts]] = -1
    return starts


def _run_starts(mask: np.ndarray, need: int) -> np.ndarray:
    """The log-step doubling of ``_leftmost_run``: entry j of each row of
    the result is True exactly when a run of ``need`` True entries starts
    at j of that row of ``mask`` (need - 1 fewer entries per row).  Each
    AND builds a new, shorter mask: ANDing a mask in place with an
    overlapping slice of itself makes numpy buffer the slice anyway, and
    measured slower."""
    width = 1
    while width < need:
        step = min(width, need - width)
        mask = mask[..., :-step] & mask[..., step:]
        width += step
    return mask


# A contiguous uint8 word this long or longer is compared four symbols at a
# time before the run kernel sees it (``_shift_run``); on random words at
# q = 2 and 4, p = 3, 4 and 6, the two forms measured even between 4,096
# and 6,000 symbols.  After this many candidate stretches that hold no
# window, the rest of the word goes to the exact kernel.
_BLOCKED_ROW = 8_192
_BLOCK_MISSES = 8


def _shift_run(word: np.ndarray, d: int, need: int) -> int:
    """Start of the leftmost run of ``need`` matches ``word[i] == word[i+d]``
    in the 1-D ``word``, or -1: the leftmost window of ``need + d`` symbols
    with period d.

    A short word, a word of wider or strided symbols, and a need below 11
    go straight to ``_leftmost_run`` with the shift mask.  Otherwise one
    pass compares ``word`` with its shift as ``np.uint32`` views: entry c of
    that block mask is True when matches 4c .. 4c+3 all hold.  A run of
    ``need`` matches from j holds K = (need - 3) // 4 >= 2 whole blocks, the
    first of them c = ceil(j / 4), so it starts a run of K True blocks at
    c, with 4c - 3 <= j <= 4c.  The candidates c, the starts of such block
    runs, are taken in ascending order, and the run kernel looks only at
    the symbols ``word[4c - 3 : 4c + need + d]``, which hold every window
    from 4c - 3 to 4c.  A window at j' left of the first hit has the
    candidate ceil(j' / 4), checked before the hit's or the hit's own,
    whose look would have found j' or a window before it; so the first hit
    is the leftmost window.  Words full of runs a few matches short make
    candidates that hold no window, each a few numpy calls; after
    ``_BLOCK_MISSES`` of them the rest of the word, from the next
    candidate's first window on, goes to the exact kernel, so such a word
    costs at most that many calls more than the exact scan.
    """
    if (
        len(word) < _BLOCKED_ROW  # cheapest first: most calls are short probes
        or need < 11
        or word.dtype != np.uint8
        or not word.flags.c_contiguous
    ):
        return _leftmost_run(word[:-d] == word[d:], need)
    size = (len(word) - d) // 4 * 4
    blocks = word[:size].view(np.uint32) == word[d : d + size].view(np.uint32)
    blocks = _run_starts(blocks, (need - 3) // 4)
    c = 0
    for _ in range(_BLOCK_MISSES):
        if c == len(blocks):
            return -1
        c += int(blocks[c:].argmax())  # argmax stops at the first True
        if not blocks[c]:
            return -1
        lo = max(4 * c - 3, 0)
        part = word[lo : 4 * c + need + d]
        start = _leftmost_run(part[:-d] == part[d:], need)
        if start >= 0:
            return lo + start
        c += 1
    lo = 4 * c - 3
    rest = word[lo:]
    start = _leftmost_run(rest[:-d] == rest[d:], need)
    return start if start < 0 else lo + start


@cache
def _maximal(periods) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``periods`` split into those that divide no other one of them (the
    maximal periods) and the rest, each in the given order."""
    top = tuple(d for d in periods if not any(e > d and e % d == 0 for e in periods))
    return top, tuple(d for d in periods if d not in top)


def _first_windows(
    rows: np.ndarray, l: int, periods
) -> tuple[int, int] | tuple[np.ndarray, np.ndarray]:
    """Leftmost length-``l`` window with a period in ``periods`` (ascending,
    each below l) and its least such period: two ints for a 1-D word, -1
    and 0 when there is none, or two arrays for a 2-D matrix, one entry per
    row.  Ties go to the smaller period.

    A window with period d also has every multiple of d below l as a
    period, so the leftmost window with a period in the set is the
    leftmost window with a maximal one, a period that divides no other in
    the set.  Only those are scanned: {2} for the periods below 3, {2, 3}
    below 4, {3, 4, 5} below 6 (``_maximal`` splits each set once and
    caches it).  The smallest maximal period that finds the window is its
    least maximal period; the other periods of the set are then tested on
    that one window of l symbols, in ascending order, for a smaller one
    (each is at most half a period it divides, below every maximal one).

    A word, and a one-row matrix (where a 2-D pass costs about ten times
    as much), asks ``_shift_run`` once per maximal period, each time over
    the prefix that could still hold an earlier window, and stops at a
    window that starts at 0; a long uint8 word is filtered there four
    symbols at a time.  Several rows take one 2-D ``_leftmost_run`` per
    maximal period."""
    if rows.ndim == 2 and len(rows) == 1:
        index, least = _first_windows(rows[0], l, periods)
        return np.array([index]), np.array([least])
    top, rest = _maximal(periods)
    if rows.ndim == 1:
        index, least, head = -1, 0, rows
        for period in top:
            start = _shift_run(head, period, l - period)
            if start >= 0:
                index, least, head = start, period, rows[: start + l - 1]
                if start == 0:
                    break
        if index >= 0 and rest:
            window = rows[index : index + l]
            for period in rest:
                if _periodic(window, period):
                    return index, period
        return index, least
    index = np.full(len(rows), -1)
    least = np.zeros(len(rows), dtype=np.int64)
    for period in top:
        start = _leftmost_run(rows[:, :-period] == rows[:, period:], l - period)
        better = (start >= 0) & ((index < 0) | (start < index))
        index[better] = start[better]
        least[better] = period
    if rest:
        hit = np.flatnonzero(index >= 0)
        windows = rows[hit[:, None], index[hit, None] + np.arange(l)]
        for period in reversed(rest):  # the smallest written last wins
            has = (windows[:, :-period] == windows[:, period:]).all(axis=1)
            least[hit[has]] = period
    return index, least


def least_period_below(w: Word, p: int) -> int | None:
    """Smallest period of ``w`` that is < ``p``, or None if there is none;
    the ValueErrors are ``first_violation``'s, the whole word its window."""
    violation = first_violation(w, len(w), p)
    return None if violation is None else violation.least_period


def is_pa(w: Word, l: int, p: int) -> bool:
    """True iff no length-``l`` window of ``w`` has period exactly ``p``.

    Vacuously true when the word is shorter than one window.
    """
    if l < 2:
        raise ValueError(f"window length must be at least 2, got {l}")
    if not 1 <= p < l:
        raise ValueError(f"period must lie in [1, {l - 1}], got {p}")
    return _first_windows(w.symbols, l, (p,))[0] < 0


def is_lpa(w: Word, l: int, p: int) -> bool:
    """True iff no length-``l`` window of ``w`` has any period below ``p``.

    Raises the same ValueErrors as ``first_violation``.
    """
    return first_violation(w, l, p) is None


def is_rll(w: Word, k: int) -> bool:
    """True iff ``w`` contains no run of ``k`` consecutive zero symbols."""
    _check_run_length(k)
    return _leftmost_run(w.symbols == 0, k) < 0


def difference(w: Word, p: int) -> Word:
    """Symbol-wise difference between ``w`` and its shift by ``p``, mod q.

    Entry i equals (w[i] - w[i+p]) mod q; the result has len(w) - p
    symbols.  A window of ``w`` has period ``p`` exactly when the matching
    stretch of this word is all zero.
    """
    if not 1 <= p < len(w):
        raise ValueError(f"shift must lie in [1, {len(w) - 1}], got {p}")
    # a q past int64 takes Python ints, and Word refuses what it cannot hold
    arr = w.symbols.astype(np.int64 if w.q < 1 << 63 else object)
    return Word((arr[:-p] - arr[p:]) % w.q, w.q)


def first_violation(w: Word, l: int, p: int) -> WindowViolation | None:
    """Earliest length-``l`` window of ``w`` with some period below ``p``.

    Returns None when every window is clean (including words shorter than
    one window).  Ties are broken toward the smallest window index and
    then the smallest period, so ``least_period`` really is the least
    period of the reported window.  ``_first_windows`` scans only the
    maximal periods below p, those with no multiple below p ({3, 4, 5}
    for p = 6), and then tests the smaller periods on the one window it
    found.  A scan costs O(len(w) * log l) once the word has 30,000
    symbols; shorter words can take up to len(w) * l byte comparisons per
    maximal period (see ``_leftmost_run``).  A word of 8,192 or more uint8
    symbols, at l - d >= 11 for a maximal period d, is read once as 4-byte
    blocks instead, plus a few symbols around each stretch of matching
    blocks long enough to hold a window (see ``_shift_run``): a clean
    random word of 10^6 symbols at q = 2, l = 25 and p = 4 measured 0.25 ms
    against 0.84 ms.
    """
    if l < 2:
        raise ValueError(f"window length must be at least 2, got {l}")
    if p < 2:
        raise ValueError(f"period threshold must be at least 2, got {p}")
    index, least = _first_windows(w.symbols, l, range(1, min(p, l)))
    return None if index < 0 else WindowViolation(index, least)


def extension_symbol(w: Word) -> int:
    """Smallest symbol ``a`` such that ``w + a`` has no period below
    len(w)//2 + 2.

    Such a symbol always exists; running out of candidates would signal a
    defect, not an input problem.
    """
    if len(w) == 0:
        raise ValueError("cannot extend an empty word")
    return int(_extension_symbols(w.symbols[None, :], w.q)[0])


def _extension_symbols(rows: np.ndarray, q: int) -> np.ndarray:
    """``extension_symbol`` of each row of the (r, n) symbol array ``rows``
    (n >= 1), as one array of r symbols."""
    r, n = rows.shape
    periods = range(1, min(n // 2 + 2, n + 1))
    # w + a has period pp exactly when w has period pp (vacuously so for
    # pp = n) and a equals w[n - pp]; each such period rules out one symbol,
    # so the answer lies below len(periods) + 1 and wider symbols never count.
    width = min(q, len(periods) + 1)
    taken = np.zeros((r, width), dtype=bool)
    at = np.arange(r)
    for pp in periods:
        sym = rows[:, n - pp]
        hit = (rows[:, : n - pp] == rows[:, pp:]).all(axis=1) & (sym < width)
        taken[at[hit], sym[hit]] = True
    free = ~taken
    if not free.any(axis=1).all():
        raise AssertionError(
            "no symbol extends the word without a short period; this "
            "contradicts the extension guarantee and indicates a defect"
        )
    return free.argmax(axis=1)
