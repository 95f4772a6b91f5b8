from fractions import Fraction

import numpy as np
import pytest

from lpacodes import codec, segmented
from lpacodes.codec import (
    EncodeTrace,
    LpaParams,
    RepairStep,
    _decode_rows,
    _encode_rows,
    _State,
    decode,
    derive_params,
    encode,
    inverse_repair,
    repair,
    replay_trace,
    step_statistics,
)
from lpacodes.errors import CorruptCodewordError, InfeasibleParametersError
from lpacodes.periodicity import WindowViolation, Word, first_violation

from helpers import (
    all_tuples,
    naive_decode,
    naive_encode,
    naive_inverse_repair,
    naive_window_clean,
)


# ------------------------------------------------------------- parameters


@pytest.mark.parametrize(
    "q,n,p,l,width",
    [
        (2, 14, 4, 8, 3),
        (2, 6, 2, 5, 2),
        (2, 8, 2, 6, 3),
        (2, 10, 3, 7, 3),
        (3, 9, 2, 5, 2),
        (2, 10**5, 4, 22, 17),
        (2, 10**6, 4, 25, 20),
    ],
)
def test_derive_params_window_choices(q, n, p, l, width):
    params = derive_params(q, n, p)
    assert params.l == l
    assert params.index_width == width
    # the window really is the smallest workable one
    assert q**width >= n - l + 2
    if l > p + 2:
        smaller = l - 1
        assert q ** (smaller - p - 1) < n - smaller + 2


def test_derive_params_needs_room():
    # n must be at least p + 2
    with pytest.raises(ValueError, match="^message length 3 is too short for one repair"):
        derive_params(2, 3, 2)
    with pytest.raises(ValueError):
        derive_params(1, 10, 2)
    with pytest.raises(ValueError):
        derive_params(2, 10, 1)


def test_derive_params_tiny_message_uses_whole_word_window():
    params = derive_params(2, 5, 2)
    assert params.l == 5  # falls back to l = n, a single window
    assert params.index_width == 2


def test_params_validation():
    with pytest.raises(ValueError):
        LpaParams(q=2, n=100, p=4, l=8)  # 2^3 < 100-8+2
    with pytest.raises(ValueError):
        LpaParams(q=2, n=14, p=4, l=5)  # l < p+2


# ------------------------------------------------------- the worked trace


@pytest.fixture
def ex_params():
    return derive_params(2, 14, 4)


def test_single_repair_bookkeeping(ex_params):
    state = Word("100010101011001", 2)
    fixed, step = repair(state, ex_params)
    assert step == RepairStep(index=3, least_period=2, kernel=Word("01", 2))
    # the logged kernel owns its symbols instead of viewing the whole state
    assert step.kernel.symbols.base is None
    assert fixed == Word("100100101100110", 2)
    # record = kernel, separator 1, zero pad, index digits, trailing 0
    assert fixed[7:].to_text() == "01100110"
    assert inverse_repair(fixed, ex_params) == state


def test_two_step_encode_trace(ex_params):
    x = Word("10001010101100", 2)
    y, trace = encode(x, ex_params)
    assert [
        (s.index, s.least_period, s.kernel.to_text()) for s in trace.steps
    ] == [(3, 2, "01"), (0, 3, "100")]
    assert repair(x + Word([1], 2), ex_params)[0] == Word("100100101100110", 2)
    assert y == Word("110011010010000", 2)
    assert first_violation(y, ex_params.l, ex_params.p) is None
    assert decode(y, ex_params) == x


def test_encode_without_repairs_appends_flag(ex_params):
    x = Word("10110100011010", 2)
    y, trace = encode(x, ex_params)
    assert trace.steps == ()
    assert y == x + Word([1], 2)


def test_repair_fixed_point_detected(ex_params):
    # this state repairs to itself: the removed window re-creates the
    # pattern it was logged to fix
    state = Word("111111010101010", 2)
    fixed, step = repair(state, ex_params)
    assert (step.index, step.least_period) == (5, 2)
    assert fixed == state
    with pytest.raises(CorruptCodewordError, match="cycle"):
        decode(state, ex_params)


@pytest.mark.parametrize(
    "text", ["000001001101000", "000011001100100", "010011001110000"]
)
def test_decode_detects_cycle_after_lead_in(ex_params, text):
    # these walks reach a fixed point only after 1, 2 and 3 inverse steps,
    # so the guard must catch a state it did not start from
    with pytest.raises(CorruptCodewordError, match="cycle"):
        decode(Word(text, 2), ex_params)


def test_repair_requires_a_violation(ex_params):
    clean = Word("101101000110101", 2)
    with pytest.raises(ValueError, match="nothing to repair"):
        repair(clean, ex_params)


# ------------------------------------------------- repair <-> inverse pair


def test_repair_inverse_and_injectivity_small():
    for q, n, p in [(2, 8, 2), (2, 9, 3), (3, 6, 2)]:
        params = derive_params(q, n, p)
        images = {}
        for tup in all_tuples(q, n + 1):
            state = Word(list(tup), q)
            if first_violation(state, params.l, params.p) is None:
                continue
            fixed, _ = repair(state, params)
            assert len(fixed) == n + 1
            assert fixed.symbols[-1] == 0
            assert inverse_repair(fixed, params) == state
            key = fixed.to_text()
            assert key not in images, (
                f"repair collides at {q},{n},{p}: "
                f"{images.get(key)} and {state.to_text()}"
            )
            images[key] = state.to_text()


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and message of its error."""
    try:
        return fn(*args)
    except (CorruptCodewordError, ValueError) as exc:
        return type(exc), str(exc)


MALFORMED = [
    ((2, 14, 4), "0" * 15),  # no separator found
    ((2, 14, 4), "1" * 15),  # does not end in 0
    # index field pointing past the last removable window: at (2, 10, 3)
    # the 3-digit field can say 7 but only indices 0..4 are removable
    ((2, 10, 3), "0000" + "01" + "1" + "111" + "0"),
]


@pytest.mark.parametrize("qnp,text", MALFORMED)
def test_malformed_records_rejected_like_the_oracle(qnp, text):
    params = derive_params(*qnp)
    word = Word(text, 2)
    expected = _outcome(naive_inverse_repair, word, params)
    assert isinstance(expected, tuple)
    assert _outcome(inverse_repair, word, params) == expected
    assert _outcome(decode, word, params) == _outcome(naive_decode, word, params)


# the cycles at (2, 14, 4), then one word that cycles at l = 6 with uint16
# and with int64 symbols
CYCLES = [
    pytest.param(2, 14, 4, text, id=text)
    for text in ["111111010101010", "000001001101000", "000011001100100", "010011001110000"]
] + [
    pytest.param(q, 14, 4, "0,1,0,0,1,1,0,0,0,0,1,1,0,0,0", id=f"q{q}-010011000011000")
    for q in (300, 70000)
]


@pytest.mark.parametrize("q,n,p,text", CYCLES)
def test_cycles_rejected_like_the_oracle(q, n, p, text):
    params = derive_params(q, n, p)
    word = Word(text, q)
    expected = (CorruptCodewordError, "repair records form a cycle")
    assert _outcome(naive_decode, word, params) == expected
    assert _outcome(decode, word, params) == expected


def test_inverse_repair_rejects_malformed_records(ex_params):
    with pytest.raises(CorruptCodewordError):
        inverse_repair(Word("0" * 15, 2), ex_params)  # no separator found
    with pytest.raises(ValueError):
        inverse_repair(Word("1" * 15, 2), ex_params)  # does not end in 0
    # index field pointing past the last removable window: at (2, 10, 3)
    # the 3-digit field can say 7 but only indices 0..4 are removable
    params = derive_params(2, 10, 3)
    bad = Word("0000" + "01" + "1" + "111" + "0", 2)
    with pytest.raises(CorruptCodewordError):
        inverse_repair(bad, params)


# --------------------------------------------------------------- round trip


@pytest.mark.parametrize("q,n,p", [(2, 7, 2), (2, 8, 3), (3, 7, 2), (3, 7, 3)])
def test_exhaustive_round_trip(q, n, p):
    params = derive_params(q, n, p)
    for tup in all_tuples(q, n):
        x = Word(list(tup), q)
        y, _ = encode(x, params)
        assert len(y) == n + 1
        assert naive_window_clean(y.to_list(), params.l, params.p)
        assert decode(y, params) == x


def _steps(trace):
    return [(s.index, s.least_period, s.kernel) for s in trace.steps]


@pytest.mark.parametrize("q,p,largest", [(2, 4, 14), (2, 2, 11), (3, 2, 9), (3, 3, 8)])
def test_engine_matches_oracle_exhaustively(q, p, largest):
    # every message encodes, and every word of codeword length decodes or
    # is rejected, exactly as the rescan-and-copy loop does
    for n in range(p + 3, largest + 1):
        params = derive_params(q, n, p)
        for tup in all_tuples(q, n):
            x = Word(list(tup), q)
            y, trace = encode(x, params)
            assert (y, _steps(trace)) == naive_encode(x, params)
        for tup in all_tuples(q, n + 1):
            y = Word(list(tup), q)
            assert _outcome(decode, y, params) == _outcome(naive_decode, y, params)


@pytest.mark.parametrize("q,p", [(2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 2)])
def test_shortest_message_round_trips_exhaustively(q, p):
    # n = p + 2, the shortest message a repair record fits: the window is
    # the whole message and its one index digit addresses both starts
    n = p + 2
    params = derive_params(q, n, p)
    assert params.l == n
    for tup in all_tuples(q, n):
        x = Word(list(tup), q)
        y, trace = encode(x, params)
        assert naive_window_clean(y.to_list(), params.l, params.p)
        assert (y, _steps(trace)) == naive_encode(x, params)
        assert decode(y, params) == x


# ------------------------------------------------------- batched rows


def _matrix(q, n):
    return np.array(list(all_tuples(q, n)), dtype=np.uint8)


@pytest.mark.parametrize("q,p,largest", [(2, 3, 11), (2, 4, 11), (3, 3, 7)])
def test_batched_encode_matches_one_word_encode_exhaustively(q, p, largest):
    """Every message as one row of a single matrix: the batched repair loop
    gives each row the codeword that ``encode`` and the rescan-and-copy
    oracle give it alone, and ``_decode_rows`` gives the message back."""
    for n in range(p + 3, largest + 1):
        for l in range(derive_params(q, n, p).l, n + 1):
            params = LpaParams(q=q, n=n, p=p, l=l)
            msgs = _matrix(q, n)
            got = _encode_rows(msgs, params)
            words = [Word(row, q) for row in msgs]
            assert got.tolist() == [encode(x, params)[0].to_list() for x in words]
            if l == derive_params(q, n, p).l:
                assert got.tolist() == [naive_encode(x, params)[0].to_list() for x in words]
            assert np.array_equal(_decode_rows(got, params), msgs)


def _rows_outcome(decode_rows, rows, params):
    """The messages of a matrix of codewords as a list, or the message of
    the error it raises."""
    try:
        return decode_rows(rows, params).tolist()
    except CorruptCodewordError as exc:
        return str(exc)


def _one_word_at_a_time(rows, params):
    return np.array([decode(Word(row, params.q), params).symbols for row in rows])


@pytest.mark.parametrize("q,n,p", [(2, 8, 3), (2, 11, 4), (3, 7, 3)])
def test_batched_decode_fails_like_one_word_decode_exhaustively(q, n, p):
    """Every word of codeword length as a one-row matrix decodes, or fails
    with the error of ``decode``: every malformed record, a marker 2, and
    walks that cycle (at (2, 8, 3))."""
    params = derive_params(q, n, p)
    errors = set()
    for row in _matrix(q, n + 1):
        got = _rows_outcome(_decode_rows, row[None], params)
        assert got == _rows_outcome(_one_word_at_a_time, row[None], params), row
        if isinstance(got, str):
            errors.add(got.split(" ")[0])
    assert len(errors) >= 2, errors


@pytest.mark.parametrize("q,n,p", [(2, 8, 3), (2, 14, 4), (3, 7, 3)])
def test_batched_decode_raises_the_first_failing_row(q, n, p):
    """Random matrices of sound and corrupt rows: the result, or the error
    of the first row that fails, is that of decoding the rows in order."""
    params = derive_params(q, n, p)
    rng = np.random.default_rng(n)
    codewords = _encode_rows(rng.integers(0, q, size=(200, n), dtype=np.uint8), params)
    noise = rng.integers(0, q, size=(200, n + 1), dtype=np.uint8)
    for _ in range(300):
        size = int(rng.integers(1, 9))
        pick = rng.integers(0, 200, size=size)
        rows = np.where(rng.random((size, 1)) < 0.7, codewords[pick], noise[pick])
        got = _rows_outcome(_decode_rows, rows, params)
        assert got == _rows_outcome(_one_word_at_a_time, rows, params), rows


# Words at (2, 14, 4) and the inverse steps each walk completes before it
# ends, fails or revisits a state
SOUND_5 = "001000001010010"
ALL_ZERO_AT_3 = "000000001010010"  # kernel block is all zero
ALL_ZERO_AT_1 = "000000000010000"
PERIOD_0_AT_0 = "000000010000000"  # kernel block encodes an impossible period 0
PERIOD_0_AT_4 = "111000000111110"
CYCLE_AT_4 = "010011001110000"
STEPS = {
    SOUND_5: 5, ALL_ZERO_AT_3: 3, ALL_ZERO_AT_1: 1,
    PERIOD_0_AT_0: 0, PERIOD_0_AT_4: 4, CYCLE_AT_4: 4,
}


def _inverse_steps(text, params):
    y = Word(text, 2)
    seen, steps = {y}, 0
    while y[-1] == 0:
        try:
            y = naive_inverse_repair(y, params)
        except CorruptCodewordError:
            break
        steps += 1
        if y in seen:
            break
        seen.add(y)
    return steps


@pytest.mark.parametrize(
    "texts,error",
    [
        ([SOUND_5, ALL_ZERO_AT_3, PERIOD_0_AT_0, CYCLE_AT_4], "kernel block is all zero"),
        ([SOUND_5, CYCLE_AT_4, PERIOD_0_AT_0], "repair records form a cycle"),
        ([PERIOD_0_AT_4, ALL_ZERO_AT_1], "kernel block encodes an impossible period 0"),
        ([SOUND_5, ALL_ZERO_AT_1[:-1] + "1", SOUND_5], None),
    ],
)
def test_batched_decode_error_order_across_passes(texts, error):
    """A row that fails late raises before a later row that fails early,
    and a cycle is caught among rows that leave the loop at other passes."""
    params = derive_params(2, 14, 4)
    for text in texts:
        assert _inverse_steps(text, params) == STEPS.get(text, 0), text
    rows = np.array([[int(c) for c in t] for t in texts], dtype=np.uint8)
    got = _rows_outcome(_decode_rows, rows, params)
    assert got == _rows_outcome(_one_word_at_a_time, rows, params)
    assert (got if isinstance(got, str) else None) == error


def _one_record_row(params, index):
    """Zeros, then one record of period 1 and kernel 1 naming ``index``:
    at index n + 1 - l, the last window start, it decodes to zeros and
    l - 1 ones."""
    kernel = np.ones(1, dtype=params._dtype).tobytes()
    record = np.frombuffer(codec._record(params, index, 1, kernel), params._dtype)
    return np.concatenate([np.zeros(params.n + 1 - params.l, params._dtype), record])


@pytest.mark.parametrize("params", [LpaParams(2, 12, 4, 8), LpaParams(300, 12, 4, 6)])
@pytest.mark.parametrize("bad", [0, 1])
def test_batched_decode_bounds_indices_by_each_row(params, bad):
    """The rows of a matrix are walked one at a time in one buffer: a
    record index one past its own row's last window start raises, as
    ``decode`` on that row does, even while later rows follow it in the
    buffer, and an index equal to that start decodes."""
    last = params.n + 1 - params.l
    good = _one_record_row(params, last)
    rows = np.array([good] * 3)
    want = [0] * last + [1] * (params.l - 1)
    assert _rows_outcome(_decode_rows, rows, params) == [want] * 3
    assert _rows_outcome(_one_word_at_a_time, rows, params) == [want] * 3
    rows[bad] = _one_record_row(params, last + 1)
    error = f"window index {last + 1} exceeds the last window start {last}"
    assert _rows_outcome(_one_word_at_a_time, rows, params) == error
    assert _rows_outcome(_decode_rows, rows, params) == error


def _kernels(q, d):
    """Kernels of d symbols: all zeros, all q - 1 and two mixed ones."""
    return [
        [0] * d,
        [q - 1] * d,
        [(7919 * j + 1) % q for j in range(d)],
        [(q - 1, 0, 1)[j % 3] for j in range(d)],
    ]


@pytest.mark.parametrize("q", [2, 3, 16, 300, 70000, 2**63])
def test_record_writers_agree(q):
    """The record ``_record`` packs with struct is, byte for byte, the record
    block ``_excise_rows`` writes, for every window index, every period below
    p and kernels of all zeros, all q - 1 and mixed symbols; the one reader
    reads back index and period.  At the least window and at a wider one,
    whose capped place values give leading zero digits.  The rows are filled
    with q - 1 around each kernel, so a symbol past the period that leaked
    into the record would show."""
    n, p = 60, 4
    least = derive_params(q, n, p).l
    for l in (least, least + 2):
        params = LpaParams(q=q, n=n, p=p, l=l)
        cases = [
            (i, d, kernel)
            for i in range(n + 2 - l)
            for d in range(1, p)
            for kernel in _kernels(q, d)
        ]
        rows = np.full((len(cases), n + 1), q - 1, dtype=params._dtype)
        for r, (i, d, kernel) in enumerate(cases):
            rows[r, i : i + d] = kernel
        index = np.array([i for i, _, _ in cases])
        period = np.array([d for _, d, _ in cases])
        out = codec._excise_rows(rows, params, index, period)
        for r, (i, d, kernel) in enumerate(cases):
            kernel = np.array(kernel, dtype=params._dtype).tobytes()
            assert out[r, -l:].tobytes() == codec._record(params, i, d, kernel), (l, i, d)
            assert codec._read_record(params, out[r, -l:].tolist(), n + 1 - l) == (i, d)


def _changed_records(y, l, q):
    """Every word that differs from ``y`` in one symbol of its last two
    records, set to 0, 1, q - 1 or one other value."""
    for pos in range(len(y) - 2 * l, len(y)):
        old = int(y[pos])
        for value in sorted({0, 1, q - 1, (old + q // 2) % q} - {old}):
            w = y.symbols.copy()
            w[pos] = value
            yield w


@pytest.mark.parametrize("q", [16, 300, 70000])
def test_batched_decode_fails_like_one_word_decode_at_wide_alphabets(q):
    """uint8, uint16 and int64 symbols, index digits past one byte: every
    change of one symbol in the last one or two records of the codewords of
    the zeros, 0101..., 001... and all-(q - 1) messages decodes, or fails
    with one error, alike through ``_decode_rows`` (one row, and several)
    and ``decode``; ``inverse_repair`` undoes or rejects the last record as
    ``decode``'s first step does."""
    n, p = 60, 4
    params = derive_params(q, n, p)
    idx = np.arange(n)
    rows = []
    for arr in (np.zeros(n), idx % 2, idx % 3 == 2, np.full(n, q - 1)):
        y, trace = encode(Word(arr.astype(np.int64), q), params)
        assert len(trace.steps) >= 2
        rows += _changed_records(y, params.l, q)
    rows = np.array(rows)
    errors = set()
    for row in rows:
        want = _rows_outcome(_one_word_at_a_time, row[None], params)
        assert _rows_outcome(_decode_rows, row[None], params) == want, row
        if row[-1] == 0:
            first = _outcome(inverse_repair, Word(row, q), params)
            if isinstance(first, tuple):
                assert first == (CorruptCodewordError, want), row
            else:
                assert _rows_outcome(_one_word_at_a_time, first.symbols[None], params) == want
        if isinstance(want, str):
            errors.add(want.split(" ")[1])
    assert errors >= {"index", "block", "separator", "marker"}, errors
    for start in range(0, len(rows), 5):
        several = rows[start : start + 5]
        want = _rows_outcome(_one_word_at_a_time, several, params)
        assert _rows_outcome(_decode_rows, several, params) == want


def _families(n, q, rng):
    idx = np.arange(n)
    tail = np.zeros(n, dtype=np.int64)
    tail[: n // 3] = rng.integers(0, q, size=n // 3)
    return {
        "zeros": np.zeros(n, dtype=np.int64),
        "0101": idx % 2,
        "001": (idx % 3 == 2).astype(np.int64),
        "random head, zero tail": tail,
    }


@pytest.mark.parametrize(
    "q,n,p", [(2, 200, 4), (2, 1000, 5), (2, 5000, 4), (3, 2000, 4)]
)
def test_engine_matches_oracle_on_adversarial_families(q, n, p):
    params = derive_params(q, n, p)
    for name, arr in _families(n, q, np.random.default_rng(n)).items():
        x = Word(arr, q)
        y, trace = encode(x, params)
        assert len(trace.steps) > n // (2 * params.l), name
        assert (y, _steps(trace)) == naive_encode(x, params), name
        assert decode(y, params) == naive_decode(y, params) == x, name


@pytest.mark.parametrize("q,n,p", [(300, 2000, 4), (70000, 500, 4)])
def test_wide_alphabets_match_the_oracle(q, n, p):
    # uint16 and int64 symbols, two and eight bytes each in the codec's
    # state; at q = 300 the 001... message logs index digits above 255
    params = derive_params(q, n, p)
    idx = np.arange(n)
    messages = {
        "zeros": np.zeros(n, dtype=np.int64),
        "0101": idx % 2,
        "001": (idx % 3 == 2).astype(np.int64),
        "top": np.full(n, q - 1),
    }
    for name, arr in messages.items():
        x = Word(arr, q)
        y, trace = encode(x, params)
        assert trace.steps, name
        assert (y, _steps(trace)) == naive_encode(x, params), name
        assert decode(y, params) == x, name
        assert replay_trace(x, params, trace) == y, name
        states = [Word(np.append(arr, 1), q)]
        for expected in trace.steps:
            w, step = repair(states[-1], params)
            assert step == expected, name
            states.append(w)
        assert states[-1] == y, name
        # the inverse walk from y visits the same states backwards, down to
        # the marked message
        w = y
        for expected in reversed(states[:-1]):
            w = inverse_repair(w, params)
            assert w == expected, name
    # the first index digit of the last record set to q - 1 points past
    # the last window start
    bad = y.symbols.copy()
    bad[-params.index_width - 1] = q - 1
    corrupt = Word(bad, q)
    expected = _outcome(naive_decode, corrupt, params)
    assert expected[0] is CorruptCodewordError
    assert _outcome(decode, corrupt, params) == expected


def test_parameters_hold_no_state():
    # a parameter set holds only its four fields and immutable tables
    # derived from them, however much codec work has run under it
    params = derive_params(2, 2000, 4)
    x = Word("0" * 2000, 2)
    y, trace = encode(x, params)
    assert decode(y, params) == x
    assert repair(Word(np.append(x.symbols, 1), 2), params)[1] == trace.steps[0]
    assert replay_trace(x, params, trace) == y
    for name, value in vars(params).items():
        assert isinstance(value, (int, str, tuple, np.dtype)), name


def test_resumed_scan_reads_every_window_from_its_start():
    # one zero run planted at every position of a clean word puts the first
    # violation next to every probe boundary in turn; the probes must find
    # what one scan of the whole suffix finds
    params = derive_params(2, 400, 4)
    l = params.l
    clean = encode(Word(np.random.default_rng(1).integers(0, 2, 400), 2), params)[0]
    for j in range(len(clean) - l + 1):
        buf = clean.symbols.copy()
        buf[j : j + l] = 0
        for start in (0, 1, l - 1, 3 * l):
            whole = first_violation(Word(buf[start:], 2), l, params.p)
            expected = whole and WindowViolation(
                start + whole.index, whole.least_period
            )
            for size in (2 * l, len(buf)):
                assert _State(buf, params).scan(start, size) == expected


def test_decode_of_marked_codeword_copies_nothing(ex_params):
    x = Word("10110100011010", 2)
    y, trace = encode(x, ex_params)
    assert trace.steps == ()
    assert np.shares_memory(decode(y, ex_params).symbols, y.symbols)


def test_decode_validates_length(ex_params):
    with pytest.raises(ValueError):
        decode(Word("01" * 7, 2), ex_params)


def test_decode_rejects_symbols_outside_alphabet():
    params = derive_params(3, 7, 2)
    with pytest.raises(ValueError):
        decode(Word([0] * 8, 2), params)  # alphabet mismatch


# ------------------------------------------------------------ input checks

EX = derive_params(2, 14, 4)
SEG = segmented.select_construction(2, 28, 8, 4).params
# entry point -> (call on one word, noun in its error, expected length)
ENTRY_POINTS = {
    "encode": (lambda w: encode(w, EX), "message", 14),
    "replay_trace": (lambda w: replay_trace(w, EX, EncodeTrace(())), "message", 14),
    "repair": (lambda w: repair(w, EX), "codeword", 15),
    "inverse_repair": (lambda w: inverse_repair(w, EX), "codeword", 15),
    "decode": (lambda w: decode(w, EX), "codeword", 15),
    "segmented.encode": (lambda w: segmented.encode(w, SEG), "message", SEG.n),
    "segmented.decode": (
        lambda w: segmented.decode(w, SEG),
        "codeword",
        SEG.n + SEG.total_redundancy,
    ),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_checks_length_and_alphabet(name):
    call, noun, length = ENTRY_POINTS[name]
    short = Word("0" * (length - 1), 2)
    with pytest.raises(ValueError, match=f"^{noun} must have {length} symbols, got {length - 1}$"):
        call(short)
    # the right length over {0, 1, 2, 3}: q = 2 parameters must not take it
    wide = Word(("0123" * length)[:length], 4)
    with pytest.raises(ValueError, match=f"^{noun} alphabet 4 does not match q=2$"):
        call(wide)


@pytest.mark.parametrize("batched", [False, True])
def test_repair_loops_stop_at_their_budget(monkeypatch, batched):
    # an excision that changes nothing leaves the same window offending,
    # so the loop runs into its budget of q**4 * (n + 1) = 240 repairs
    calls = []

    def keep_rows(state, params, index, period):
        calls.append(index)
        return state.copy()

    def keep_word(state, index, period):
        calls.append(index)

    if batched:
        monkeypatch.setattr(codec, "_excise_rows", keep_rows)
    else:
        monkeypatch.setattr(_State, "excise", keep_word)
    with pytest.raises(AssertionError, match="exceeded its safety budget"):
        if batched:
            _encode_rows(np.zeros((1, 14), dtype=np.uint8), EX)
        else:
            encode(Word("0" * 14, 2), EX)
    assert len(calls) == 2**4 * 15


# -------------------------------------------------------------- the trace


def test_replay_trace_reproduces_encode(ex_params):
    x = Word("10001010101100", 2)
    y, trace = encode(x, ex_params)
    assert replay_trace(x, ex_params, trace) == y


def test_replay_trace_rejects_tampering(ex_params):
    x = Word("10001010101100", 2)
    _, trace = encode(x, ex_params)
    forged = EncodeTrace(
        steps=(
            RepairStep(
                index=trace.steps[0].index,
                least_period=trace.steps[0].least_period,
                kernel=Word("11", 2),  # wrong kernel
            ),
        )
        + trace.steps[1:]
    )
    with pytest.raises(ValueError, match="^recorded kernel does not match the state$"):
        replay_trace(x, ex_params, forged)


def test_replay_trace_rejects_out_of_range_index(ex_params):
    x = Word("10001010101100", 2)
    _, trace = encode(x, ex_params)
    forged = EncodeTrace(
        steps=(RepairStep(index=99, least_period=2, kernel=Word("01", 2)),)
    )
    with pytest.raises(ValueError):
        replay_trace(x, ex_params, forged)


_FIRST = "the encoder repairs window 3 with period 2"


@pytest.mark.parametrize(
    "steps,found,choice",
    [
        pytest.param([(3, 3, "010")], "trace step 0", _FIRST, id="wrong period"),
        pytest.param([(0, 2, "10")], "trace step 0", _FIRST, id="clean window"),
        pytest.param([], "trace has no step 0", _FIRST, id="empty"),
        pytest.param(
            [(3, 2, "01"), (0, 3, "100"), (0, 3, "100")],
            "trace step 2",
            "the encoder stops, as no window offends",
            id="last step repeated",
        ),
        pytest.param(
            [(3, 2, "01")],
            "trace has no step 1",
            "the encoder repairs window 0 with period 3",
            id="last step missing",
        ),
    ],
)
def test_replay_trace_accepts_only_the_encoders_steps(ex_params, steps, found, choice):
    # each forged step is in range and its kernel matches the state; only
    # the encoder's own scan tells these traces from the real one
    x = Word("10001010101100", 2)
    assert [
        (s.index, s.least_period, s.kernel.to_text()) for s in encode(x, ex_params)[1].steps
    ] == [(3, 2, "01"), (0, 3, "100")]
    forged = EncodeTrace(tuple(RepairStep(i, d, Word(k, 2)) for i, d, k in steps))
    expected = f"{found}: {choice}"
    with pytest.raises(ValueError, match=f"^{expected}$"):
        replay_trace(x, ex_params, forged)


def test_encode_builds_each_distinct_step_once(monkeypatch):
    # a periodic message is excised window by window from one index, so its
    # 125 steps hold few distinct (index, kernel) pairs; the memo of one
    # encode call builds each once and hands out the same step object
    params = derive_params(2, 2000, 4)
    calls = []
    record = codec._record

    def counting(*args):
        calls.append(args)
        return record(*args)

    monkeypatch.setattr(codec, "_record", counting)
    idx = np.arange(2000)
    messages = [np.zeros(2000), idx % 2, idx % 3 == 2]
    for arr, distinct in zip(messages, (1, 1, 3)):
        calls.clear()
        steps = encode(Word(arr.astype(np.int64), 2), params)[1].steps
        assert len(steps) == 125
        first = {}
        for step in steps:
            assert first.setdefault((step.index, step.kernel), step) is step
        assert len(calls) == len(first) == distinct


# -------------------------------------------------------------- statistics


def test_step_statistics_bookkeeping():
    params = derive_params(2, 8, 2)
    words = [Word(list(t), 2) for t in all_tuples(2, 8)]
    stats = step_statistics(params, words)
    assert stats.total_words == 256
    assert sum(stats.histogram.values()) == 256
    # recompute the mean independently
    total = sum(len(encode(x, params)[1].steps) for x in words)
    assert stats.mean_steps == Fraction(total, 256)
    assert stats.max_steps == max(
        len(encode(x, params)[1].steps) for x in words
    )


def test_step_statistics_rejects_empty():
    params = derive_params(2, 8, 2)
    with pytest.raises(ValueError):
        step_statistics(params, [])


def test_long_word_round_trip():
    rng = np.random.default_rng(3)
    params = derive_params(2, 3000, 4)
    x = Word(rng.integers(0, 2, size=3000, dtype=np.int64), 2)
    y, _ = encode(x, params)
    assert first_violation(y, params.l, params.p) is None
    assert decode(y, params) == x
