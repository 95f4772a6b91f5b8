import json
import sys

import pytest

from lpacodes import cardinality, cli
from lpacodes.cli import main
from lpacodes.periodicity import Word

from helpers import naive_count


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_words(path, lines):
    path.write_text("\n".join(lines) + "\n")


def digit_limit():
    """Python's limit on int <-> str conversion (None before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def parse_any_digits(parse, text):
    """``parse(text)`` with the int conversion limit lifted, as any reader
    of a report with counts past 4,300 digits must do."""
    old = digit_limit()
    if old is None:
        return parse(text)
    sys.set_int_max_str_digits(0)
    try:
        return parse(text)
    finally:
        sys.set_int_max_str_digits(old)


# -------------------------------------------------------------- pipelines


def test_params_reports_window(capsys):
    code, out, _ = run(capsys, "params", "--q", "2", "--n", "14", "--p", "4")
    assert code == 0
    fields = dict(line.split("=") for line in out.strip().splitlines())
    assert fields["l"] == "8"
    assert fields["index_width"] == "3"
    assert fields["redundancy"] == "1"


def test_params_json(capsys):
    code, out, _ = run(
        capsys, "params", "--q", "2", "--n", "14", "--p", "4", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["l"] == 8
    assert data["gap"] == data["l"] - data["min_feasible_l"]


def test_encode_decode_round_trip(tmp_path, capsys):
    src = tmp_path / "in.txt"
    enc = tmp_path / "enc.txt"
    dec = tmp_path / "dec.txt"
    write_words(src, ["# two inputs", "10001010101100", "", "10110100011010"])
    code, _, _ = run(
        capsys, "encode", "--q", "2", "--n", "14", "--p", "4",
        "--in", str(src), "--out", str(enc),
    )
    assert code == 0
    assert enc.read_text().splitlines() == [
        "110011010010000",
        "101101000110101",
    ]
    code, _, _ = run(
        capsys, "decode", "--q", "2", "--n", "14", "--p", "4",
        "--in", str(enc), "--out", str(dec),
    )
    assert code == 0
    assert dec.read_text().splitlines() == [
        "10001010101100",
        "10110100011010",
    ]


def test_encode_trace_comments(tmp_path, capsys):
    src = tmp_path / "in.txt"
    enc = tmp_path / "enc.txt"
    write_words(src, ["10001010101100"])
    code, _, _ = run(
        capsys, "encode", "--q", "2", "--n", "14", "--p", "4",
        "--in", str(src), "--out", str(enc), "--trace",
    )
    assert code == 0
    lines = enc.read_text().splitlines()
    assert lines[0] == "# word=1 step=1 index=3 period=2 kernel=01"
    assert lines[1] == "# word=1 step=2 index=0 period=3 kernel=100"
    assert lines[2] == "110011010010000"
    # trace comments must be transparent to decoding
    dec = tmp_path / "dec.txt"
    code, _, _ = run(
        capsys, "decode", "--q", "2", "--n", "14", "--p", "4",
        "--in", str(enc), "--out", str(dec),
    )
    assert code == 0
    assert dec.read_text().strip() == "10001010101100"


def test_decode_marks_corrupt_words(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    out = tmp_path / "out.txt"
    write_words(src, ["111111010101010", "110011010010000"])
    code, _, _ = run(
        capsys, "decode", "--q", "2", "--n", "14", "--p", "4",
        "--in", str(src), "--out", str(out),
    )
    assert code == 3
    lines = out.read_text().splitlines()
    assert lines[0].startswith("!corrupt")
    assert lines[1] == "10001010101100"


def test_encode_stdout(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_words(src, ["10110100011010"])
    code, out, _ = run(
        capsys, "encode", "--q", "2", "--n", "14", "--p", "4",
        "--in", str(src), "--out", "-",
    )
    assert code == 0
    assert out.strip() == "101101000110101"


# ------------------------------------------------------------------ check


def test_check_reports_violations(tmp_path, capsys):
    src = tmp_path / "w.txt"
    write_words(src, ["110011010010000", "000000000000000"])
    code, out, _ = run(
        capsys, "check", "--q", "2", "--l", "8", "--p", "4", "--in", str(src)
    )
    assert code == 4
    lines = out.strip().splitlines()
    assert lines[0] == "valid"
    assert lines[1] == "invalid index=0 period=1"


def test_check_all_valid_exits_zero(tmp_path, capsys):
    src = tmp_path / "w.txt"
    write_words(src, ["110011010010000"])
    code, out, _ = run(
        capsys, "check", "--q", "2", "--l", "8", "--p", "4", "--in", str(src)
    )
    assert code == 0


def test_check_rll_mode(tmp_path, capsys):
    src = tmp_path / "w.txt"
    write_words(src, ["10100101", "10000101"])
    code, out, _ = run(
        capsys, "check", "--q", "2", "--rll", "4", "--in", str(src)
    )
    assert code == 4
    assert out.strip().splitlines() == ["valid", "invalid index=1"]


def test_check_needs_some_constraint(tmp_path, capsys):
    src = tmp_path / "w.txt"
    write_words(src, ["0101"])
    code, _, err = run(capsys, "check", "--q", "2", "--in", str(src))
    assert code == 2
    assert "need either" in err


@pytest.mark.parametrize(
    "window", [["--l", "4", "--p", "3"], ["--l", "4"], ["--p", "3"]]
)
def test_check_refuses_rll_with_window_flags(tmp_path, capsys, window):
    # --rll alone passes this word and --l 4 --p 3 alone fails it
    src = tmp_path / "w.txt"
    write_words(src, ["0000011111"])
    code, out, err = run(
        capsys, "check", "--q", "2", "--rll", "6", *window, "--in", str(src)
    )
    assert code == 2
    assert out == ""
    assert "need either" in err


# ------------------------------------------------------------------ count


def test_count_both_modes_agree(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "A", "--q", "2", "--n", "8",
        "--l", "6", "--p", "3", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["exact"] == 224
    assert data["formula"] == 224
    assert data["consistent"] is True
    assert data["lower_bound"] <= data["exact"] <= data["upper_bound"]


def test_count_lower_bound_is_never_negative(capsys):
    # q**n (1 - n / ((q-1) q**(l-p))) is -327680 here; a count is at least 0
    code, out, _ = run(
        capsys, "count", "--family", "A", "--q", "2", "--n", "18",
        "--l", "6", "--p", "3", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert (data["lower_bound"], data["exact"]) == (0, 158592)


def test_count_rll_family(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "R", "--q", "2", "--n", "3",
        "--k", "2", "--json",
    )
    assert code == 0
    assert json.loads(out)["exact"] == 5


def test_count_json_names_the_engine(capsys):
    # off the diagonal n ~ l ~ p the count runs by states, on it by
    # enumeration; zero-run words by recurrence (2**40 of them: a 5-step
    # Fibonacci number)
    for args, exact, engine in (
        (("A", "--n", "18", "--l", "6", "--p", "3"), 158592, "window-state DP"),
        (("B", "--n", "17", "--l", "12", "--p", "10"), 34816, "window-state DP"),
        (("B", "--n", "16", "--l", "16", "--p", "15"), 32768, "chunked lexicographic enumeration"),
        (("R", "--n", "40", "--k", "5"), 585029621920, "zero-run recurrence"),
    ):
        code, out, _ = run(
            capsys, "count", "--family", args[0], "--q", "2", *args[1:],
            "--mode", "brute", "--budget", str(2**40), "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert (data["exact"], data["provenance"]["exact"]) == (exact, engine)


def test_count_formula_mode_skips_enumeration(capsys):
    code, out, _ = run(
        capsys, "count", "--family", "B", "--q", "2", "--n", "20",
        "--l", "6", "--p", "2", "--mode", "formula", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["exact"] is None
    assert data["formula"] > 0


def test_count_formula_mode_never_exceeds_the_budget(capsys):
    # the zero-run identity would enumerate 2**27 words, over the default budget
    code, out, _ = run(
        capsys, "count", "--family", "B", "--q", "2", "--n", "30",
        "--l", "8", "--p", "3", "--mode", "formula", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["formula"] is None
    assert data["provenance"] == {
        "formula": "zero-run identity skipped: enumerating 2**27 "
        "words exceeds the budget of 16777216"
    }


@pytest.mark.parametrize("as_json", [False, True])
def test_count_prints_bounds_past_the_digit_limit(capsys, as_json):
    # both bounds run to about 6,000 decimal digits
    limit = digit_limit()
    code, out, _ = run(
        capsys, "count", "--family", "A", "--q", "2", "--n", "20000",
        "--l", "20", "--p", "4", "--mode", "formula",
        *(["--json"] if as_json else []),
    )
    assert code == 0
    assert digit_limit() == limit
    if as_json:
        data = parse_any_digits(json.loads, out)
    else:
        fields = dict(line.split("=", 1) for line in out.splitlines())
        data = {
            key: parse_any_digits(int, fields[key])
            for key in ("lower_bound", "upper_bound")
        }
    assert 10**4300 < data["lower_bound"] <= data["upper_bound"] < 2**20000


@pytest.mark.parametrize("as_json", [False, True])
def test_report_rendering_matches_str_and_json(capsys, as_json):
    # the bytes of f"{key}={value}" and json.dumps with the digit limit
    # lifted, on ints either side of the fast path's threshold, bools (an
    # int subclass), None, floats, strings, lists and the nested dicts
    ints = [0, 1, 10**1204, 2**4000 - 1, 2**4000 + 1, 2**20000, 3**600000, -(2**5000) - 7]
    pairs = [(f"int{i}", value) for i, value in enumerate(ints)] + [
        ("consistent", True),
        ("mean_bound_satisfied", False),
        ("exact", None),
        ("mean_steps", 0.5390625),
        ("mean_steps_exact", "69/128"),
        ("family", "A"),
        ("segment_lengths", [13, 14, 0]),
        ("provenance", {"exact": "window-state DP", "lower_bound": "existence bound, floored"}),
        ("histogram", {"0": 3, "1": 5}),
        ("candidates", {"HALF": 3, "SEPARATOR": 2}),
    ]
    limit = digit_limit()
    cli._print_report(pairs, as_json)
    assert digit_limit() == limit
    if as_json:
        expected = parse_any_digits(json.dumps, dict(pairs))
    else:
        expected = parse_any_digits(lambda ps: "\n".join(f"{k}={v}" for k, v in ps), pairs)
    assert capsys.readouterr().out == expected + "\n"


def test_count_formula_at_an_alphabet_past_the_float_range(capsys):
    # 2 q**2 overflows a float at q = 2**600; the analytic ceiling still holds
    q = 2**600
    code, out, _ = run(
        capsys, "count", "--family", "A", "--q", str(q), "--n", "30",
        "--l", "8", "--p", "3", "--mode", "formula",
    )
    assert code == 0
    fields = dict(line.split("=", 1) for line in out.splitlines())
    upper = parse_any_digits(int, fields["upper_bound"])
    assert upper == q**2 * cardinality.rll_count_upper(q, 28, 6)
    assert parse_any_digits(int, fields["lower_bound"]) <= upper


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--family", "A", "--l", "20", "--mode", "brute"],
        ["stats", "--exhaustive"],
    ],
)
def test_budget_refusal_past_the_digit_limit(capsys, argv):
    code, out, err = run(capsys, *argv, "--q", "2", "--n", "20000", "--p", "4")
    assert code == 5
    assert out == ""
    assert err == (
        "budget exceeded: enumerating 2**20000 words exceeds the budget "
        "of 16777216\n"
    )


@pytest.mark.parametrize(
    "family,q,n,l,p,label",
    [
        ("A", 2, 6, 6, 3, "Moebius inclusion-exclusion"),
        ("A", 3, 6, 6, 5, "Moebius inclusion-exclusion"),
        ("B", 2, 6, 6, 3, "whole-word power difference"),
        ("B", 3, 5, 5, 2, "whole-word power difference"),
        ("B", 2, 5, 7, 3, "no closed form for windows longer than the word"),
    ],
)
def test_count_whole_word_regimes(capsys, family, q, n, l, p, label):
    code, out, _ = run(
        capsys, "count", "--family", family, "--q", str(q), "--n", str(n),
        "--l", str(l), "--p", str(p), "--json",
    )
    assert code == 0
    data = json.loads(out)
    expected = naive_count(family, q, n, l, p)
    assert data["exact"] == expected
    assert data["formula"] == (expected if n == l else None)
    assert data["provenance"]["formula"] == label
    assert data["consistent"] is True


def test_count_reports_a_formula_off_by_one(monkeypatch, capsys):
    whole = cardinality.lpa_count_whole
    monkeypatch.setattr(
        cardinality, "lpa_count_whole", lambda q, n, p: whole(q, n, p) + 1
    )
    code, out, err = run(
        capsys, "count", "--family", "A", "--q", "2", "--n", "6",
        "--l", "6", "--p", "3",
    )
    exact = naive_count("A", 2, 6, 6, 3)
    assert code == 4
    assert "consistent=False" in out.splitlines()
    assert err == f"violation: formula value {exact + 1} != exact value {exact}\n"


def test_count_brute_budget_exit(capsys):
    code, _, err = run(
        capsys, "count", "--family", "A", "--q", "2", "--n", "32",
        "--l", "8", "--p", "3", "--mode", "brute", "--budget", "1024",
    )
    assert code == 5
    assert "budget" in err


def test_count_missing_window_args(capsys):
    code, _, err = run(capsys, "count", "--family", "A", "--q", "2", "--n", "8")
    assert code == 2


# ------------------------------------------------------------------ stats


def test_stats_exhaustive(capsys):
    code, out, _ = run(
        capsys, "stats", "--q", "2", "--n", "8", "--p", "2",
        "--exhaustive", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["words"] == 256
    assert data["mean_steps"] <= 1
    assert data["mean_bound_satisfied"] is True
    assert sum(data["histogram"].values()) == 256


def test_stats_sampled_with_string_seed(capsys):
    code, out, _ = run(
        capsys, "stats", "--q", "2", "--n", "40", "--p", "3",
        "--samples", "50", "--seed", "fixed", "--json",
    )
    assert code == 0
    first = json.loads(out)
    code, out, _ = run(
        capsys, "stats", "--q", "2", "--n", "40", "--p", "3",
        "--samples", "50", "--seed", "fixed", "--json",
    )
    assert json.loads(out) == first  # same seed, same report


def test_stats_from_file(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_words(src, ["10001010101100"])
    code, out, _ = run(
        capsys, "stats", "--q", "2", "--n", "14", "--p", "4",
        "--in", str(src), "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["max_steps"] == 2
    assert data["words"] == 1


def test_stats_empty_file_is_usage_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("# nothing here\n")
    code, _, err = run(
        capsys, "stats", "--q", "2", "--n", "14", "--p", "4", "--in", str(src)
    )
    assert code == 2


def test_stats_exhaustive_budget(capsys):
    code, _, err = run(
        capsys, "stats", "--q", "2", "--n", "30", "--p", "4",
        "--exhaustive", "--budget", "65536",
    )
    assert code == 5


# -------------------------------------------------------------- segmented


def test_segmented_plan_auto(capsys):
    code, out, _ = run(
        capsys, "segmented", "plan", "--q", "2", "--n", "28",
        "--l", "8", "--p", "4", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["variant"] == "SEPARATOR"
    assert data["k"] == 2
    assert data["total_redundancy"] == 8
    assert data["candidates"] == {"SEPARATOR": 8}


def test_segmented_plan_explicit_variant(capsys):
    code, out, _ = run(
        capsys, "segmented", "plan", "--variant", "half", "--q", "2",
        "--n", "24", "--l", "10", "--p", "2", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["variant"] == "HALF_WINDOW"
    assert data["k"] == 4
    assert data["segment_window"] == 5


PLAN_KEYS = {
    "variant", "q", "n", "l", "p", "k",
    "segment_lengths", "segment_window", "total_redundancy",
}


@pytest.mark.parametrize(
    "variant,extra", [("auto", {"candidates"}), ("sep", set())]
)
def test_segmented_plan_json_keys(capsys, variant, extra):
    code, out, _ = run(
        capsys, "segmented", "plan", "--variant", variant, "--q", "2",
        "--n", "28", "--l", "8", "--p", "4", "--json",
    )
    assert code == 0
    assert set(json.loads(out)) == PLAN_KEYS | extra


def test_segmented_plan_infeasible(capsys):
    code, _, err = run(
        capsys, "segmented", "plan", "--q", "2", "--n", "1000",
        "--l", "5", "--p", "4",
    )
    assert code == 2
    assert "error" in err


def test_segmented_encode_decode_cycle(tmp_path, capsys):
    src = tmp_path / "in.txt"
    enc = tmp_path / "enc.txt"
    dec = tmp_path / "dec.txt"
    write_words(src, ["1011010001101", "0000000000000"])
    args = ["--q", "2", "--n", "13", "--l", "6", "--p", "3",
            "--variant", "sep"]
    code, _, _ = run(
        capsys, "segmented", "encode", *args, "--in", str(src),
        "--out", str(enc),
    )
    assert code == 0
    encoded = [Word(t, 2) for t in enc.read_text().splitlines()]
    assert all(len(w) == 20 for w in encoded)
    code, _, _ = run(
        capsys, "segmented", "decode", *args, "--in", str(enc),
        "--out", str(dec),
    )
    assert code == 0
    assert dec.read_text().splitlines() == ["1011010001101", "0000000000000"]


def test_segmented_decode_corrupt(tmp_path, capsys):
    src = tmp_path / "in.txt"
    enc = tmp_path / "enc.txt"
    write_words(src, ["1011010001101"])
    args = ["--q", "2", "--n", "13", "--l", "6", "--p", "3",
            "--variant", "sep"]
    run(capsys, "segmented", "encode", *args, "--in", str(src), "--out", str(enc))
    word = list(enc.read_text().strip())
    # index 8 follows the first 8-symbol codeword: the u glue symbol
    word[8] = "1" if word[8] == "0" else "0"
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(word) + "\n")
    code, out, _ = run(
        capsys, "segmented", "decode", *args, "--in", str(bad), "--out", "-",
    )
    assert code == 3
    assert out.splitlines() == [
        "!corrupt glue joint before segment 1 is damaged at its symbol 0"
    ]


def test_segmented_decode_flags_flipped_glue_symbol(tmp_path, capsys):
    src = tmp_path / "in.txt"
    enc = tmp_path / "enc.txt"
    write_words(src, ["1011010001101"])
    args = ["--q", "2", "--n", "13", "--l", "6", "--p", "3",
            "--variant", "glue"]
    run(capsys, "segmented", "encode", *args, "--in", str(src), "--out", str(enc))
    word = list(enc.read_text().strip())
    u_at = 7 + 1  # after the first 7-symbol segment's codeword
    word[u_at] = "1" if word[u_at] == "0" else "0"
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(word) + "\n")
    code, out, _ = run(
        capsys, "segmented", "decode", *args, "--in", str(bad), "--out", "-",
    )
    assert code == 3
    assert out.startswith("!corrupt")


def test_segmented_encode_requires_infile(capsys):
    with pytest.raises(SystemExit) as info:
        main(["segmented", "encode", "--q", "2", "--n", "13", "--l", "6",
              "--p", "3"])
    assert info.value.code == 2


SEGMENTED_LAYOUT = ["--q", "2", "--n", "13", "--l", "6", "--p", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["encode", "--q", "2", "--n", "14", "--p", "4", "--in", "x", "--out", "-"],
        ["decode", "--q", "2", "--n", "14", "--p", "4", "--in", "x", "--out", "-"],
        ["check", "--q", "2", "--l", "8", "--p", "4", "--in", "x"],
        ["segmented", "encode", *SEGMENTED_LAYOUT, "--in", "x"],
        ["segmented", "decode", *SEGMENTED_LAYOUT, "--in", "x", "--out", "-"],
    ],
)
def test_json_flag_only_on_commands_that_print_reports(argv):
    # these commands print words or verdicts, never a report
    with pytest.raises(SystemExit) as info:
        main([*argv, "--json"])
    assert info.value.code == 2


@pytest.mark.parametrize("flag", ["--in", "--out"])
def test_segmented_plan_rejects_word_file_flags(flag):
    with pytest.raises(SystemExit) as info:
        main(["segmented", "plan", *SEGMENTED_LAYOUT, flag, "x"])
    assert info.value.code == 2


def test_main_runs_many_commands_in_one_process(tmp_path, capsys):
    # the parser is built once and shared: an argparse error must leave it
    # fit for the calls after it, whatever their subcommand
    src = tmp_path / "in.txt"
    write_words(src, ["10001010101100"])
    encode = ["encode", "--q", "2", "--n", "14", "--p", "4", "--in", str(src)]
    for _ in range(2):
        assert run(capsys, *encode, "--out", "-")[:2] == (0, "110011010010000\n")
        with pytest.raises(SystemExit) as info:
            main([*encode, "--out", "-", "--json"])
        assert info.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, "params", "--q", "2", "--n", "14", "--p", "4")
        assert code == 0 and "l=8" in out.splitlines()
        code, out, _ = run(capsys, "segmented", "plan", *SEGMENTED_LAYOUT, "--json")
        assert code == 0 and json.loads(out)["k"] >= 1
        code, out, _ = run(capsys, "check", "--q", "2", "--rll", "5", "--in", str(src))
        assert (code, out) == (0, "valid\n")


# ------------------------------------------------------ word-file pipeline


@pytest.mark.parametrize(
    "argv,words,out_file,expected,code",
    [
        (
            ["encode", "--q", "2", "--n", "14", "--p", "4"],
            ["10001010101100", "10110100011010", "00000000000000"],
            True,
            ["110011010010000", "101101000110101", "000000101000000"],
            0,
        ),
        (
            ["decode", "--q", "2", "--n", "14", "--p", "4", "--out", "-"],
            ["110011010010000", "111111010101010", "101101000110101"],
            False,
            [
                "10001010101100",
                "!corrupt repair records form a cycle",
                "10110100011010",
            ],
            3,
        ),
        (
            ["check", "--q", "2", "--l", "8", "--p", "4"],
            ["110011010010000", "000000000000000", "101101000110101"],
            False,
            ["valid", "invalid index=0 period=1", "valid"],
            4,
        ),
        (
            ["check", "--q", "2", "--rll", "5"],
            ["110011010010000", "000000000000000", "101101000110101"],
            False,
            ["valid", "invalid index=0", "valid"],
            4,
        ),
        (
            ["segmented", "encode", *SEGMENTED_LAYOUT, "--variant", "sep"],
            ["1011010001101", "0000000000000", "1110001110001"],
            False,
            [
                "10110101110010011011",
                "01010000110011010000",
                "11100011010001100011",
            ],
            0,
        ),
        (
            ["segmented", "decode", *SEGMENTED_LAYOUT, "--variant", "sep"],
            # the middle word has its u glue symbol (index 8) flipped
            ["10110101110010011011", "01010000010011010000", "11100011010001100011"],
            True,
            [
                "1011010001101",
                "!corrupt glue joint before segment 1 is damaged at its symbol 0",
                "1110001110001",
            ],
            3,
        ),
    ],
)
def test_word_file_commands_keep_input_order(
    tmp_path, capsys, argv, words, out_file, expected, code
):
    src = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    write_words(src, ["# comment", words[0], "", *words[1:]])
    extra = ["--out", str(out)] if out_file else []
    got_code, stdout, _ = run(capsys, *argv, "--in", str(src), *extra)
    assert got_code == code
    assert (out.read_text() if out_file else stdout).splitlines() == expected
    if out_file:
        assert stdout == ""


# ----------------------------------------------------------- input parsing


def test_malformed_word_file(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("10a01\n")
    code, _, err = run(
        capsys, "encode", "--q", "2", "--n", "5", "--p", "2",
        "--in", str(src), "--out", "-",
    )
    assert code == 2
    assert "in.txt:1" in err


def test_symbol_beyond_int64_is_usage_error(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_words(src, ["3,0,11,7,2,9", "99999999999999999999,1,0,1,0,1"])
    code, out, err = run(
        capsys, "check", "--q", "12", "--l", "6", "--p", "4", "--in", str(src)
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {src}:2: symbols must lie in [0, 11]\n"


def test_wrong_length_line(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_words(src, ["0101"])
    code, _, err = run(
        capsys, "encode", "--q", "2", "--n", "14", "--p", "4",
        "--in", str(src), "--out", "-",
    )
    assert code == 2
    assert "expected 14 symbols" in err


def test_missing_file(capsys):
    code, _, err = run(
        capsys, "encode", "--q", "2", "--n", "14", "--p", "4",
        "--in", "/nonexistent/x.txt", "--out", "-",
    )
    assert code == 2


def test_infeasible_params_exit(tmp_path, capsys):
    src = tmp_path / "in.txt"
    write_words(src, ["010"])
    code, _, err = run(
        capsys, "encode", "--q", "2", "--n", "3", "--p", "2",
        "--in", str(src), "--out", "-",
    )
    assert code == 2


def test_csv_words_for_large_alphabet(tmp_path, capsys):
    src = tmp_path / "in.txt"
    enc = tmp_path / "enc.txt"
    dec = tmp_path / "dec.txt"
    write_words(src, ["3,0,11,7,2,9,1,4,10,5"])
    args = ["--q", "12", "--n", "10", "--p", "2"]
    code, _, _ = run(
        capsys, "encode", *args, "--in", str(src), "--out", str(enc)
    )
    assert code == 0
    assert "," in enc.read_text()
    code, _, _ = run(
        capsys, "decode", *args, "--in", str(enc), "--out", str(dec)
    )
    assert code == 0
    assert dec.read_text().strip() == "3,0,11,7,2,9,1,4,10,5"
