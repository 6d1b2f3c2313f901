"""Tests for the command-line driver."""

import argparse
import hashlib
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motzkinq.ascpoly import QModelParams
from motzkinq.cli import main
from motzkinq.verify import run_checks


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def data_rows(out: str) -> list[str]:
    return [l for l in out.splitlines() if l and not l.startswith("#")][1:]


# ---------------------------------------------------------------- enumerate

def test_enumerate_counts_rows(capsys):
    status, out = run_cli(capsys, "enumerate", "--L", "4", "--m", "0", "--n", "0")
    assert status == 0
    assert len(data_rows(out)) == 9


def test_enumerate_zero_length(capsys):
    status, out = run_cli(capsys, "enumerate", "--L", "0", "--m", "2", "--n", "2")
    assert status == 0
    rows = data_rows(out)
    assert len(rows) == 1
    assert rows[0].startswith('"2"')


def test_enumerate_probability_column_sums_to_block_mass(capsys):
    status, out = run_cli(capsys, "enumerate", "--L", "3", "--m", "1", "--n", "0",
                          "--q", "0.3", "--sigma", "0.6", "--rho0", "0.3", "--rho1", "0.2",
                          "--format", "json")
    assert status == 0
    payload = json.loads(out)
    total = sum(r[2] for r in payload["rows"])
    # oracle: alpha_1 beta_0 sum of weights / C via independent pieces
    from motzkinq.ascpoly import QModelParams
    from motzkinq.motzkin import (WeightModel, enumerate_paths, normalizing_constant,
                                  path_weight)
    m = QModelParams(q=0.3, sigma=0.6, rho0=0.3, rho1=0.2)
    wm = WeightModel.from_qmodel(m)
    want = wm.alpha(1) * wm.beta(0) * sum(
        path_weight(p, wm) for p in enumerate_paths(3, 1, 0)) / normalizing_constant(3, wm)
    assert total == pytest.approx(want, rel=1e-12)


def test_enumerate_guard_exit_code(capsys):
    status, _ = run_cli(capsys, "enumerate", "--L", "15")
    assert status == 2


def test_enumerate_ends_out_of_reach_give_no_rows(capsys):
    status, out = run_cli(capsys, "enumerate", "--L", "1", "--m", "0", "--n", "2")
    assert status == 0
    assert data_rows(out) == []


ENUMERATE_MODEL = ("--q", "0.5", "--sigma", "0.8", "--rho0", "0.3", "--rho1", "0.25")
# (argv, csv digest, json digest): the text of the path-by-path CLI loop
ENUMERATE_DIGESTS = [
    (("enumerate", "--L", "10", "--m", "0", "--n", "0"),
     "525839251c069aaf36f123f9aca43041dc801dac11766e7b4bf8fe73eb028c76",
     "ae76e828193e4152b74460eb69e48217ce57c99021a69eb416a88b53904bfe32"),
    (("enumerate", "--L", "10", "--m", "1", "--n", "2"),
     "9c03174928f592fbab7c7de8508041a13e5c3919506d37822ba69b403edb0e0e",
     "a57f666bf64f354fc4a7cb0cfee86b151278ac118fc0d1c0f192166436e1bb4c"),
    (("enumerate", "--L", "10", "--m", "2", "--n", "1"),
     "acdb63078716fd8733c56bb43c30fc2b37e203d3338a6adcaa2ab7438d565e2e",
     "ff51c86fa5ffdb78eeb9344455f530fe8dfe42fb3124ef64918394547574cb77"),
    (("enumerate", "--L", "4"),
     "1e4517da6fd2048b5b95f3d64b832c90ae4b0791e65cd2c966c6f0f46aafa82a",
     "f2d48f250176173f85f84ca656ab974a0fba740d334e088d9514ea6e6eb8d60c"),
    # levels cross 9 -> 10
    (("enumerate", "--L", "8", "--m", "9", "--n", "10"),
     "6f5965c18845dee094df52e544bb7f3511400aea177570afd5e9c6f802410abd",
     "afa5fc58e74acc6f845ec5528b2be5ff9ea670b003a57bfb2084bfe0f8ecd40f"),
]


@pytest.mark.parametrize("argv, csv_digest, json_digest", ENUMERATE_DIGESTS,
                         ids=[" ".join(a) for a, *_ in ENUMERATE_DIGESTS])
def test_enumerate_output_bytes_pinned(capsys, argv, csv_digest, json_digest):
    for fmt, digest in (("csv", csv_digest), ("json", json_digest)):
        status, out = run_cli(capsys, *argv, *ENUMERATE_MODEL, "--format", fmt)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# ------------------------------------------------------------------- sample

def test_sample_deterministic_bytes(capsys):
    a_status, a = run_cli(capsys, "sample", "--L", "5", "--count", "20", "--seed", "7")
    b_status, b = run_cli(capsys, "sample", "--L", "5", "--count", "20", "--seed", "7")
    assert a_status == b_status == 0
    assert a == b
    _, c = run_cli(capsys, "sample", "--L", "5", "--count", "20", "--seed", "8")
    assert a != c


def test_sample_frequencies_against_exact_probabilities(capsys):
    status, out = run_cli(capsys, "sample", "--L", "2", "--count", "20000", "--seed", "3",
                          "--q", "0", "--sigma", "0.5", "--rho0", "0.2", "--rho1", "0.2")
    assert status == 0
    counts: dict[str, int] = {}
    for row in data_rows(out):
        key = row.split(",", 1)[1]
        counts[key] = counts.get(key, 0) + 1
    from motzkinq.ascpoly import QModelParams
    from motzkinq.motzkin import (WeightModel, enumerate_paths, normalizing_constant,
                                  path_weight)
    m = QModelParams(q=0.0, sigma=0.5, rho0=0.2, rho1=0.2)
    wm = WeightModel.from_qmodel(m)
    C = normalizing_constant(2, wm)
    N = 20000
    for mm in range(6):
        for nn in range(6):
            for p in enumerate_paths(2, mm, nn):
                prob = wm.alpha(mm) * wm.beta(nn) * path_weight(p, wm) / C
                if prob < 5e-4:
                    continue
                key = ";".join(str(a) for a in p.altitudes)
                se = math.sqrt(prob * (1 - prob) / N)
                assert abs(counts.get(key, 0) / N - prob) <= 4 * se + 1e-12


# -------------------------------------------------------------------- chain

def test_chain_steps_in_range(capsys):
    status, out = run_cli(capsys, "chain", "--L", "300", "--seed", "5")
    assert status == 0
    states = [int(r.split(",")[1]) for r in data_rows(out)]
    assert len(states) == 301
    diffs = np.diff(states)
    assert np.all(np.isin(diffs, (-1, 0, 1)))
    assert min(states) >= 0


@pytest.mark.parametrize("argv, message", [
    (["sample", "--L", "-1"], "L must be nonnegative, got -1"),
    (["sample", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["chain", "--L", "-1"], "steps must be nonnegative, got -1"),
    (["chain", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["sample", "--count", "0"], "count must be positive, got 0"),
])
def test_out_of_range_size_count_or_seed_is_config_error_naming_it(capsys, argv, message):
    status = main(argv)
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert captured.err == f"configuration error: {message}\n"


def test_sample_past_any_address_space_is_numeric_guard(capsys):
    # 1001 x 10^12 int64 entries (7.1 PiB) exceed every address space, so the
    # allocation fails whatever the overcommit setting
    status = main(["sample", "--L", "1000", "--count", str(10**12)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == ("numeric guard: path table of (L+1) x count int64 entries at "
                            "L=1000, count=1000000000000 needs 8008000000000000 bytes, "
                            "more than can be allocated\n")


# ------------------------------------------------------- output byte pins

# SHA-256 of the whole stdout, at the default model unless the argv sets
# one; the table rows are those of the per-cell formatter that the table
# writers replaced.  The sampler
# and chain loops are pinned bitwise by their oracles, these pin the text
OUTPUT_DIGESTS = [
    (("sample", "--L", "200", "--count", "1000", "--seed", "11"),
     "68c0741b61cd0c0f53f773a4b9ce5dfd5ad943f6418c41b157d0c18d7650b6bd",
     "76ae41419707b2c3982b45a0e1360fb3cde7d5c499920f468a5e4b6ae0bb4eb0"),
    (("sample", "--L", "1000", "--count", "2000", "--seed", "12345"),
     "eb8336bba9cb786e51a864f5c652415831c3759eab69ea688bf85e34bbfbcf59",
     "86f61e384b976c75a16dead5723bb8827848140b09d0b71848e9dd9c720b04f9"),
    (("sample", "--L", "1000", "--count", "1000", "--seed", "7"),
     "04702dc9f6a6f7d4336ad8ed56d00a764bf15a0d56b2bd69977daef104fc9f7c",
     "6293b31df64a2db9fbb2e6653aff04e9f06d46b8479c032f8c8e4af2edb7ac88"),
    (("chain", "--L", "100000", "--seed", "5"),
     "3166865316f1b0dddb8b83c5076e1b6869dcc8d451695c77a260b1abf05ef06b",
     "1f57589e324ba09a9a4762b166a7c68660bbcf594e727a96e19c3b5b65789146"),
    (("chain", "--L", "1000"),
     "72454408690bf8558d753ea27121d09ce0dedebdf106a717c51ff97b4e515769",
     "f510e8d9dabfc5c6674f6644473104c4b35012aeb27a01010f627887a507ed1a"),
    # altitudes from 30 to 130, indices past 100
    (("sample", "--q", "0.99", "--rho0", "0.9", "--L", "200", "--count", "300", "--seed", "4"),
     "b9a6736a151257944f6dfa9fcc2d67a5fe25e468a44e201957112e6f95af4ad9",
     "c8494ee60e4cec7537241139a29ebd65096eb84e820242ee84804985beb12ea5"),
]


@pytest.mark.parametrize("argv, csv_digest, json_digest", OUTPUT_DIGESTS,
                         ids=[" ".join(a) for a, *_ in OUTPUT_DIGESTS])
def test_sample_and_chain_output_bytes_pinned(capsys, argv, csv_digest, json_digest):
    for fmt, digest in (("csv", csv_digest), ("json", json_digest)):
        status, out = run_cli(capsys, *argv, "--format", fmt)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(top=st.sampled_from([0, 9, 10, 99, 100, 999, 1000, 12345]),
       rows=st.integers(0, 40), cols=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       sep=st.sampled_from([";", ","]), numbered=st.booleans(),
       order=st.sampled_from(["C", "F"]))
@example(top=10, rows=0, cols=1, seed=0, sep=";", numbered=True, order="C")
@example(top=100, rows=7, cols=1, seed=1, sep=",", numbered=False, order="F")
def test_int_lines_matches_per_cell_writer(top, rows, cols, seed, sep, numbered, order):
    from motzkinq import cli
    from oracles import int_lines_per_cell

    table = np.random.default_rng(seed).integers(0, top + 1, (rows, cols))
    table.flat[:1] = top  # the widest value is present when there is a cell
    table = np.asarray(table, order=order)
    got = "".join(cli._int_lines(table, sep, numbered))
    assert got == int_lines_per_cell(table, sep, numbered)


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("numbered", [False, True])
def test_int_lines_at_a_block_boundary(monkeypatch, extra, numbered):
    # blocks of 3 rows of 4 cells: the table ends one row before, at and
    # one row after a block boundary, and is read from an F-ordered array
    from motzkinq import cli
    from oracles import int_lines_per_cell

    cols = 4 - numbered
    monkeypatch.setattr(cli, "_BLOCK_CELLS", 12)
    table = np.asfortranarray(np.random.default_rng(3).integers(0, 1001, (6 + extra, cols)))
    got = "".join(cli._int_lines(table, ";", numbered))
    assert got == int_lines_per_cell(table, ";", numbered)


@pytest.mark.parametrize("top", [9, 10, 99, 100, 999, 1000, 9999, 10**4, 9999999, 10**7,
                                 10**15 - 1, 10**15, 2**63 - 1])
@pytest.mark.parametrize("numbered", [False, True])
def test_int_lines_at_every_cell_size_edge(top, numbered):
    # value cells of 2, 4, 8, 16 and 32 bytes on both sides of each edge; a
    # table of more cells than top reads the texts of 0..top, a smaller one
    # the texts of its distinct values
    from motzkinq import cli
    from oracles import int_lines_per_cell

    rng = np.random.default_rng(top % 1009)
    for rows in sorted({7, 3 + min(top, 10**4) // 2}):
        table = rng.integers(0, top, (rows, 3), endpoint=True)
        table[rows // 2, 1] = top
        got = "".join(cli._int_lines(table, ";", numbered))
        assert got == int_lines_per_cell(table, ";", numbered)


@pytest.mark.parametrize("rows", [10, 11, 1000, 1001, 10000, 10001])
@pytest.mark.parametrize("top", [9, 99999])
def test_int_lines_row_numbers_across_digit_counts(rows, top):
    # the last row number has one digit more than the one before it, and
    # takes one to three value-sized cells
    from motzkinq import cli
    from oracles import int_lines_per_cell

    table = np.random.default_rng(rows).integers(0, top, (rows, 2), endpoint=True)
    assert "".join(cli._int_lines(table, ",", True)) == int_lines_per_cell(table, ",", True)


def test_int_lines_of_the_chain_trajectory():
    from motzkinq import cli
    from motzkinq.chains import simulate_chain
    from oracles import int_lines_per_cell

    model = QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25)
    table = simulate_chain(model, 100_000, 5)[:, None]
    assert "".join(cli._int_lines(table, ",", True)) == int_lines_per_cell(table, ",", True)


@pytest.mark.parametrize("top, size", [(0, 2), (9, 2), (10, 4), (999, 4), (1000, 8),
                                       (12345, 8), (0, 16), (12345, 16)])
def test_digit_cells_against_str(top, size):
    # the dense texts at every cell size, 16 bytes included, which the
    # writer reads from only for tables of more than 10^7 cells
    from motzkinq import cli

    want = "".join(str(v).rjust(size - 1, "\0") + ";" for v in range(top + 1))
    assert cli._digit_cells(top, size, ";").tobytes() == want.encode()


def _json_dump(cfg, columns, rows) -> str:
    header = {key: cfg[key] for key in sorted(cfg) if key not in ("out", "config")}
    buf = io.StringIO()
    json.dump({"config": header, "columns": columns, "rows": rows}, buf, indent=1, default=str)
    return buf.getvalue() + "\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--L", "4", "--m", "1", "--n", "2"],
    ["enumerate", "--L", "1", "--m", "0", "--n", "2"],
    ["sample", "--L", "30", "--count", "40"],
    ["chain", "--L", "500"],
    ["verify"],
    ["verify", "--inject-fault"],
    ["locallimit", "--N", "400,2500"],
    ["specialfn", "--y", "0"],
], ids=" ".join)
def test_emit_json_matches_json_dump(argv):
    from motzkinq import cli

    cfg = cli._effective_config(cli._build_parser().parse_args([*argv, "--format", "json"]))
    columns, rows, _ = cli._COMMANDS[cfg["command"]](cfg)
    buf = io.StringIO()
    cli._emit(cfg, columns, rows, buf)
    assert buf.getvalue() == _json_dump(cfg, columns, rows)


def test_emit_json_matches_json_dump_on_every_scalar_kind():
    from motzkinq import cli

    cfg = {"format": "json", "command": "x", "N": [1, 2], "out": None, "config": None}
    rows = [[1, True, 0.1, "a", None],
            [-2**70, False, float("nan"), 'q"\\\n\0\u00e9\U0001f600', np.float64(-0.0)],
            [np.int64(7), np.bool_(True), float("-inf"), "", 1e300],
            [3, 0, float("inf"), "]\0[", 5]]
    buf = io.StringIO()
    cli._emit(cfg, ["a", "b", "c", "d", "e"], rows, buf)
    assert buf.getvalue() == _json_dump(cfg, ["a", "b", "c", "d", "e"], rows)


def test_emit_mixed_column_keeps_per_cell_formats():
    from motzkinq import cli

    cfg = {"format": "csv", "command": "x", "out": None, "config": None}
    rows = [["a", 1, 0.1, 2.5], ["b", 0.1, True, 3.0], ["c", True, 7, float("inf")]]
    buf = io.StringIO()
    cli._emit(cfg, ["name", "u", "v", "w"], rows, buf)
    assert buf.getvalue().splitlines()[3:] == [
        "a,1,0.10000000000000001,2.5",
        "b,0.10000000000000001,True,3",
        "c,True,7,inf",
    ]
    buf = io.StringIO()
    cli._emit(cfg, ["name"], [], buf)
    assert buf.getvalue() == "# command=x\n# format=csv\nname\n"


def test_malloc_thresholds_left_alone_off_glibc(monkeypatch):
    from motzkinq import cli

    def no_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    def no_dlopen(*_):
        raise AssertionError("libc opened off glibc")

    monkeypatch.setattr(cli.os, "confstr", no_glibc)
    monkeypatch.setattr(cli.ctypes, "CDLL", no_dlopen)
    assert cli._fix_malloc_thresholds.__wrapped__() is None


# ------------------------------------------------------------------- verify

def test_verify_default_passes(capsys):
    status, out = run_cli(capsys, "verify", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert all(row[3] is True for row in payload["rows"])


def test_verify_normalizer_sums_the_initial_law_near_q_one(capsys):
    # check 12 sums the initial law to its own cut: 61961 levels, within
    # RECURRENCE_CAP
    status, out = run_cli(capsys, "verify", "--q", "0.9999", "--sigma", "1", "--rho0", "0.9",
                          "--format", "json")
    assert status == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 12 and all(row[3] is True for row in rows)


def test_verify_normalizer_past_level_cap_names_rho_and_q(capsys):
    status = main(["verify", "--q", "0.99995", "--sigma", "1", "--rho0", "0.9"])
    out, err = capsys.readouterr()
    assert status == 2 and out == ""
    assert "initial law at rho=0.9, q=0.99995 needs more than RECURRENCE_CAP=100000 levels" in err


@pytest.mark.parametrize("q, sigma, rho0, rho1", [(0.4, 0.7, 0.3, 0.25), (0.4, 0.75, 0.3, 0.25),
                                                   (0.9, 0.2, 0.5, 0.1)])
def test_verify_enumeration_matches_nested_loop_oracle(q, sigma, rho0, rho1):
    from motzkinq.motzkin import WeightModel
    from motzkinq.verify import _enumeration_expectation
    from oracles import enumeration_expectation_nested
    wm = WeightModel.from_qmodel(QModelParams(q=q, sigma=sigma, rho0=rho0, rho1=rho1))
    args = (wm, 0.9, 0.8, [0.8, 1.2], [1.1, 0.9], 6)
    got = _enumeration_expectation(*args, mmax=40)
    want = enumeration_expectation_nested(*args, mmax=40)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_verify_fault_injection_fails(capsys):
    status, out = run_cli(capsys, "verify", "--inject-fault", "--format", "json")
    assert status == 1
    payload = json.loads(out)
    failed = [row for row in payload["rows"] if row[3] is False]
    assert any(row[0] == "matrix-ansatz-vs-enumeration" for row in failed)


@pytest.mark.parametrize("q, sigma", [("0.998", "1"), ("0.999", "0.3")])
def test_verify_passes_as_q_approaches_one(capsys, q, sigma):
    # s_n leaves double range near n = 200 here; the normalizer check sums
    # rho^n s_n in log space, over more levels than s_n can reach
    status, out = run_cli(capsys, "verify", "--q", q, "--sigma", sigma, "--format", "json")
    assert status == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 12
    assert all(row[3] is True for row in rows)


@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.9, 0.999), sigma=st.floats(0.0, 1.0, exclude_min=True),
       rho0=st.floats(0.0, 0.9))
def test_verify_passes_for_q_near_one(q, sigma, rho0):
    rows = run_checks(QModelParams(q=q, sigma=sigma, rho0=rho0))
    assert [r.name for r in rows if not r.passed] == []


# --------------------------------------------------------------- locallimit

def test_locallimit_fixed_q_table(capsys):
    status, out = run_cli(capsys, "locallimit", "--regime", "fixed-q",
                          "--N", "400,2500", "--t", "1", "--x", "1", "--y", "1",
                          "--q", "0.5", "--sigma", "1.0")
    assert status == 0
    rows = [r.split(",") for r in data_rows(out)]
    assert [int(r[0]) for r in rows] == [400, 2500]
    assert rows[0][5] == rows[1][5]          # rhs independent of N
    assert float(rows[1][6]) < float(rows[0][6])  # error shrinks here


def test_locallimit_q_to_1_small_time(capsys):
    # dilated kernel time t / (1 + sigma) = 0.05, below the old Bessel-noise limit
    status, out = run_cli(capsys, "locallimit", "--regime", "q-to-1", "--t", "0.1",
                          "--sigma", "1", "--x", "0", "--y", "1")
    assert status == 0
    rows = [r.split(",") for r in data_rows(out)]
    assert [int(r[0]) for r in rows] == [400, 2500]
    assert float(rows[1][6]) < float(rows[0][6]) < 0.5


def test_locallimit_q_to_1_large_N(capsys):
    # start level 1919 lies past n = 928, where the s-values overflow
    status, out = run_cli(capsys, "locallimit", "--regime", "q-to-1", "--N", "90000",
                          "--t", "1", "--x", "0", "--y", "0", "--sigma", "1")
    assert status == 0
    (row,) = [r.split(",") for r in data_rows(out)]
    assert float(row[6]) < 0.01


def test_locallimit_empty_N_is_config_error(capsys):
    status, _ = run_cli(capsys, "locallimit", "--N", "")
    assert status == 3


@pytest.mark.parametrize("regime", ["fixed-q", "q-to-1"])
def test_locallimit_N_below_one_is_config_error(capsys, regime):
    status = main(["locallimit", "--regime", regime, "--N", "0"])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert "N must be positive, got 0" in captured.err


def test_locallimit_underflowing_target_is_numeric_guard(capsys):
    status = main(["locallimit", "--regime", "fixed-q", "--N", "400",
                   "--t", "0.001", "--x", "1", "--y", "3"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "t=0.001, x=1.0, y=3.0" in captured.err


# ---------------------------------------------------------------- specialfn

def test_specialfn_values(capsys):
    status, out = run_cli(capsys, "specialfn", "--q", "0.5", "--x", "1.0", "--y", "0.0")
    assert status == 0
    rows = {r.split(",")[0]: float(r.split(",")[2]) for r in data_rows(out)}
    assert rows["q_number"] == pytest.approx(1.9375)
    assert rows["bessel_k_imag"] == pytest.approx(0.42102443824070834, rel=1e-9)


# ----------------------------------------------------------- config plumbing

def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment line\nL=3\nq=0.25\nsigma=0.5\n")
    status, out = run_cli(capsys, "enumerate", "--config", str(cfgfile), "--L", "4")
    assert status == 0
    assert "# L=4" in out          # flag wins
    assert "# q=0.25" in out       # file beats default
    assert len(data_rows(out)) == 9


def test_config_file_unknown_key(tmp_path, capsys):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nope=3\n")
    status, _ = run_cli(capsys, "enumerate", "--config", str(cfgfile))
    assert status == 3


@pytest.mark.parametrize("entry", ["format=xml", "regime=q-to-2"])
def test_config_file_value_outside_the_flag_choices(tmp_path, capsys, entry):
    # a config-file value meets the same choices as its flag
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text(entry + "\n")
    status = main(["enumerate", "--config", str(cfgfile)])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert f"{entry.split('=')[0]} must be one of" in captured.err


def test_config_file_inject_fault_must_be_a_boolean(tmp_path, capsys):
    # a misspelt value used to run verify without the fault and exit 0
    from motzkinq import cli

    got = [cli._coerce("inject_fault", v) for v in ("1", "TRUE", "Yes", "0", "False", "NO")]
    assert got == [True, True, True, False, False, False]
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("inject_fault=ture\n")
    status = main(["verify", "--config", str(cfgfile)])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert "bad value for inject_fault: 'ture'" in captured.err


def test_no_tolerance_setting(tmp_path, capsys):
    # the boundary cut is one fixed rule (motzkin.TAIL_TOL), set by no flag
    # or config key
    status = main(["enumerate", "--tol", "1e-10"])
    captured = capsys.readouterr()
    assert status == 3
    assert "unrecognized arguments: --tol" in captured.err
    cfgfile = tmp_path / "tol.cfg"
    cfgfile.write_text("tol=1e-10\n")
    status = main(["enumerate", "--config", str(cfgfile)])
    captured = capsys.readouterr()
    assert status == 3
    assert captured.out == ""
    assert "unknown key 'tol'" in captured.err


def test_readme_documents_every_flag():
    # README's "Common flags" paragraph names exactly the parser's options
    from motzkinq import cli

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("Common flags:")
    documented = set(re.findall(r"--[A-Za-z][\w-]*", readme[start:readme.index("\n\n", start)]))
    (commands,) = [a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = {flag for sub in commands.choices.values() for action in sub._actions
               for flag in action.option_strings}
    assert documented == options - {"-h", "--help"}


def test_every_setting_is_read_by_a_subcommand():
    # a key of DEFAULTS that no code reads as cfg["key"] is a setting that
    # changes nothing but the echoed header
    from motzkinq import cli

    source = Path(cli.__file__).read_text(encoding="utf-8")
    unread = [key for key in cli.DEFAULTS if key != "config" and f'cfg["{key}"]' not in source]
    assert unread == []


def test_invalid_flag_value_exit_code(capsys):
    status, _ = run_cli(capsys, "enumerate", "--q", "1.5")
    assert status == 3


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    status, _ = run_cli(capsys, "enumerate", "--L", "2", "--out", str(target))
    assert status == 0
    text = target.read_text()
    assert "path,weight,probability" in text


def test_csv_float_formatting_17_digits(capsys):
    status, out = run_cli(capsys, "specialfn", "--q", "0.5", "--x", "0.5", "--y", "1.0")
    assert status == 0
    val = [r for r in data_rows(out) if r.startswith("q_gamma")][0].split(",")[2]
    assert len(val.replace(".", "").replace("-", "").lstrip("0")) >= 15


def test_parser_reuse_matches_fresh_parser(capsys):
    # the parser is built once per process; reusing it across subcommands,
    # and after a bad flag, must give what a freshly built one gives
    from motzkinq import cli

    runs = [("specialfn", "--x", "0.5"),
            ("enumerate", "--L", "3", "--format", "json"),
            ("locallimit", "--N", "400", "--t", "0.5"),
            ("enumerate", "--bogus", "1"),
            ("sample", "--L", "4", "--count", "3", "--seed", "2"),
            ("verify", "--q", "2.0"),
            ("chain", "--L", "5")]
    reused = []
    for argv in runs:
        status = cli.main(list(argv))
        captured = capsys.readouterr()
        reused.append((status, captured.out, captured.err))
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        status = cli.main(list(argv))
        captured = capsys.readouterr()
        fresh.append((status, captured.out, captured.err))
    assert reused == fresh
    assert cli._build_parser() is cli._build_parser()
    assert [r[0] for r in reused] == [0, 0, 0, 3, 0, 3, 0]
    assert "configuration error" in reused[3][2]
