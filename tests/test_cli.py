"""Tests for the command-line driver."""

import hashlib
import io
import json
import math
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
     "886e9baff2b48a92807fb0e063c65eff1137d481b91841efbef676c57767a084",
     "71499fc7940867fd006588b5755ea8809027c53ab6d36f79864e1f90b730da44"),
    (("enumerate", "--L", "10", "--m", "1", "--n", "2"),
     "7eaa6680f4b1c97399229edbd054231d45419a39f4fc8e1b8fe635f859c0796d",
     "fea731f2a580c19ff64eab3055a5d866a3ec613bd86d1bd0d5ef409540027d72"),
    (("enumerate", "--L", "10", "--m", "2", "--n", "1"),
     "29e5308154fa30c2d931934e2bd57738b74b28ad42d513c929eb8a763678c1f3",
     "589cb31a7dde61b6ccbf75586fe43ee7083dc801a748c9475abfcec1e3ab2f24"),
    (("enumerate", "--L", "4"),
     "6a71e83c804fd2128d56169130b1600b27f08a6d93f7bd5626e85b30b2b7179a",
     "41e679a78f0dcc247eadbcee36cd4c32f84bb9fb5884b5b50c15dc3418ff7a94"),
    # levels cross 9 -> 10
    (("enumerate", "--L", "8", "--m", "9", "--n", "10"),
     "97e3e3241d117502b2c0cf1882e2c4aee93df6a35690fc818aff839a5351b8b8",
     "8fe9ecccd9c03746fe7e00aa181d0f1cef9048bbfe0c5d6e1f6b9fcdb6924841"),
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


# ------------------------------------------------------- output byte pins

# SHA-256 of the whole stdout, at the default model unless the argv sets
# one; the table rows are those of the per-cell formatter that the table
# writers replaced.  The sampler
# and chain loops are pinned bitwise by their oracles, these pin the text
OUTPUT_DIGESTS = [
    (("sample", "--L", "200", "--count", "1000", "--seed", "11"),
     "d52637948464a11375323a37207771c08119fc170ad6b76e872bab7af1ccdbef",
     "1b4e4d34543a4b01d22355d666213a70dd81383ffc0eeb7ea76f69947e41b2f0"),
    (("sample", "--L", "1000", "--count", "2000", "--seed", "12345"),
     "8fbad3ea9c227022e7524fccf5346c7cdc117cd4c141530b5282571905718e27",
     "16de2a92899d9968d9fba6fd16789b9e12953206c966c732685aa1a2d71baf1b"),
    (("sample", "--L", "1000", "--count", "1000", "--seed", "7"),
     "300ab2aa381f67ad3e6d236e189bde08e8c5d08b7e6b7baa2daffe68fcea2215",
     "4dc7a0614191581256ddab190eab6a044d4b6d3a135eedb2f0c2ae978ae7d524"),
    (("chain", "--L", "100000", "--seed", "5"),
     "b7860128c0b25d76211f769e5b6b1f0267e08917b936ead8fb4ca6c5308835c4",
     "f4303d0d244706cd425c46b6eba49f1a0262013eff75f818c33176a33eec25eb"),
    (("chain", "--L", "1000"),
     "7ea499ea8843de9532e73233a125b202824a38bf0afd2f289d3a366d10e15617",
     "56378468209c9d31c5534239edcfceec5a27c582c5bd5a4b073391d2614d179d"),
    # altitudes from 30 to 130, indices past 100
    (("sample", "--q", "0.99", "--rho0", "0.9", "--L", "200", "--count", "300", "--seed", "4"),
     "ad6295b480febdce4cc81c4ec6128a024ce2452d7be354c5db045b4fe3a81f8f",
     "dcd22ebee3df2d35248bd2e3de54072c5b2ee09a1b0a9605034d13e5b2d2821b"),
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


def test_verify_normalizer_level_count_past_cap_names_the_check(capsys):
    status = main(["verify", "--q", "0.9999", "--sigma", "1", "--rho0", "0.9"])
    out, err = capsys.readouterr()
    assert status == 2 and out == ""
    assert "initial-law normalizer check at rho=0.9, q=0.9999 needs 115200 levels" in err


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
