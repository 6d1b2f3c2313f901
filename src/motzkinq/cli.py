"""Command-line driver.

Subcommands: enumerate, sample, chain, verify, locallimit, specialfn.
Every run is deterministic given its configuration and seed; the effective
configuration is echoed into the output header.  Outputs are CSV ('.'
decimal, 17 significant digits) or JSON.  Every subcommand's table goes
through ``_emit``, which writes a CSV table with one %-format built per
column from the cell types, or the bytes of ``json.dump(indent=1)`` with
each column's cells encoded in one call of the C encoder.  The integer
tables (``sample``'s paths, ``chain``'s trajectory and ``enumerate``'s path
column) are turned into text by ``_int_lines`` alone, which gathers each
cell as one scalar from a table of digit texts as wide as its column needs
and costs no Python call per cell.

Exit status: 0 success, 1 verification check failed, 2 numeric guard
tripped (cap/convergence/overflow), 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import io
import itertools
import json
import os
import sys
from collections.abc import Iterator, Sequence

import numpy as np

from .ascpoly import QModelParams
from .chains import simulate_chain
from .errors import CapacityError, ConvergenceError
from .kernels import error_table
from .motzkin import (
    WeightModel,
    altitude_table,
    normalizing_constant,
    sample_paths,
    table_weights,
)
from .qspecial import (
    bessel_k_imag,
    gamma_abs_imag_sq,
    q_gamma,
    q_number,
    qpoch_infinite,
    theta1,
    theta4,
)
from .verify import run_checks

__all__ = ["main"]

DEFAULTS: dict = {
    "q": 0.5, "sigma": 0.8, "rho0": 0.3, "rho1": 0.25,
    "L": 6, "N": [400, 2500], "t": 1.0, "x": 1.0, "y": 1.0,
    "m": 0, "n": 0, "count": 10, "seed": 0,
    "regime": "fixed-q", "format": "csv", "out": None, "config": None,
    "inject_fault": False,
}

_FLOAT_KEYS = ("q", "sigma", "rho0", "rho1", "t", "x", "y")
_INT_KEYS = ("L", "m", "n", "count", "seed")
_CHOICES = {"regime": ("fixed-q", "q-to-1"), "format": ("csv", "json")}
# cells per block of _int_lines
_BLOCK_CELLS = 1 << 16
_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2 by default; remap to 3
        raise ConfigError(message)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    p = _Parser(prog="motzkinq", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("enumerate", "list all paths of a given length and endpoints with weights"),
        ("sample", "draw exact path samples"),
        ("chain", "simulate the boundary chain"),
        ("verify", "run the cross-identity check suite"),
        ("locallimit", "lattice-vs-kernel error table"),
        ("specialfn", "evaluate the special-function layer"),
    ]:
        sp = sub.add_parser(name, help=desc)
        for key in _FLOAT_KEYS:
            sp.add_argument(f"--{key}", type=float, default=None)
        for key in _INT_KEYS:
            sp.add_argument(f"--{key}", type=int, default=None)
        sp.add_argument("--N", type=str, default=None,
                        help="comma-separated list, e.g. 400,2500,10000")
        for key, choices in _CHOICES.items():
            sp.add_argument(f"--{key}", choices=choices, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--config", type=str, default=None,
                        help="key=value file; flags override file entries")
        if name == "verify":
            sp.add_argument("--inject-fault", dest="inject_fault",
                            action="store_true", default=None,
                            help="testing aid: corrupt one side of a cross-check")
    return p


def _parse_config_file(path: str) -> dict:
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (tok.strip() for tok in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in _CHOICES and value not in _CHOICES[key]:
                raise ConfigError(f"{path}:{lineno}: {key} must be one of "
                                  f"{', '.join(_CHOICES[key])}, got {value!r}")
            out[key] = value
    return out


def _coerce(key: str, value):
    if isinstance(value, str):
        try:
            if key in _INT_KEYS:
                return int(value)
            if key in _FLOAT_KEYS:
                return float(value)
            if key == "N":
                return [int(tok) for tok in value.split(",") if tok.strip()]
            if key == "inject_fault":
                return _BOOLS[value.lower()]
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {value!r}") from exc
    return value


def _effective_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, value in _parse_config_file(args.config).items():
            cfg[key] = _coerce(key, value)
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = _coerce(key, flag)
    cfg["command"] = args.command
    return cfg


def _qmodel(cfg: dict) -> QModelParams:
    try:
        return QModelParams(q=cfg["q"], sigma=cfg["sigma"],
                            rho0=cfg["rho0"], rho1=cfg["rho1"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _digit_cells(top: int, size: int, end: str) -> np.ndarray:
    """The text of 0..top as a (top + 1, size) uint8 table: row v holds the
    decimal digits of v right-aligned behind NUL pads, then the character
    end.  Row d*10**j + r, for r < 10**j, is row r zero-padded with the
    digit d in front, so each power of ten copies the rows below it in
    blocks; the leading zeros are blanked at the end."""
    width = len(str(top))
    cells = np.zeros((top + 1, size), dtype=np.uint8)
    cells[:, -1 - width:-1] = ord("0")
    cells[:, -1] = ord(end)
    cells[:10, -2] += np.arange(min(10, top + 1), dtype=np.uint8)
    for j in range(1, width):
        run = 10 ** j
        for d in range(1, min(10, top // run + 1)):
            block = cells[d * run:(d + 1) * run]
            block[...] = cells[:len(block)]
            block[:, -2 - j] += d
    for j in range(1, width):
        cells[:10 ** j, -2 - j] = 0  # no leading zeros
    return cells


def _int_lines(table: np.ndarray, sep: str, numbered: bool = False) -> Iterator[str]:
    """Text of a nonnegative int table, one line per row: its cells in
    decimal joined by the one-character sep, after the row number and a
    comma when numbered.  Yielded one block of about _BLOCK_CELLS cells at
    a time, so no copy of the whole text is made here.

    Every value cell is its digits and separator right-aligned behind NUL
    pads in 2, 4, 8 or, past 7 digits, 16 or more bytes, as few as the
    table's largest value needs, so one ``np.take`` gathers each cell as one
    scalar from a table of texts: of 0..max, or of the distinct values when
    that is the shorter list.  The row number and its comma take as many
    such scalars as the last row number needs, from texts of 0..rows - 1
    appended to the same table.  One ``bytes.translate`` per block drops the
    pads.  Each block is copied out of the table (of any memory order) on
    its own.
    """
    rows, cols = table.shape
    if rows == 0:
        return
    top = int(table.max(initial=0))
    size = 1 << len(str(top)).bit_length()  # the digits and sep fit in size bytes
    kind = np.dtype(f"u{size}") if size <= 8 else np.dtype(f"V{size}")
    if top < table.size:
        values = _digit_cells(top, size, sep).view(kind)[:, 0]
    else:  # a text per value up to top would outgrow the table: one per distinct value
        distinct, index = np.unique(table, return_inverse=True)
        table = index.reshape(rows, cols)
        values = np.frombuffer("".join([str(v).rjust(size - 1, "\0") + sep
                                        for v in distinct.tolist()]).encode(), dtype=kind)
    lead, first = 0, len(values)
    if numbered:  # row r's number is entries first + r*lead .. first + (r+1)*lead - 1
        lead = -(-(len(str(rows - 1)) + 1) // size)
        numbers = _digit_cells(rows - 1, lead * size, ",").view(kind).ravel()
        values = np.concatenate([values, numbers])
    block = max(1, min(rows, _BLOCK_CELLS // (lead + cols)))
    index = np.empty((block, lead + cols), dtype=np.intp)
    text = np.empty((block, lead + cols), dtype=kind)
    for start in range(0, rows, block):
        stop = min(start + block, rows)
        idx, out = index[:stop - start], text[:stop - start]
        if numbered:
            idx[:, :lead] = np.arange(first + start * lead, first + stop * lead).reshape(-1, lead)
        idx[:, lead:] = table[start:stop]
        # every index is an entry of values, so "clip" only skips take's bounds check
        np.take(values, idx, out=out, mode="clip")
        out.view(np.uint8)[:, -1] = ord("\n")
        yield out.tobytes().translate(None, b"\0").decode("ascii")


def _emit(cfg: dict, columns: list[str], rows: list[Sequence] | Iterator[str],
          stream) -> None:
    header = {key: cfg[key] for key in sorted(cfg) if key not in ("out", "config")}
    if cfg["format"] == "json":
        # the text of json.dump(..., indent=1, default=str) without its
        # pure-Python encoder: a column of plain ints is written as it is,
        # any other column of scalar cells goes through one call of the C
        # encoder, NUL-separated (a NUL in a string is escaped), and one
        # %-format lays the cells out as the indented rows
        text = json.dumps({"config": header, "columns": columns, "rows": []},
                          indent=1, default=str)
        if rows:
            width = len(columns)
            cells = list(itertools.chain.from_iterable(rows))
            for j in range(width):
                column = cells[j::width]
                if set(map(type, column)) != {int}:
                    cells[j::width] = json.dumps(column, separators=("\0", ":"),
                                                 default=str)[1:-1].split("\0")
            row = "\n  [" + ",".join(["\n   %s"] * width) + "\n  ]"
            text = text[:-len("]\n}")] + ",".join([row] * len(rows)) % tuple(cells) + "\n ]\n}"
        stream.write(text + "\n")
        return
    for key, value in header.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        stream.write(f"# {key}={value}\n")
    stream.write(",".join(columns) + "\n")
    if not isinstance(rows, list):  # the text blocks of _int_lines
        stream.writelines(rows)
        return
    # one %-format for the whole table: each column gets "%.17g" when all its
    # cells are floats, else "%s"; a column mixing floats with other cells
    # is turned into strings cell by cell first
    width = len(columns)
    cells = list(itertools.chain.from_iterable(rows))
    formats = []
    for j in range(width):
        column = cells[j::width]
        floats = [issubclass(kind, float) for kind in set(map(type, column))]
        if all(floats):
            formats.append("%.17g")
        else:
            if any(floats):
                cells[j::width] = [f"{v:.17g}" if isinstance(v, float) else str(v)
                                   for v in column]
            formats.append("%s")
    stream.write((",".join(formats) + "\n") * len(rows) % tuple(cells))


# ---------------------------------------------------------------- commands

def _cmd_enumerate(cfg: dict) -> tuple[list[str], list[tuple[str, float, float]], int]:
    model = WeightModel.from_qmodel(_qmodel(cfg))
    L, m, n = cfg["L"], cfg["m"], cfg["n"]
    alts = altitude_table(L, m, n)
    C = normalizing_constant(L, model)
    weights = table_weights(alts, model)
    probs = model.alpha(m) * model.beta(n) * weights / C
    paths = "".join(_int_lines(alts, ",")).splitlines()
    if cfg["format"] == "csv":
        paths = [f'"{path}"' for path in paths]
    rows = list(zip(paths, weights.tolist(), probs.tolist()))
    return ["path", "weight", "probability"], rows, 0


def _cmd_sample(cfg: dict) -> tuple[list[str], list[list] | Iterator[str], int]:
    model = WeightModel.from_qmodel(_qmodel(cfg))
    draws = sample_paths(cfg["L"], model, cfg["count"], cfg["seed"])
    if cfg["format"] == "csv":
        return ["index", "altitudes"], _int_lines(draws, ";", numbered=True), 0
    paths = "".join(_int_lines(draws, ";")).splitlines()
    rows = [[i, path] for i, path in enumerate(paths)]
    return ["index", "altitudes"], rows, 0


def _cmd_chain(cfg: dict) -> tuple[list[str], list[tuple[int, int]] | Iterator[str], int]:
    traj = simulate_chain(_qmodel(cfg), cfg["L"], cfg["seed"])
    if cfg["format"] == "csv":
        return ["k", "state"], _int_lines(traj[:, None], ",", numbered=True), 0
    return ["k", "state"], list(enumerate(traj.tolist())), 0


def _cmd_verify(cfg: dict) -> tuple[list[str], list[list], int]:
    results = run_checks(_qmodel(cfg), inject_fault=bool(cfg["inject_fault"]))
    rows = [[r.name, r.deviation, r.tolerance, r.passed] for r in results]
    status = 0 if all(r.passed for r in results) else 1
    return ["check", "deviation", "tolerance", "passed"], rows, status


def _cmd_locallimit(cfg: dict) -> tuple[list[str], list[list], int]:
    if not cfg["N"]:
        raise ConfigError("locallimit needs a nonempty N list")
    model = _qmodel(cfg) if cfg["regime"] == "fixed-q" else None
    table = error_table(cfg["regime"], cfg["N"], cfg["t"], cfg["x"], cfg["y"],
                        model=model, sigma=cfg["sigma"])
    rows = [[r["N"], r["t"], r["x"], r["y"], r["lhs"], r["rhs"], r["rel_err"]]
            for r in table]
    return ["N", "t", "x", "y", "lhs", "rhs", "rel_err"], rows, 0


def _cmd_specialfn(cfg: dict) -> tuple[list[str], list[list], int]:
    # x: evaluation point / Bessel argument; y: imaginary order u; t: tau = t*i
    q, x, u, t = cfg["q"], cfg["x"], cfg["y"], cfg["t"]
    if x <= 0:
        raise ConfigError("specialfn needs x > 0 (Bessel argument / q-Gamma point)")
    ug = u if u != 0.0 else 1.0  # |Gamma(iu)|^2 has a pole at 0
    rows = [
        ["q_number", f"n=5;q={q}", q_number(5, q)],
        ["qpoch_infinite", f"a={x};q={q}", qpoch_infinite(x, q)],
        ["q_gamma", f"z={x};q={q}", q_gamma(x, q)],
        ["gamma_abs_imag_sq", f"u={ug}", gamma_abs_imag_sq(ug)],
        ["bessel_k_imag", f"u={u};x={x}", bessel_k_imag(u, x)],
        ["theta1", f"v=0.3;tau={t}i", abs(theta1(0.3, complex(0, t)))],
        ["theta4", f"v=0.3;tau={t}i", abs(theta4(0.3, complex(0, t)))],
    ]
    return ["function", "arguments", "value"], rows, 0


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "sample": _cmd_sample,
    "chain": _cmd_chain,
    "verify": _cmd_verify,
    "locallimit": _cmd_locallimit,
    "specialfn": _cmd_specialfn,
}


@functools.cache
def _fix_malloc_thresholds() -> None:
    """Keep every freed block under 32 MiB in glibc's heap, untrimmed.

    By default glibc raises its mmap threshold to the size of each mapped
    block it frees, so whether a later table of a few MB lands in the heap
    or in a fresh mapping depends on which commands ran before.  In a
    process that runs many commands the peak resident size then moved by
    10 MB with their order alone; with the thresholds fixed it is the heap's
    high-water mark.  A no-op off glibc.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, glibc's ceiling for it
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _fix_malloc_thresholds()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _effective_config(args)
        columns, rows, status = _COMMANDS[args.command](cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except (CapacityError, ConvergenceError, OverflowError, ArithmeticError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 2
    buf = io.StringIO()
    _emit(cfg, columns, rows, buf)
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())
    return status


if __name__ == "__main__":
    sys.exit(main())
