"""Command-line driver.

Subcommands: enumerate, sample, chain, verify, locallimit, specialfn.
Every run is deterministic given its configuration and seed; the effective
configuration is echoed into the output header.  Outputs are CSV ('.'
decimal, 17 significant digits) or JSON.  Every subcommand's table goes
through ``_emit``; a CSV table is written with one %-format, built per
column from the cell types, so integer tables (``chain``, the ``sample``
index) cost no Python call per cell.

Exit status: 0 success, 1 verification check failed, 2 numeric guard
tripped (cap/convergence/overflow), 3 invalid configuration.
"""

from __future__ import annotations

import argparse
import functools
import io
import itertools
import json
import sys
from collections.abc import Sequence

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
    "m": 0, "n": 0, "count": 10, "seed": 0, "tol": 1e-10,
    "regime": "fixed-q", "format": "csv", "out": None, "config": None,
    "inject_fault": False,
}

_FLOAT_KEYS = ("q", "sigma", "rho0", "rho1", "t", "x", "y", "tol")
_INT_KEYS = ("L", "m", "n", "count", "seed")
_CHOICES = {"regime": ("fixed-q", "q-to-1"), "format": ("csv", "json")}
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


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(cfg: dict, columns: list[str], rows: list[Sequence], stream) -> None:
    if cfg["format"] == "json":
        payload = {
            "config": {k: cfg[k] for k in sorted(cfg) if k not in ("out", "config")},
            "columns": columns,
            "rows": rows,
        }
        json.dump(payload, stream, indent=1, default=str)
        stream.write("\n")
        return
    for key in sorted(cfg):
        if key in ("out", "config"):
            continue
        value = cfg[key]
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        stream.write(f"# {key}={value}\n")
    stream.write(",".join(columns) + "\n")
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
                cells[j::width] = map(_fmt, column)
            formats.append("%s")
    stream.write((",".join(formats) + "\n") * len(rows) % tuple(cells))


# ---------------------------------------------------------------- commands

def _cmd_enumerate(cfg: dict) -> tuple[list[str], list[tuple[str, float, float]], int]:
    model = WeightModel.from_qmodel(_qmodel(cfg))
    L, m, n = cfg["L"], cfg["m"], cfg["n"]
    alts = altitude_table(L, m, n)
    C = normalizing_constant(L, model, tail_tol=min(cfg["tol"], 1e-10))
    weights = table_weights(alts, model)
    probs = model.alpha(m) * model.beta(n) * weights / C
    levels = [str(h) for h in range(m + L + 1)]
    template = "\"%s\"" if cfg["format"] == "csv" else "%s"
    paths = [template % ",".join([levels[h] for h in row]) for row in alts.tolist()]
    rows = list(zip(paths, weights.tolist(), probs.tolist()))
    return ["path", "weight", "probability"], rows, 0


def _cmd_sample(cfg: dict) -> tuple[list[str], list[list], int]:
    model = WeightModel.from_qmodel(_qmodel(cfg))
    draws = sample_paths(cfg["L"], model, cfg["count"], cfg["seed"],
                         tail_tol=min(cfg["tol"], 1e-9))
    levels = [str(h) for h in range(int(draws.max()) + 1)]
    rows = [[i, ";".join([levels[h] for h in row.tolist()])] for i, row in enumerate(draws)]
    return ["index", "altitudes"], rows, 0


def _cmd_chain(cfg: dict) -> tuple[list[str], list[tuple[int, int]], int]:
    traj = simulate_chain(_qmodel(cfg), cfg["L"], cfg["seed"])
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _effective_config(args)
        columns, rows, status = _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
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
