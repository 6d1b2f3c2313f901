"""Workload menus, op construction and output checks.

A workload is a fixed menu of ops.  One round runs every op of the menu
once, in an order drawn from the seed; the seed also draws the orientation of
each (x, y) pair and the sampler and chain seeds.  Every seed therefore does
the same amount of work, so figures from different seeds are comparable, and
the op mix of every run is the same whole number of rounds.

Each op returns the program's raw output; its check runs after the round,
outside the timed region, and returns the lattice-vs-kernel relative error
for locallimit ops.  A check raises :class:`CheckFailed` on a wrong output.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable

import numpy as np

# N ladder of the convergence table.  It stops at 4e4: from N = 9e4 on the
# q -> 1 op runs ~44 s and fails with CapacityError (s-values overflow).
LOCALLIMIT_NS = (2500, 10_000, 40_000)
# (x, y) pairs per regime; the seed draws which way round each op uses.  Both
# orientations keep rel_err far inside the 0.1 bound from N = 2500 on.  The
# two pairs of a regime share max(x, y), hence the state cap and the cost, so
# each (regime, N) is one homogeneous class of op times and the median and
# tail do not sit on the edge between two classes.
LOCALLIMIT_PAIRS = {"fixed-q": ((1.0, 2.0), (2.0, 2.0)),
                    "q-to-1": ((-1.0, 1.0), (1.0, 1.0))}
LOCALLIMIT_MAX_REL_ERR = 0.1

# Kernel grid.  t stops at 0.25 (dilated 0.125 for zeta at sigma = 1): at
# dilated t <= 0.1 the Bessel-K quadrature raises ConvergenceError.
KERNEL_TS = (0.25, 0.5, 1.0, 2.0)
KERNEL_XS = (-1.0, 0.0, 1.0, 2.0)
BESSEL3D_XS = (1.0, 2.0)
SPECIALFN_POINTS = tuple((q, x, y) for q in (0.3, 0.7) for x in (0.5, 2.0) for y in (0.5, 3.0))

# (L, count).  10^4 paths run at L = 200 only: at L = 1000 that op moves 80 MB
# arrays and 28 MB of text in one 3.8 s call, and its time swung by +-10%
# between runs on the baseline machine, more than any other op.  The two
# largest ops have the same L*count, so the tail lands in one class.
SAMPLE_SIZES = ((200, 1000), (200, 10_000), (1000, 1000), (1000, 2000))
CHAIN_STEPS = 100_000
CHAIN_RUNS = 2
ENUMERATE_L = 10
ENUMERATE_ENDS = ((0, 0), (1, 2))
TRANSFER_L = 2000
TRANSFER_ARGS = ((0.9, 0.8), (0.8, 1.2), (1.1, 0.9))  # (z0, z1), t, s
TRANSFER_REL_TOL = 1e-7
# the q-model the CLI subcommands run on (the CLI defaults, passed explicitly)
MODEL_FLAGS = ["--q", "0.5", "--sigma", "0.8", "--rho0", "0.3", "--rho1", "0.25"]


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    """One benchmark operation.  ``key`` names it uniquely within the menu,
    ``kind`` groups ops of the same size for per-kind tables."""

    key: str
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], float | None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: list[Callable[[], Any]]
    rng: random.Random
    digests: dict[str, str] = field(default_factory=dict)

    def round_order(self) -> list[int]:
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        return order


def run_cli(cli: ModuleType, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _table(text: str, header: str) -> str:
    require(f"\n{header}\n" in text, f"missing header {header!r}")
    return text.split(f"\n{header}\n", 1)[1]


def _ints(body: str, width: int) -> np.ndarray:
    flat = np.fromstring(body.replace(";", " ").replace(",", " "), dtype=np.int64, sep=" ")
    require(flat.size % width == 0, "ragged integer table")
    return flat.reshape(-1, width)


def _check_walk(alts: np.ndarray, what: str) -> None:
    require(bool(np.all(alts >= 0)), f"{what}: negative altitude")
    require(bool(np.all(np.abs(np.diff(alts, axis=-1)) <= 1)), f"{what}: step outside {{-1,0,1}}")


def _same_digest(wl: Workload, key: str, text: str) -> None:
    digest = hashlib.sha256(text.encode()).hexdigest()
    require(wl.digests.setdefault(key, digest) == digest, f"{key}: output changed between repeats")


def motzkin_count(L: int, m: int, n: int) -> int:
    """Number of Motzkin paths of length L from altitude m to n (plain DP,
    independent of the package)."""
    row = {m: 1}
    for _ in range(L):
        nxt: dict[int, int] = {}
        for h, c in row.items():
            for nh in (h - 1, h, h + 1):
                if nh >= 0:
                    nxt[nh] = nxt.get(nh, 0) + c
        row = nxt
    return row.get(n, 0)


# ------------------------------------------------------------------ checks

def check_locallimit(N: int):
    def check(out, _round) -> float:
        rc, text = out
        require(rc == 0, f"exit status {rc}")
        row = _table(text, "N,t,x,y,lhs,rhs,rel_err").strip().split(",")
        require(len(row) == 7 and int(row[0]) == N, "malformed locallimit row")
        vals = [float(v) for v in row[1:]]
        require(all(math.isfinite(v) for v in vals), "non-finite locallimit value")
        lhs, rhs, rel = vals[3:]
        require(lhs > 0.0 and rhs > 0.0, "non-positive density")
        require(rel <= LOCALLIMIT_MAX_REL_ERR, f"rel_err {rel} > {LOCALLIMIT_MAX_REL_ERR}")
        return rel
    return check


def check_kernel(positive: bool):
    def check(value, _round) -> None:
        require(math.isfinite(value), "non-finite kernel value")
        require(value > 0.0 if positive else value >= 0.0, f"kernel value {value} out of range")
    return check


def check_specialfn(out, _round) -> None:
    rc, text = out
    require(rc == 0, f"exit status {rc}")
    rows = _table(text, "function,arguments,value").strip().splitlines()
    require(len(rows) == 7, "specialfn should give 7 rows")
    require(all(math.isfinite(float(r.rsplit(",", 1)[1])) for r in rows), "non-finite value")


def check_sample(wl: Workload, key: str, L: int, count: int):
    def check(out, _round) -> None:
        rc, text = out
        require(rc == 0, f"exit status {rc}")
        rows = 0
        for line in io.StringIO(_table(text, "index,altitudes")):
            index, alts = line.split(",", 1)
            require(int(index) == rows, "path indices out of order")
            alts = np.fromstring(alts, dtype=np.int64, sep=";")
            require(alts.size == L + 1, f"path {index} has {alts.size} altitudes, expected {L + 1}")
            _check_walk(alts, "sample")
            rows += 1
        require(rows == count, f"{rows} paths, expected {count}")
        _same_digest(wl, key, text)
    return check


def check_chain(wl: Workload, key: str, steps: int):
    def check(out, _round) -> None:
        rc, text = out
        require(rc == 0, f"exit status {rc}")
        table = _ints(_table(text, "k,state"), 2)
        require(table.shape[0] == steps + 1, "trajectory length")
        require(bool(np.array_equal(table[:, 0], np.arange(steps + 1))), "step indices out of order")
        _check_walk(table[:, 1], "chain")
        _same_digest(wl, key, text)
    return check


def check_verify(out, _round) -> None:
    rc, text = out
    require(rc == 0, f"exit status {rc}")
    rows = _table(text, "check,deviation,tolerance,passed").strip().splitlines()
    require(len(rows) == 12, f"{len(rows)} checks, expected 12")
    failed = [r.split(",", 1)[0] for r in rows if not r.endswith(",True")]
    require(not failed, f"failed checks: {failed}")


def check_enumerate(L: int, m: int, n: int):
    def check(out, _round) -> None:
        rc, text = out
        require(rc == 0, f"exit status {rc}")
        rows = list(csv.reader(io.StringIO(_table(text, "path,weight,probability"))))
        require(len(rows) == motzkin_count(L, m, n), "wrong number of paths")
        total = 0.0
        for path, weight, prob in rows:
            alts = np.array(path.split(","), dtype=np.int64)
            require(alts.size == L + 1 and alts[0] == m and alts[-1] == n, f"bad path {path}")
            _check_walk(alts, "enumerate")
            w, p = float(weight), float(prob)
            require(math.isfinite(w) and w > 0.0 and 0.0 < p <= 1.0, "bad weight or probability")
            total += p
        require(total <= 1.0 + 1e-12, f"probabilities sum to {total} > 1")
    return check


def check_transfer(value, _round) -> None:
    require(math.isfinite(value) and value > 0.0, f"transfer value {value}")


def check_integral(value, round_results: dict) -> None:
    require(math.isfinite(value) and value > 0.0, f"integral value {value}")
    ref = round_results.get("transfer")
    require(ref is not None, "transfer result missing from the round")
    rel = abs(value - ref) / abs(ref)
    require(rel <= TRANSFER_REL_TOL, f"integral vs transfer differ by {rel:.3e}")


# ------------------------------------------------------------------ menus

def _locallimit(mods: dict[str, ModuleType], rng: random.Random) -> tuple[list[Op], list]:
    cli = mods["cli"]
    ops = []
    for regime, pairs in LOCALLIMIT_PAIRS.items():
        flags = MODEL_FLAGS if regime == "fixed-q" else ["--sigma", "1"]
        for N in LOCALLIMIT_NS:
            for pair in pairs:
                x, y = pair if rng.random() < 0.5 else pair[::-1]
                argv = ["locallimit", "--regime", regime, "--N", str(N), "--t", "1",
                        "--x", repr(x), "--y", repr(y), *flags]
                ops.append(Op(f"{regime} N={N} x={x} y={y}", f"locallimit {regime} N={N}",
                              lambda argv=argv: run_cli(cli, argv), check_locallimit(N)))
    warmup = [lambda r=r: run_cli(cli, ["locallimit", "--regime", r, "--N", "400", "--t", "1",
                                        "--x", "1", "--y", "1"])
              for r in LOCALLIMIT_PAIRS]
    return ops, warmup


def _kernel_grid(mods: dict[str, ModuleType], rng: random.Random) -> tuple[list[Op], list]:
    k, cli = mods["kernels"], mods["cli"]
    ops = []
    for t in KERNEL_TS:
        for x in KERNEL_XS:
            for y in KERNEL_XS:
                ops.append(Op(f"zeta t={t} x={x} y={y}", f"zeta t={t}",
                              lambda t=t, x=x, y=y: k.zeta_transition(
                                  k.KernelQuery(t=t, x=x, y=y, sigma=1.0)),
                              check_kernel(False)))
                ops.append(Op(f"yakubovich t={t} x={x} y={y}", f"yakubovich t={t}",
                              lambda t=t, x=x, y=y: k.yakubovich_kernel(
                                  k.KernelQuery(t=t, x=x, y=y)),
                              check_kernel(False)))
        for x in BESSEL3D_XS:
            for y in BESSEL3D_XS:
                ops.append(Op(f"bessel3d t={t} x={x} y={y}", "bessel3d",
                              lambda t=t, x=x, y=y: k.bessel3d_transition(
                                  k.KernelQuery(t=t, x=x, y=y, sigma=0.8)),
                              check_kernel(True)))
    for x in KERNEL_XS:
        ops.append(Op(f"zeta0 x={x}", "zeta0", lambda x=x: k.zeta0_density(x, 1.0),
                      check_kernel(True)))
    for q, x, y in SPECIALFN_POINTS:
        argv = ["specialfn", "--q", repr(q), "--x", repr(x), "--y", repr(y)]
        ops.append(Op(f"specialfn q={q} x={x} y={y}", "specialfn",
                      lambda argv=argv: run_cli(cli, argv), check_specialfn))
    warmup = [lambda: k.zeta_transition(k.KernelQuery(t=1.0, x=0.0, y=1.0, sigma=1.0)),
              lambda: k.bessel3d_transition(k.KernelQuery(t=1.0, x=1.0, y=1.0)),
              lambda: k.zeta0_density(0.0, 1.0),
              lambda: run_cli(cli, ["specialfn"])]
    return ops, warmup


def _paths(mods: dict[str, ModuleType], rng: random.Random,
           wl: Workload) -> tuple[list[Op], list]:
    cli, mz, asc = mods["cli"], mods["motzkin"], mods["ascpoly"]
    ops = []
    for L, count in SAMPLE_SIZES:
        seed = rng.randrange(2**31)
        key = f"sample L={L} count={count} seed={seed}"
        argv = ["sample", "--L", str(L), "--count", str(count), "--seed", str(seed), *MODEL_FLAGS]
        ops.append(Op(key, f"sample L={L} count={count}",
                      lambda argv=argv: run_cli(cli, argv), check_sample(wl, key, L, count)))
    for _ in range(CHAIN_RUNS):
        seed = rng.randrange(2**31)
        key = f"chain L={CHAIN_STEPS} seed={seed}"
        argv = ["chain", "--L", str(CHAIN_STEPS), "--seed", str(seed), *MODEL_FLAGS]
        ops.append(Op(key, f"chain L={CHAIN_STEPS}",
                      lambda argv=argv: run_cli(cli, argv), check_chain(wl, key, CHAIN_STEPS)))
    ops.append(Op("verify", "verify", lambda: run_cli(cli, ["verify", *MODEL_FLAGS]), check_verify))
    for ends in ENUMERATE_ENDS:
        m, n = ends if rng.random() < 0.5 else ends[::-1]
        argv = ["enumerate", "--L", str(ENUMERATE_L), "--m", str(m), "--n", str(n), *MODEL_FLAGS]
        ops.append(Op(f"enumerate L={ENUMERATE_L} m={m} n={n}", f"enumerate m+n={m + n}",
                      lambda argv=argv: run_cli(cli, argv), check_enumerate(ENUMERATE_L, m, n)))
    (z0, z1), t, s = (p if rng.random() < 0.5 else p[::-1] for p in TRANSFER_ARGS)
    wm = mz.WeightModel.from_qmodel(asc.QModelParams(q=0.5, sigma=0.8, rho0=0.3, rho1=0.25))
    ops.append(Op("transfer", f"transfer L={TRANSFER_L}",
                  lambda: mz.matrix_ansatz_expectation(z0, z1, list(t), list(s), TRANSFER_L, wm),
                  check_transfer))
    ops.append(Op("integral", f"integral L={TRANSFER_L}",
                  lambda: mz.integral_expectation(z0, z1, list(t), list(s), TRANSFER_L, wm),
                  check_integral))
    warmup = [lambda: run_cli(cli, ["sample", "--L", "20", "--count", "10"]),
              lambda: run_cli(cli, ["chain", "--L", "1000"]),
              lambda: run_cli(cli, ["enumerate", "--L", "4"]),
              lambda: mz.matrix_ansatz_expectation(0.9, 0.8, [0.8], [1.1], 20, wm),
              lambda: mz.integral_expectation(0.9, 0.8, [0.8], [1.1], 20, wm)]
    return ops, warmup


WORKLOADS = ("locallimit", "kernel-grid", "paths")


def build(name: str, mods: dict[str, ModuleType], seed: int) -> Workload:
    """The workload's op menu with everything drawn from ``seed``."""
    rng = random.Random(seed)
    wl = Workload(name, [], [], rng)
    if name == "locallimit":
        wl.ops, wl.warmup = _locallimit(mods, rng)
    elif name == "kernel-grid":
        wl.ops, wl.warmup = _kernel_grid(mods, rng)
    elif name == "paths":
        wl.ops, wl.warmup = _paths(mods, rng, wl)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl
