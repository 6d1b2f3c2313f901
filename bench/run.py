"""motzkinq benchmark: one seeded, single-process, closed-loop workload.

    python3 bench/run.py --workload locallimit --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists):

* ``locallimit``  -- the CLI convergence table, one op per (regime, N, point);
* ``kernel-grid`` -- continuum kernels over a (t, x, y) grid plus ``specialfn``;
* ``paths``       -- CLI ``sample``/``chain``/``verify``/``enumerate`` and the
  transfer/integral pair.

One client sends the next op when the previous one returns.  A run is whole
rounds, each round every op of the workload's menu once, in an order drawn
from the seed, for about ``--seconds``.  Op times are wall times put on a
steady scale by an interleaved machine-speed probe (bench/speed.py); the raw
figures are on the ``#`` line.  Every output is checked outside the timed
region; a failed check or a raised error counts as a failed op and never
stops the run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, prints the per-layer metrics (per round) and
writes the spans to ``bench/out/``.  The last line of stdout is one JSON
object; lines before it starting with ``#`` are a human-readable record.
"""

import os

# pin BLAS/OpenMP pools to one thread before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tr  # noqa: E402
import workloads  # noqa: E402
from speed import PROBE_REF_S, SpeedClock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "motzkinq"
OUT_DIR = Path(__file__).resolve().parent / "out"

# seconds one round takes at the baseline (2-core Xeon VM, numpy 2.4, one
# thread); fixes the tail percentile, so that it does not move with the speed
NOMINAL_ROUND_S = {"locallimit": 2.5, "kernel-grid": 0.9, "paths": 4.0}
SETUP_REPS = 5
TAIL_BEYOND = 10
MODULES = ("cli", "kernels", "chains", "ascpoly", "qspecial", "motzkin", "verify", "numerics")


def machine_record() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def fresh_import() -> dict:
    for name in [m for m in sys.modules if m == "motzkinq" or m.startswith("motzkinq.")]:
        del sys.modules[name]
    importlib.import_module("motzkinq.cli")
    return {name: sys.modules[f"motzkinq.{name}"] for name in MODULES}


def setup(name: str, seed: int, clock: SpeedClock) -> tuple[dict, workloads.Workload, float, float]:
    """Import, input generation and warm-up, done SETUP_REPS times on a fresh
    import of the package.  Returns the last set-up and the median time,
    scaled and raw."""
    scaled, raw = [], []
    for _ in range(SETUP_REPS):
        clock.sample()
        start = perf_counter()
        mods = fresh_import()
        wl = workloads.build(name, mods, seed)
        for fn in wl.warmup:
            fn()
        end = perf_counter()
        clock.sample()
        raw.append(end - start)
        scaled.append(raw[-1] * clock.scale(start, end))
    return mods, wl, statistics.median(scaled), statistics.median(raw)


@dataclass
class Record:
    """Per-op outcomes of a run.  Times are speed-scaled seconds; ``trace_*``
    index the traced ops only."""

    times: dict[str, list[float]] = field(default_factory=dict)   # op kind -> ok op seconds
    raw_times: list[float] = field(default_factory=list)
    round_s: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    round_ok: dict[bool, list[int]] = field(default_factory=lambda: {False: [], True: []})
    round_p50: list[float] = field(default_factory=list)         # untraced rounds
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    rel_errs: list[float] = field(default_factory=list)          # lattice vs kernel
    bytes_out: int = 0
    trace_kinds: list[str] = field(default_factory=list)
    trace_walls: list[float] = field(default_factory=list)
    trace_scales: list[float] = field(default_factory=list)

    def ok_times(self) -> list[float]:
        return [t for ts in self.times.values() for t in ts]


def run_round(wl: workloads.Workload, rec: Record, clock: SpeedClock,
              tracer: tr.Tracer | None) -> None:
    """One pass over the menu.  CLI ops are checked as soon as they return,
    outside the timed region, so their text is freed; library ops return
    numbers and are checked after the round, where the integral meets the
    transfer value."""
    traced = tracer is not None
    numbers: dict = {}
    deferred = []
    done = []   # [op, start, end, passed]

    def settle(entry: list, out, exc: Exception | None) -> None:
        op = entry[0]
        try:
            if exc is not None:
                raise exc
            rel = op.check(out, numbers)
        except Exception as err:  # wrong output or raised error: a failed op
            rec.failures.append(f"{op.key}: {type(err).__name__}: {err}")
            return
        entry[3] = True
        if rel is not None:
            rec.rel_errs.append(rel)
        if traced and isinstance(out, tuple):
            rec.bytes_out += len(out[1])

    if traced:
        tracer.install()
    try:
        for i in wl.round_order():
            op = wl.ops[i]
            clock.maybe_sample()
            if traced:
                tracer.op = len(rec.trace_kinds)
                rec.trace_kinds.append(op.kind)
            out = exc = None
            start = perf_counter()
            try:
                out = op.run()
            except Exception as err:  # a failing op is counted, not fatal
                exc = err
            entry = [op, start, perf_counter(), False]
            done.append(entry)
            if isinstance(out, tuple):
                settle(entry, out, exc)
            else:
                numbers[op.key] = out
                deferred.append((entry, out, exc))
    finally:
        if traced:
            tracer.uninstall()
    clock.sample()
    for item in deferred:
        settle(*item)
    round_s = 0.0
    ok_walls = []
    for op, start, end, passed in done:
        rec.attempted += 1
        scale = clock.scale(start, end)
        wall = (end - start) * scale
        round_s += wall
        if traced:
            rec.trace_walls.append(wall)
            rec.trace_scales.append(scale)
        elif passed:
            rec.times.setdefault(op.kind, []).append(wall)
            rec.raw_times.append(end - start)
            ok_walls.append(wall)
    if ok_walls:
        rec.round_p50.append(statistics.median(ok_walls))
    rec.round_s[traced].append(round_s)
    rec.round_ok[traced].append(sum(entry[3] for entry in done))


def tail_pct(seconds: float, workload: str, ops_per_round: int) -> float:
    """The highest percentile with TAIL_BEYOND samples beyond it in a run of
    nominal length; fixed per workload and --seconds so that it does not move
    with the machine's or the program's speed."""
    n = max(2, round(seconds / NOMINAL_ROUND_S[workload])) * ops_per_round
    return 100.0 * max(n - TAIL_BEYOND, 1) / n


def nearest_rank(xs: list[float], pct: float) -> float:
    xs = sorted(xs)
    return xs[max(math.ceil(pct / 100.0 * len(xs)), 1) - 1]


def end_to_end(rec: Record, setup_s: float, pct: float) -> dict:
    times = rec.ok_times()
    return {
        "ops_per_s": (sum(rec.round_ok[False]) / sum(rec.round_s[False]), "1/s"),
        "op_p50_s": (statistics.median(rec.round_p50), "s"),
        "op_tail_s": (nearest_rank(times, pct), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def n_exponents(rec: Record) -> dict[str, float]:
    """Slope of log(median op time) against log N, per locallimit regime."""
    out = {}
    for regime, key in (("fixed-q", "fixed_q"), ("q-to-1", "q_to_1")):
        pts = [(N, rec.times.get(f"locallimit {regime} N={N}")) for N in workloads.LOCALLIMIT_NS]
        pts = [(N, statistics.median(ts)) for N, ts in pts if ts]
        if len(pts) >= 2:
            out[key] = float(np.polyfit(np.log([p[0] for p in pts]),
                                        np.log([p[1] for p in pts]), 1)[0])
        else:
            out[key] = 0.0
    return out


def per_layer(tracer: tr.Tracer, rec: Record, rounds: int) -> dict:
    tot = tr.layer_totals(tracer.spans, tr.durations(tracer.spans, rec.trace_scales))

    def g(layer: str, what: str) -> float:
        return tot[layer][what] / rounds if layer in tot else 0.0

    def ratio(num: float, den: float, scale: float) -> float:
        return scale * num / den if den else 0.0

    state_steps, regrowths = tr.chain_counts(tracer.spans)
    step_s = g("kernels.local_limit", "self_s")
    sample_s, path_steps = g("motzkin.sample", "s"), g("motzkin.sample", "work")
    grid_s, orders = g("qspecial.bessel_grid", "s"), g("qspecial.bessel_grid", "work")
    exps = n_exponents(rec)
    m = {
        "chains.step.s": (step_s, "s"),
        "chains.step.state_steps": (state_steps / rounds, "count"),
        "chains.step.ns_per_state_step": (ratio(step_s, state_steps / rounds, 1e9), "ns"),
        "chains.cap_regrowths": (regrowths / rounds, "count"),
        "chains.transition_arrays.calls": (g("chains.transition_arrays", "calls"), "count"),
        "chains.transition_arrays.s": (g("chains.transition_arrays", "s"), "s"),
        "chains.transition_arrays.states": (g("chains.transition_arrays", "work"), "count"),
        "chains.simulate.s": (g("chains.simulate", "s"), "s"),
        "chains.simulate.steps": (g("chains.simulate", "work"), "count"),
        "ascpoly.s_values.calls": (g("ascpoly.s_values", "calls"), "count"),
        "ascpoly.s_values.s": (g("ascpoly.s_values", "s"), "s"),
        "ascpoly.s_values.levels": (g("ascpoly.s_values", "work"), "count"),
        "ascpoly.nu_integrate.calls": (g("ascpoly.nu_integrate", "calls"), "count"),
        "ascpoly.nu_integrate.s": (g("ascpoly.nu_integrate", "s"), "s"),
        "ascpoly.poly_table.calls": (g("ascpoly.poly_table", "calls"), "count"),
        "ascpoly.poly_table.s": (g("ascpoly.poly_table", "s"), "s"),
        "ascpoly.poly_table.entries": (g("ascpoly.poly_table", "work"), "count"),
        "qspecial.bessel_grid.calls": (g("qspecial.bessel_grid", "calls"), "count"),
        "qspecial.bessel_grid.s": (grid_s, "s"),
        "qspecial.bessel_grid.orders": (orders, "count"),
        "qspecial.bessel_grid.us_per_order": (ratio(grid_s, orders, 1e6), "us"),
        "qspecial.bessel_k.calls": (g("qspecial.bessel_k", "calls"), "count"),
        "qspecial.bessel_k.s": (g("qspecial.bessel_k", "s"), "s"),
        "qspecial.qpoch.calls": (g("qspecial.qpoch", "calls"), "count"),
        "qspecial.qpoch.s": (g("qspecial.qpoch", "s"), "s"),
        "kernels.yakubovich.calls": (g("kernels.yakubovich", "calls"), "count"),
        "kernels.yakubovich.s": (g("kernels.yakubovich", "s"), "s"),
        "kernels.zeta.s": (g("kernels.zeta", "s"), "s"),
        "kernels.local_limit.s": (g("kernels.local_limit", "s"), "s"),
        "kernels.local_limit.max_rel_err": (max(rec.rel_errs, default=0.0), "1"),
        "kernels.local_limit.n_exp_fixed_q": (exps["fixed_q"], "1"),
        "kernels.local_limit.n_exp_q_to_1": (exps["q_to_1"], "1"),
        "motzkin.sample.s": (sample_s, "s"),
        "motzkin.sample.path_steps": (path_steps, "count"),
        "motzkin.sample.ns_per_path_step": (ratio(sample_s, path_steps, 1e9), "ns"),
        "motzkin.transfer.calls": (g("motzkin.transfer", "calls"), "count"),
        "motzkin.transfer.s": (g("motzkin.transfer", "s"), "s"),
        "motzkin.integral.s": (g("motzkin.integral", "s"), "s"),
        "motzkin.enumerate.s": (g("motzkin.enumerate", "s"), "s"),
        "motzkin.enumerate.paths": (g("motzkin.enumerate", "work"), "count"),
        "verify.run_checks.s": (g("verify.run_checks", "s"), "s"),
        "cli.main.s": (g("cli.main", "s"), "s"),
        "cli.self_s": (g("cli.main", "self_s"), "s"),
        "cli.bytes_out": (rec.bytes_out / rounds, "B"),
        "trace.overhead_s": (statistics.median(rec.round_s[True])
                             - statistics.median(rec.round_s[False]), "s"),
    }
    return m


def write_trace(path: Path, tracer: tr.Tracer, rec: Record, header: dict, metrics: dict,
                rounds: int) -> tuple[dict, list]:
    """Write spans and self-time tables; return the top self-time layer per
    op kind and the workload's layers ranked by self seconds per round."""
    dur = tr.durations(tracer.spans, rec.trace_scales)
    by_kind = tr.self_by_op_kind(tracer.spans, dur, rec.trace_kinds, rec.trace_walls)
    top = {kind: max(layers, key=layers.get) for kind, layers in by_kind.items()}
    overall: dict[str, float] = {}
    for layers in by_kind.values():
        for layer, s in layers.items():
            overall[layer] = overall.get(layer, 0.0) + s / rounds
    ranked = sorted(overall.items(), key=lambda kv: -kv[1])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**header, "metrics": metrics, "self_s_per_round": dict(ranked),
                   "top_self_layer": top, "self_s_by_op_kind": by_kind,
                   "op_fields": ["kind", "scaled_s", "scale"],
                   "ops": list(zip(rec.trace_kinds, rec.trace_walls, rec.trace_scales)),
                   "span_fields": ["layer", "start", "end", "parent", "op", "work"],
                   "spans": tracer.spans}, fh)
    return top, ranked


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"motzkinq sources not found at {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))

    machine = machine_record()
    clock = SpeedClock()
    mods, wl, setup_s, setup_raw = setup(args.workload, args.seed, clock)
    rec = Record()
    header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "ops_per_round": len(wl.ops), "probe_ref_s": PROBE_REF_S}
    print("# machine " + json.dumps(machine))
    tracer = tr.Tracer(mods) if args.trace else None
    deadline = perf_counter() + args.seconds
    steps: list[float] = []   # wall seconds of each round, or pair of rounds when tracing
    while len(steps) < 2 or perf_counter() + statistics.median(steps) <= deadline:
        start = perf_counter()
        pair = (None, tracer) if len(steps) % 2 == 0 else (tracer, None)  # alternate first side
        for side in (pair if tracer else (None,)):
            run_round(wl, rec, clock, side)
        steps.append(perf_counter() - start)
    summary = {**header, "rounds": len(rec.round_s[False]),
               "fail_frac": len(rec.failures) / rec.attempted}
    if tracer:
        rounds = len(rec.round_s[True])
        metrics = per_layer(tracer, rec, rounds)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        top, ranked = write_trace(out, tracer, rec, {**summary, "machine": machine},
                                  {k: v[0] for k, v in metrics.items()}, rounds)
        print("# run " + json.dumps(summary))
        print(f"# spans {len(tracer.spans)} written to {out.relative_to(ROOT)}")
        print("# self s per round " + json.dumps({k: round(v, 4) for k, v in ranked[:6]}))
        for kind, layer in sorted(top.items()):
            print(f"# top self-time layer  {kind}: {layer}")
    else:
        pct = tail_pct(args.seconds, args.workload, len(wl.ops))
        metrics = end_to_end(rec, setup_s, pct)
        raw = rec.raw_times
        summary.update(
            samples=len(raw), tail_pct=round(pct, 2),
            speed_scale=sum(rec.ok_times()) / sum(raw),
            raw={"op_p50_s": statistics.median(raw), "op_tail_s": nearest_rank(raw, pct),
                 "setup_s": setup_raw},
            p50_s_by_kind={k: statistics.median(v) for k, v in sorted(rec.times.items())})
        if args.workload == "locallimit":
            summary["max_rel_err"] = max(rec.rel_errs, default=float("nan"))
        print("# run " + json.dumps(summary))
    for msg in rec.failures[:20]:
        print(f"# FAILED {msg}", file=sys.stderr)
    print(json.dumps({
        "correct": not rec.failures,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
