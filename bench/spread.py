"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 bench/spread.py --workloads locallimit,paths --seeds 1-10 [--seconds 20] [--out FILE]

Runs ``bench/run.py`` once per (workload, seed), one process at a time, and
reports for each metric the median of the runs and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  Compare each spread with the metric's ``bound`` in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    report = {}
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
            rows[name] = {"median": med, "spread": (q3 - q1) / abs(med) if med else 0.0,
                          "bound": bounds.get(name), "values": vs}
            print(f"{wl:12s} {name:34s} median {med:12.6g}  spread {rows[name]['spread']:.4f}"
                  f"  bound {bounds.get(name)}")
        report[wl] = rows
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
