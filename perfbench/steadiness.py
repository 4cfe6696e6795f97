"""Repeat the benchmark over several seeds and summarise each metric's spread.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 [--workloads fig_wide,serve_wal]
        [--seconds 20] [--trace 0] [--out perfbench/STEADINESS.json]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(n=4)`` gives them) and the spread ``(Q3 - Q1) /
median``, next to the metric's bound from ``BENCHMARK.json``.  Seeds are
``1..runs``.  With ``--out`` the summary and the run context are written as
JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True,
    ).stdout.strip().splitlines()
    context = next(json.loads(line)["context"] for line in out if line.startswith('{"context"'))
    return json.loads(out[-1]), context


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary, context = {}, None
    for workload in names:
        values: dict[str, list[float]] = {}
        failed = attempted = 0
        correct = True
        for seed in range(1, args.runs + 1):
            t0 = time.perf_counter()
            result, context = run_once(workload, seed, seconds, args.trace)
            correct &= result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f}s "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in sorted(values.items())),
                  flush=True)
        rows = {}
        for name, vals in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds.get(name), "values": vals}
            print(f"  {name:24s} median {med:12.5g}  Q1 {q1:12.5g}  Q3 {q3:12.5g}  "
                  f"spread {spread:.3f}  bound {bounds.get(name)}", flush=True)
        summary[workload] = {"correct": correct, "attempted": attempted, "failed": failed,
                             "metrics": rows}
    if args.out:
        machine = {k: context[k] for k in ("cores", "python", "numpy", "numba", "machine",
                                           "repro_env")}
        Path(args.out).write_text(json.dumps(
            {"runs": args.runs, "seeds": list(range(1, args.runs + 1)), "seconds": seconds,
             "trace": args.trace, "context": machine, "workloads": summary},
            indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
