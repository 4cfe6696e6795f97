"""Repository benchmark: four workloads, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload fig_wide --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no tracing;
``--trace 1`` prints the per-layer metrics from a traced run (see
``perfbench/README.md``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; earlier
lines carry the run context and any output-check problems.  Inputs are a
pure function of ``--seed``.  Work files go under ``.perfbench/`` in the
current directory and are removed at the end.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("fig_wide", "fig_narrow", "replay_zipf", "serve_wal")

#: (metric, unit, (span, field of its summary) or None) per layer.  ``_s``
#: metrics are self times per pass; a ``None`` source is filled by the
#: workload (``extra``) or is the tracing overhead.
LAYER_SOURCES = (
    ("sampling.alias_draw_s", "s", ("sampling.alias_draw", "self_s")),
    ("sampling.draws", "count", ("sampling.alias_draw", "count")),
    ("sampling.alias_build_s", "s", ("sampling.alias_build", "self_s")),
    ("sampling.seed_spawn_s", "s", ("sampling.seed_spawn", "self_s")),
    ("sampling.seed_spawn_calls", "count", ("sampling.seed_spawn", "calls")),
    ("core.wavefront_s", "s", ("core.wavefront", "self_s")),
    ("core.wavefront_calls", "count", ("core.wavefront", "calls")),
    ("core.perball_s", "s", ("core.perball", "self_s")),
    ("core.perball_calls", "count", ("core.perball", "calls")),
    ("core.driver_self_s", "s", ("core.driver", "self_s")),
    ("analysis.reduce_s", "s", ("analysis.reduce", "self_s")),
    ("runtime.executor_self_s", "s", ("runtime.executor", "self_s")),
    ("io.checkpoint_s", "s", ("io.checkpoint", "self_s")),
    ("io.checkpoints", "count", ("io.checkpoint", "calls")),
    ("io.store_put_s", "s", ("io.store_put", "self_s")),
    ("service.allocate_s", "s", ("service.allocate", "self_s")),
    ("service.place_s", "s", ("service.place", "self_s")),
    ("p2p.hash_s", "s", ("p2p.hash", "self_s")),
    ("p2p.lookup_s", "s", ("p2p.lookup", "self_s")),
    ("service.churn_s", "s", ("service.churn", "self_s")),
    ("service.churn_ops", "count", ("service.churn", "calls")),
    ("service.view_refreshes", "count", ("service.view_refresh", "calls")),
    ("service.wal_append_s", "s", ("service.wal_append", "self_s")),
    ("service.wal_fsync_s", "s", ("service.wal_fsync", "self_s")),
    ("service.fsyncs", "count", ("service.wal_fsync", "calls")),
    ("service.records_per_fsync", "ratio", None),
    ("service.wire_ms", "ms", None),
    ("loadgen.late_p99_ms", "ms", None),
    ("loadgen.backlog_max", "count", None),
    ("trace.overhead", "ratio", None),
)
PER_LAYER = tuple((name, unit) for name, unit, _ in LAYER_SOURCES)

SETUP_REPEATS = {"fig_wide": 5, "fig_narrow": 5, "replay_zipf": 5, "serve_wal": 5}


def kernel_tier(rows) -> str:
    """The ensemble kernel tier dispatch chose, as the traced calls show."""
    used = [tier for tier, span in (("compiled", "core.compiled"),
                                    ("wavefront", "core.wavefront"),
                                    ("per-ball", "core.perball"))
            if any(row.get(span, {}).get("calls", 0) for row in rows)]
    return "+".join(used) or "none"


def layer_metrics(out: dict) -> dict:
    """Per-layer metrics: span summaries averaged over the traced passes."""
    metrics = {}
    for name, unit, source in LAYER_SOURCES:
        if name in out.get("extra", {}):
            value = out["extra"][name]
        elif source is not None:
            span, field = source
            value = statistics.fmean(row.get(span, {}).get(field, 0) for row in out["layers"])
        elif name == "trace.overhead":
            value = out["overhead"]
        else:
            value = 0.0
        metrics[name] = {"value": float(value), "unit": unit}
    return metrics


def setup_probe(workload: str, seed: int, workdir: Path) -> float:
    """Import plus input set-up in this fresh process, rescaled to nominal
    speed by reference runs right after."""
    from common import SpeedReference

    if workload in ("fig_wide", "fig_narrow"):
        import figures

        figures.setup(workload, seed)
        from repro.io.store import ResultStore

        ResultStore(workdir / "store")
    else:
        import replay

        replay.new_service(replay.setup(seed), seed)
    took = time.perf_counter() - _T_START
    return took * SpeedReference().factor_now()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 *, sizes: dict | None = None, setup_repeats: int | None = None,
                 corrupt=None) -> dict:
    """Run one workload; *sizes*, *setup_repeats* and *corrupt* are for the
    self-test (smaller inputs, fewer set-up probes, a damaged output)."""
    sizes = sizes or {}
    repeats = setup_repeats or SETUP_REPEATS[workload]
    if workload == "serve_wal":
        import serve

        out = serve.run(seed, seconds, trace, workdir, corrupt=corrupt)
        if not trace:
            out["metrics"]["setup_s"] = (serve.setup_seconds(workdir, seed, repeats), "s")
        return out
    if workload == "replay_zipf":
        import replay

        out = replay.run(seed, seconds, trace, workdir, corrupt=corrupt, **sizes)
    else:
        import figures

        out = figures.run(workload, seed, seconds, trace, workdir, corrupt=corrupt, **sizes)
    if not trace:
        from common import median_setup_seconds

        out["metrics"]["setup_s"] = (
            median_setup_seconds(workload, seed, Path.cwd(), repeats), "s")
    return out


def result_line(out: dict, trace: bool) -> dict:
    """The object the benchmark prints last."""
    if trace:
        metrics = layer_metrics(out)
    else:
        metrics = {name: {"value": float(v), "unit": u}
                   for name, (v, u) in out["metrics"].items()}
    return {"correct": not out["problems"] and out["failed"] == 0,
            "attempted": int(out["attempted"]), "failed": int(out["failed"]),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time import + set-up in this process")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workdir = Path.cwd() / ".perfbench" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(args.workload, args.seed, workdir)}))
            return 0
        from common import run_context

        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context = run_context()
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, **out.get("context", {}))
    if args.trace:
        context["kernel_tier"] = kernel_tier(out["layers"])
    print(json.dumps({"context": context}, sort_keys=True, default=str))
    for problem in out["problems"]:
        print(f"output check failed: {problem}")
    print(json.dumps(result_line(out, bool(args.trace)), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
