"""Figure workloads: one paper figure per pass through a fresh result store.

``fig_wide`` is Figure 1 (n = 10,000 uniform bins, c in {1, 2, 3, 4, 8},
d = 2, m = C, 100 replications) in blocks of R = 25, so ``n / (R d^2) = 100``
and dispatch picks the wavefront tier.  ``fig_narrow`` is Figure 18 (n = 100,
half cap-1 / half cap-x, x in 2..6, p ~ c^t over 15 exponents, 200
replications) in blocks of at most 128, so ``n / (R d^2) < 1`` and every
block runs the per-ball lockstep kernel.  Both run the ensemble engine with
one worker, as ``repro run <fig> --engine ensemble --store DIR`` does:
store miss, block checkpoints, store put.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from common import SpeedReference, peak_rss_mb, percentile

FIGURES = {
    "fig_wide": {"experiment": "fig01", "repetitions": 100, "block_size": 25},
    "fig_narrow": {"experiment": "fig18", "repetitions": 200, "block_size": None},
}


def _experiment_seed(workload: str, seed: int) -> int:
    return 1_000_003 * int(seed) + (1 if workload == "fig_wide" else 2)


def setup(workload: str, seed: int, repetitions: int | None = None):
    """Import the pipeline and build the request (the store is per pass)."""
    from repro.experiments.base import get_experiment
    from repro.experiments.request import RunRequest

    cfg = FIGURES[workload]
    get_experiment(cfg["experiment"])
    return RunRequest(
        cfg["experiment"], seed=_experiment_seed(workload, seed), engine="ensemble",
        workers=1, block_size=cfg["block_size"],
        overrides={"repetitions": repetitions or cfg["repetitions"]},
    )


def balls_per_pass(result) -> int:
    """Ball placements x replications that one pass of *result* performs."""
    p = result.parameters
    reps, n = int(p["repetitions"]), int(p["n"])
    if result.experiment_id == "fig01":
        return n * sum(int(c) for c in p["capacities"]) * reps
    per_t = sum(n // 2 + (n - n // 2) * int(x) for x in p["capacities"])
    return per_t * len(p["t_grid"]) * reps


def series_digest(result) -> str:
    """sha256 over the result's x values and every series, in name order."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.x_values, dtype=np.float64).tobytes())
    for name in sorted(result.series):
        h.update(name.encode())
        h.update(np.ascontiguousarray(result.series[name], dtype=np.float64).tobytes())
    return h.hexdigest()


def check_result(result, expected_digest: str | None) -> list[str]:
    """Output checks for one figure pass; returns the problems found.

    Figure 1 series are mean sorted load profiles with m = C, so each must
    average to 1 (to rounding) and be non-increasing.  Figure 18 series are
    mean maximum loads with m = C, and a maximum is at least the mean
    normalised load, 1.  The digest must equal the first pass's: the same
    seed and size give the same series, traced or not.
    """
    problems = []
    for name, values in result.series.items():
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            problems.append(f"{name}: non-finite values")
        elif result.experiment_id == "fig01":
            if abs(float(values.mean()) - 1.0) > 1e-9:
                problems.append(f"{name}: mean normalised load {values.mean()!r} != 1")
            if np.any(np.diff(values) > 1e-12):
                problems.append(f"{name}: sorted profile is not non-increasing")
        elif np.any(values < 1.0 - 1e-12):
            problems.append(f"{name}: a mean max load is below the mean load 1")
    digest = series_digest(result)
    if expected_digest is not None and digest != expected_digest:
        problems.append(f"series digest {digest[:12]} != first pass {expected_digest[:12]}")
    return problems


def _block_probe(ref: SpeedReference):
    from repro.runtime.progress import NullReporter

    class BlockProbe(NullReporter):
        """Progress reporter that times blocks and interleaves the reference.

        The executor calls :meth:`advance` once a block is computed, merged
        and checkpointed; the time since the previous block (or since the
        executor's :meth:`start`) is that block's latency.
        """

        def __init__(self):
            self.blocks: list[float] = []
            self._open: list[float] = []
            self._last = 0.0
            self._first = 0

        def begin_pass(self) -> None:
            self._first = len(ref.stretches)
            ref.start()
            self._last = time.perf_counter()

        def start(self, total, label=""):
            self._last = time.perf_counter()

        def advance(self, steps=1):
            self._open.append(time.perf_counter() - self._last)
            self._close(ref.boundary())
            self._last = time.perf_counter()

        def _close(self, factor) -> None:
            if factor is not None:
                self.blocks.extend(b * factor for b in self._open)
                self._open.clear()

        def end_pass(self) -> float:
            """Close the pass; return its work seconds at nominal speed."""
            self._close(ref.boundary(force=True))
            return sum(w * f for w, f in ref.stretches[self._first:])

    return BlockProbe()


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        repetitions: int | None = None, corrupt=None) -> dict:
    """Run passes for *seconds*; return metrics and check results.

    With *trace*, passes alternate untraced / traced: the traced ones give
    the per-layer table, the untraced ones the overhead baseline, and all
    must produce the same series digest.  *corrupt* (self-test only) edits a
    result before it is checked.
    """
    from repro.experiments.runner import execute_request
    from repro.io.store import ResultStore

    from tracer import Tracer

    request = setup(workload, seed, repetitions)
    ref = SpeedReference()
    probe = _block_probe(ref)
    tracer = Tracer() if trace else None
    times = {False: [], True: []}
    layer_rows = []
    problems: list[str] = []
    attempted = failed = 0
    digest = None
    balls = None
    t_end = time.perf_counter() + seconds
    while attempted < 2 or time.perf_counter() < t_end:
        traced = trace and attempted % 2 == 1
        store_dir = workdir / f"store-{attempted}"
        if traced:
            tracer.install()
        try:
            probe.begin_pass()
            outcome = execute_request(request, store=ResultStore(store_dir), progress=probe)
            nominal = probe.end_pass()
        finally:
            if traced:
                tracer.restore()
        shutil.rmtree(store_dir, ignore_errors=True)
        attempted += 1
        result = outcome.result
        if corrupt is not None:
            corrupt(result)
        if outcome.cache_hit:
            pass_problems = ["fresh store answered from cache"]
        else:
            pass_problems = check_result(result, digest)
        if digest is None:
            digest = series_digest(result)
        if pass_problems:
            failed += 1
            problems.extend(pass_problems)
        balls = balls_per_pass(result)
        times[traced].append(nominal)
        if traced:
            layer_rows.append(tracer.summary())
            tracer.clear()

    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "context": {"experiment": request.experiment_id,
                       "repetitions": request.overrides_dict()["repetitions"],
                       "block_size": request.block_size, "balls_per_pass": balls,
                       "passes": attempted, "series_digest": digest}}
    if not trace:
        out["metrics"] = {
            "placements_per_s": (statistics.median(balls / t for t in times[False]), "1/s"),
            "lat_p50_ms": (percentile(probe.blocks, 50) * 1e3, "ms"),
            "lat_p90_ms": (percentile(probe.blocks, 90) * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        out["context"]["latency_samples"] = len(probe.blocks)
        return out
    out["layers"] = layer_rows
    out["overhead"] = statistics.median(times[True]) / statistics.median(times[False]) - 1.0
    return out
