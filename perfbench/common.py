"""Shared benchmark machinery: the speed reference, statistics, run context.

The host this benchmark was built on (2 vCPUs under KVM) changes speed by
tens of percent within a minute, with no steal time reported, and process
CPU time tracks wall time.  A raw wall-clock time therefore measures the
neighbours as much as the program.  :class:`SpeedReference` copes by
interleaving: every ~50 ms of program work is followed by a short, fixed
reference computation that uses nothing from the program.  Each stretch of
program work is then rescaled by ``REF_NOMINAL_S / mean(reference before,
reference after)``, i.e. reported as the time it would have taken at the
reference's nominal speed.  A change that makes the program faster moves the
program's stretches and not the reference, so it still shows in full.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

#: The reference computation's duration, in seconds, at nominal speed
#: (its median on the 2-vCPU Xeon host the benchmark was calibrated on).
#: Only a scale factor: every rescaled time is ``time * REF_NOMINAL_S /
#: reference time``, so a different constant rescales every run alike.
REF_NOMINAL_S = 0.0025

_pc = time.perf_counter


class SpeedReference:
    """Fixed reference work interleaved with program work (module docstring).

    The reference mixes the three kinds of work the program does: an
    interpreted loop (the service's hashing and placement), many small NumPy
    calls (the per-ball lockstep kernel) and large random gathers (alias
    sampling and the wavefront kernel).
    """

    def __init__(self, gap_s: float = 0.05):
        rng = np.random.default_rng(12345)
        self._table = rng.random(1 << 20)
        self._index = rng.integers(0, 1 << 20, size=1 << 16)
        self._small = rng.random(64)
        self.gap_s = gap_s
        self._prev_ref = None
        self._mark = None
        #: ``(work_seconds, factor)`` per stretch of program work.
        self.stretches: list[tuple[float, float]] = []

    def reference(self) -> float:
        """Run the reference computation once; return its wall time."""
        t0 = _pc()
        s = 0
        for i in range(12_000):
            s += i * i % 7
        small = self._small
        for _ in range(150):
            small = np.sqrt(small * 1.0001 + 0.5)
        self._table[self._index].sum()
        return _pc() - t0

    def factor_now(self) -> float:
        """Rescale factor from the median of three reference runs now."""
        return REF_NOMINAL_S / statistics.median(self.reference() for _ in range(3))

    def start(self) -> None:
        """Open the first stretch (runs one reference)."""
        self._prev_ref = self.reference()
        self._mark = _pc()

    def boundary(self, *, force: bool = False) -> float | None:
        """Close the current stretch if ``gap_s`` has passed (or *force*).

        Returns the closed stretch's rescale factor, or ``None`` when the
        stretch stays open.
        """
        work = _pc() - self._mark
        if not force and work < self.gap_s:
            return None
        ref = self.reference()
        factor = REF_NOMINAL_S / (0.5 * (self._prev_ref + ref))
        self.stretches.append((work, factor))
        self._prev_ref = ref
        self._mark = _pc()
        return factor


def percentile(values, q: float) -> float:
    """The *q*-th percentile (linear interpolation) of a non-empty sample."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another process, from ``/proc``, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def run_context() -> dict:
    """The machine and settings a number belongs to."""
    try:
        import numba  # noqa: F401

        have_numba = True
    except ImportError:
        have_numba = False
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": have_numba,
        "machine": platform.machine(),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def median_setup_seconds(workload: str, seed: int, cwd: Path, repeats: int) -> float:
    """Median over *repeats* fresh processes of import + input set-up time,
    each rescaled by a reference run in the same process right after."""
    import subprocess

    values = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=cwd, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        values.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)
