"""``replay_zipf``: in-process ``AllocationService.replay``, as ``repro replay``.

A Zipf(1.1) trace of 20,000 requests over 100,000 objects meets 64 peers
(d = 2, T = 64) with 16 churn events spread through it; no WAL, no wire.
Placement (key hashing, ring lookup, tie rule) is nearly all the work, and
each churn event rebuilds the placer.  A pass replays the trace against a
fresh service in consecutive slices of 2,000 requests, so the speed
reference runs between slices; churn actions go with the slice whose last
arrival they precede, which gives the same decision sequence as one
``replay`` call over the whole trace.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

from common import SpeedReference, peak_rss_mb, percentile

REQUESTS = 20_000
OBJECTS = 100_000
PEERS = 64
CHURN_EVENTS = 16
SLICE = 2_000


def setup(seed: int, requests: int = REQUESTS):
    """Generate the trace, its slices and the churn schedule."""
    from repro.service import AllocationService, TraceSpec, generate_churn_schedule, generate_trace
    from repro.service.traces import Trace

    spec = TraceSpec(requests=requests, objects=OBJECTS, zipf_s=1.1, seed=int(seed))
    trace = generate_trace(spec)
    schedule = generate_churn_schedule(CHURN_EVENTS, trace.duration, seed=int(seed))
    slices = []
    taken = 0
    for lo in range(0, trace.count, SLICE):
        hi = min(lo + SLICE, trace.count)
        last = float(trace.times[hi - 1])
        actions = [a for a in schedule[taken:] if a.time <= last or hi == trace.count]
        taken += len(actions)
        slices.append((Trace(spec, trace.times[lo:hi], trace.objects[lo:hi],
                             trace.users[lo:hi]), tuple(actions)))
    distinct = len(np.unique(trace.objects))
    return {"trace": trace, "schedule": schedule, "slices": slices,
            "service": AllocationService, "new_key_share": distinct / trace.count}


def new_service(inputs, seed: int):
    return inputs["service"]([f"peer-{i}" for i in range(PEERS)], d=2,
                             refresh_every=64, seed=int(seed))


def placement_digest(placements) -> str:
    """sha256 over the chosen peers, one per line, as the service hashes them."""
    h = hashlib.sha256()
    for pid in placements:
        h.update(pid.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def check_pass(requests: int, placements, final_loads: dict, service_digest: str,
               expected_digest: str | None) -> list[str]:
    """Output checks for one replay pass; returns the problems found.

    Every request is placed once: the per-peer placement counts agree with
    the service's final loads for every current member, and the loads of
    members that left plus the final loads sum to the request count.  The
    service's running digest must equal one recomputed from the returned
    placements, and the first pass's digest (traced or not).
    """
    problems = []
    if len(placements) != requests:
        problems.append(f"{len(placements)} placements for {requests} requests")
    counts = Counter(placements)
    if sum(final_loads.values()) + sum(c for p, c in counts.items() if p not in final_loads) \
            != requests:
        problems.append("final loads plus departed peers' loads != request count")
    wrong = [p for p, load in final_loads.items() if counts.get(p, 0) != load]
    if wrong:
        problems.append(f"final loads disagree with placements for {len(wrong)} peer(s)")
    if placement_digest(placements) != service_digest:
        problems.append("service digest != digest of the returned placements")
    if expected_digest is not None and service_digest != expected_digest:
        problems.append(f"placement digest {service_digest[:12]} != first pass "
                        f"{expected_digest[:12]}")
    return problems


def run(seed: int, seconds: float, trace: bool, workdir: Path,
        requests: int = REQUESTS, corrupt=None) -> dict:
    """Replay passes for *seconds* (alternating untraced / traced with
    *trace*); return metrics and check results."""
    from tracer import Tracer

    inputs = setup(seed, requests)
    ref = SpeedReference()
    tracer = Tracer() if trace else None
    rates = {False: [], True: []}
    lat50, lat90, layer_rows, problems = [], [], [], []
    attempted = failed = 0
    digest = None
    t_end = time.perf_counter() + seconds
    while attempted < 2 or time.perf_counter() < t_end:
        traced = trace and attempted % 2 == 1
        service = new_service(inputs, seed)
        placements: list[str] = []
        # The service's own per-placement latency samples, in arrival order
        # (its 65,536-sample reservoir holds a whole pass: nothing is overwritten).
        recorder = service._latency
        first = len(ref.stretches)
        if traced:
            tracer.install()
        try:
            ref.start()
            for part, actions in inputs["slices"]:
                done = recorder.count
                report = service.replay(part, actions, keep_placements=True)
                factor = ref.boundary(force=True)
                placements.extend(report.placements)
                if not traced:
                    samples = recorder._buf[done:recorder.count] * (factor * 1e3)
                    lat50.append(percentile(samples, 50))
                    lat90.append(percentile(samples, 90))
        finally:
            if traced:
                tracer.restore()
        nominal = sum(w * f for w, f in ref.stretches[first:])
        attempted += 1
        final_loads = dict(report.final_loads)
        service_digest = report.placement_digest
        if corrupt is not None:
            placements, final_loads, service_digest = corrupt(placements, final_loads,
                                                              service_digest)
        pass_problems = check_pass(inputs["trace"].count, placements, final_loads,
                                   service_digest, digest)
        digest = digest or report.placement_digest
        if pass_problems:
            failed += 1
            problems.extend(pass_problems)
        rates[traced].append(inputs["trace"].count / nominal)
        if traced:
            layer_rows.append(tracer.summary())
            tracer.clear()

    out = {"attempted": attempted, "failed": failed, "problems": problems,
           "context": {"requests": inputs["trace"].count, "peers": PEERS,
                       "churn_events": CHURN_EVENTS,
                       "new_key_share": round(inputs["new_key_share"], 4),
                       "passes": attempted, "placement_digest": digest}}
    if not trace:
        out["metrics"] = {
            "placements_per_s": (statistics.median(rates[False]), "1/s"),
            "lat_p50_ms": (statistics.median(lat50), "ms"),
            "lat_p90_ms": (statistics.median(lat90), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        out["context"]["latency_samples"] = int(len(lat50) * SLICE)
        return out
    out["layers"] = layer_rows
    out["overhead"] = statistics.median(rates[False]) / statistics.median(rates[True]) - 1.0
    return out

