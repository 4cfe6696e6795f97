"""``serve_wal``: a ``repro serve --wal`` subprocess under load.

The server fsyncs every record before replying (``--wal-sync-every 1``, the
setting the crash-recovery clause covers).  One asyncio generator in this
process talks to it over 2 connections, each request carrying ``client`` +
``seq`` idempotency fields.  Keys are uniform over 10^6 objects, so nearly
every key is new; one request in 400 is a churn op (alternating join /
leave).

After a 0.5 s warm-up come two phases, each cut into 1 s slices that
alternate between the real server and ``refserver.py``, a reference server
that does the same per-request work with nothing from the program (parse,
framed append, fsync, reply):

* **Nominal** (the latency metrics): open loop, Poisson arrivals at 1,000
  req/s.  A request is sent when it is due, whatever the replies, and its
  latency runs from its due time, so a stall also counts against every
  request it delays.
* **Saturation** (the capacity metric): closed loop, each connection keeps
  ``PIPELINE_DEPTH`` requests in flight, so the server is never idle and a
  request waits behind at most 15 others (p90 about 5-8 ms, well inside the
  ``LIMIT_MS`` a caller would tolerate).  A slice's capacity is the replies
  completed per second, averaged over the middle half of its 0.5 s windows.

Each metric is the median over slice pairs of real over reference, times
the reference's value at nominal speed (``REF_LATENCY_MS``, ``REF_RPS``).
The host's speed drifts by tens of percent within a minute; over 25 one
second pairs the two servers' throughputs correlated at 0.87, and the ratio
spread half as much as the raw rate.  An open-loop ramp of rising rates to a
p90 limit was tried for capacity first and dropped: its crossing point
moved by 31% (IQR over median, 10 runs).
"""

from __future__ import annotations

import asyncio
import collections
import json
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from common import SpeedReference, percentile, proc_peak_rss_mb
from tracer import summarise

PEERS = 64
OBJECTS = 1_000_000
CHURN_EVERY = 400
CONNECTIONS = 2
WARMUP_S = 0.5
NOMINAL_RPS = 1000.0
NOMINAL_SHARE = 0.45
SATURATION_SHARE = 0.4
SLICE_S = 1.0
PIPELINE_DEPTH = 8
#: Requests pre-encoded per second of saturation: above any rate reached.
MAX_RPS = 10_000
CAPACITY_WINDOW_S = 0.5
LIMIT_MS = 25.0
#: The reference server's latency percentiles and saturated throughput at
#: nominal speed (medians on the host the benchmark was calibrated on).
#: Only scale factors: each metric is the real-over-reference ratio times
#: the matching constant.
REF_LATENCY_MS = {50: 1.1, 90: 2.2}
REF_RPS = 5400.0
REPLY_TIMEOUT_S = 10.0
STOP_TIMEOUT_S = 10.0

_pc = time.perf_counter


class Server:
    """One ``serve_boot.py`` subprocess (or, with *reference*, one
    ``refserver.py``) with its log and span file."""

    def __init__(self, workdir: Path, seed: int, tag: str, traced: bool = False,
                 reference: bool = False):
        self.wal = workdir / f"{tag}.wal"
        self.spans = workdir / f"{tag}.spans.json" if traced else None
        self.port = None
        self.proc = None
        here = Path(__file__).parent
        if reference:
            self.argv = [sys.executable, str(here / "refserver.py"), str(self.wal)]
        else:
            self.argv = [sys.executable, str(here / "serve_boot.py"),
                         str(self.spans) if self.spans else "-", "serve", "--port", "0",
                         "--peers", str(PEERS), "--d", "2", "--seed", str(seed),
                         "--wal", str(self.wal), "--wal-sync-every", "1"]

    def start(self) -> float:
        """Spawn and wait for the first ``ping``; return the seconds taken."""
        t0 = _pc()
        self.proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        banner = self._read_banner(t0 + 60.0)
        self.port = int(banner.split(" on ", 1)[1].split(" ", 1)[0].rsplit(":", 1)[1])
        reply = asyncio.run(_one_request(self.port, {"op": "ping"}))
        if not reply.get("pong"):
            raise RuntimeError(f"bad ping reply {reply!r}")
        return _pc() - t0

    def _read_banner(self, deadline: float) -> str:
        while _pc() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if " service on " in line:
                    return line
                if not line:
                    break
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("server did not announce itself")

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the CLI's clean shutdown: WAL flushed, spans written),
        then SIGKILL if the process has not ended within ``STOP_TIMEOUT_S``."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {self.argv[1]} ignored SIGINT for {STOP_TIMEOUT_S} s; killed",
                  file=sys.stderr)
            self.proc.kill()
            self.proc.communicate()


async def _one_request(port: int, msg: dict) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write((json.dumps(msg) + "\n").encode())
        await writer.drain()
        return json.loads(await reader.readline())
    finally:
        writer.close()
        await writer.wait_closed()


class Batch:
    """The requests of one phase, encoded before its clock starts.

    Request ``i`` goes over connection ``i % CONNECTIONS``; replies are
    parsed after the phase ends, so while the clock runs the generator only
    writes, reads and timestamps.
    """

    def __init__(self, n: int, rng, first_index: int, seqs: list, due=None):
        keys = rng.integers(0, OBJECTS, size=n)
        self.due = due
        self.ids: list[tuple[str, int]] = []
        self.requests: list[dict] = []
        for i in range(n):
            c = i % CONNECTIONS
            seqs[c] += 1
            client = f"bench-{c}"
            g = first_index + i
            if g % CHURN_EVERY == CHURN_EVERY - 1:
                kind = "join" if (g // CHURN_EVERY) % 2 == 0 else "leave"
                msg = {"op": "churn", "kind": kind, "client": client, "seq": seqs[c]}
            else:
                msg = {"op": "alloc", "key": f"obj-{int(keys[i])}", "client": client,
                       "seq": seqs[c]}
            self.ids.append((client, seqs[c]))
            self.requests.append(msg)
        self.lines = [(json.dumps(m, separators=(",", ":")) + "\n").encode()
                      for m in self.requests]
        self.replies: list = [None] * n
        self.sent = np.full(n, np.nan)
        self.received = np.full(n, np.nan)
        self.latency = np.full(n, np.nan)
        self.start = 0.0
        self.duration = 0.0
        self.backlog_max = 0
        self.failures = 0
        self.generator_cpu = None
        self.target, self.kind = "real", "open"

    @classmethod
    def open_loop(cls, rate: float, duration: float, rng, first_index: int, seqs: list):
        """Poisson arrivals at *rate* for *duration* seconds."""
        due = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16))
        due = due[due < duration]
        return cls(due.size, rng, first_index, seqs, due)

    def sent_indices(self) -> np.ndarray:
        return np.flatnonzero(~np.isnan(self.sent))

    def settle(self) -> None:
        """Parse the replies of the requests sent; count every missing or
        failed one.  Latency runs from the due time (open loop) or from the
        send time (closed loop)."""
        origin = self.sent if self.due is None else self.start + self.due
        for i in self.sent_indices():
            reply = None
            if self.replies[i] is not None:
                try:
                    reply = json.loads(self.replies[i])
                except json.JSONDecodeError:
                    pass
            self.replies[i] = reply
            if reply is None or not reply.get("ok") or reply.get("seq") != self.ids[i][1]:
                self.failures += 1
            else:
                self.latency[i] = self.received[i] - origin[i]

    def late_ms(self) -> np.ndarray:
        """Send time minus due time of every request, in ms (open loop)."""
        return (self.sent - (self.start + self.due)) * 1e3


class LoadGenerator:
    """Sender over ``CONNECTIONS`` persistent connections to the real server
    and, when given, as many to the reference server."""

    def __init__(self, port: int, seed: int, ref_port: int | None = None):
        self.ports = {"real": port, "ref": ref_port}
        self.rng = {"real": np.random.default_rng([int(seed), 7]),
                    "ref": np.random.default_rng([int(seed), 8])}
        self.seqs = {"real": [0] * CONNECTIONS, "ref": [0] * CONNECTIONS}
        #: Requests sent to the real server.
        self.sent = 0
        #: (client, seq) -> (request, parsed reply) for every request sent
        #: to the real server.
        self.exchanges: dict = {}

    async def run(self, plan) -> list[Batch]:
        """Run ``(target, "open", rate, seconds)`` and ``(target, "pipeline",
        depth, seconds)`` phases in order; *target* is ``"real"`` or
        ``"ref"``."""
        conns = {}
        for target, port in self.ports.items():
            if port is not None:
                conns[target] = [await asyncio.open_connection("127.0.0.1", port)
                                 for _ in range(CONNECTIONS)]
        batches = []
        try:
            for target, kind, arg, duration in plan:
                rng, seqs = self.rng[target], self.seqs[target]
                first = self.sent if target == "real" else 0
                if kind == "open":
                    batch = Batch.open_loop(arg, duration, rng, first, seqs)
                    await self._open_loop(batch, conns[target])
                else:
                    batch = Batch(int(MAX_RPS * duration), rng, first, seqs)
                    batch.duration = duration
                    cpu, wall = time.process_time(), _pc()
                    await self._pipeline(batch, conns[target], arg, duration)
                    # Near 1 the generator, not the server, would set the pace.
                    batch.generator_cpu = (time.process_time() - cpu) / (_pc() - wall)
                batch.settle()
                batch.target, batch.kind = target, kind
                batches.append(batch)
                if target == "real":
                    sent = batch.sent_indices()
                    self.sent += sent.size
                    self.exchanges.update(
                        (batch.ids[i], (batch.requests[i], batch.replies[i])) for i in sent)
        finally:
            for writer in (w for group in conns.values() for _, w in group):
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
        return batches

    async def _open_loop(self, batch: Batch, conns) -> None:
        n = batch.due.size
        received = [0]
        start = batch.start = _pc() + 0.005
        due = (batch.due + start).tolist()
        readers = [self._receive(batch, conns[c][0], range(c, n, CONNECTIONS), received)
                   for c in range(CONNECTIONS)]
        receivers = [asyncio.ensure_future(r) for r in readers]
        writers = [w for _, w in conns]
        try:
            i = 0
            while i < n:
                now = _pc()
                if due[i] > now:
                    await asyncio.sleep(due[i] - now)
                    continue
                while i < n and due[i] <= now:
                    writers[i % CONNECTIONS].write(batch.lines[i])
                    batch.sent[i] = _pc()
                    i += 1
                batch.backlog_max = max(batch.backlog_max, i - received[0])
            await asyncio.wait(receivers, timeout=REPLY_TIMEOUT_S)
        finally:
            await _cancel(receivers)

    @staticmethod
    async def _receive(batch: Batch, reader, order, received) -> None:
        got, buf = 0, b""
        while got < len(order):
            chunk = await reader.read(1 << 16)
            now = _pc()
            if not chunk:
                raise ConnectionError("server closed the connection")
            *complete, buf = (buf + chunk).split(b"\n")
            for line in complete:
                i = order[got]
                got += 1
                batch.received[i] = now
                batch.replies[i] = line
            received[0] += len(complete)

    async def _pipeline(self, batch: Batch, conns, depth: int, duration: float) -> None:
        start = batch.start = _pc()
        end = start + duration

        async def drive(c: int) -> None:
            reader, writer = conns[c]
            order = iter(range(c, len(batch.lines), CONNECTIONS))
            inflight = collections.deque()

            def send() -> None:
                i = next(order)
                writer.write(batch.lines[i])
                batch.sent[i] = _pc()
                inflight.append(i)

            for _ in range(depth):
                send()
            buf = b""
            while inflight:
                chunk = await reader.read(1 << 16)
                now = _pc()
                if not chunk:
                    raise ConnectionError("server closed the connection")
                *complete, buf = (buf + chunk).split(b"\n")
                for line in complete:
                    i = inflight.popleft()
                    batch.received[i] = now
                    batch.replies[i] = line
                    if now < end:
                        send()

        drivers = [asyncio.ensure_future(drive(c)) for c in range(CONNECTIONS)]
        try:
            await asyncio.wait(drivers, timeout=duration + REPLY_TIMEOUT_S)
        finally:
            await _cancel(drivers)


async def _cancel(tasks) -> None:
    """Cancel *tasks* and collect them; a timeout or a dropped connection
    ends a task early, and settle() counts what it left unanswered."""
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


def capacity(batch: Batch) -> float:
    """Replies completed (ok) per second during a saturation slice: the mean
    over the middle half of its ``CAPACITY_WINDOW_S`` windows, ranked by
    count, so a stall or a burst of the host drops out."""
    done = batch.received[~np.isnan(batch.latency)] - batch.start
    edges = np.arange(0.0, batch.duration + 1e-9, CAPACITY_WINDOW_S)
    counts = np.sort(np.histogram(done, bins=edges)[0])
    quarter = counts.size // 4
    return float(counts[quarter:counts.size - quarter].mean()) / CAPACITY_WINDOW_S


def health(batches) -> dict:
    """How late the open-loop generator sent and how far its backlog grew."""
    late = np.concatenate([b.late_ms() for b in batches])
    return {"late_p99_ms": percentile(late[~np.isnan(late)], 99),
            "backlog_max": max(b.backlog_max for b in batches)}


def check_session(exchanges: dict, wal_records: list, stats_digest: str,
                  recovered_digest: str) -> list[str]:
    """Output checks for one server session; returns the problems found.

    Every reply is ``ok``; the WAL, read in the server's order, holds each
    request exactly once and every placement names a member at that point
    of the log, and it is the peer the client was told; and
    ``AllocationService.recover`` over the WAL reproduces the digest the
    ``stats`` op reported.
    """
    problems = []
    bad = sum(1 for _, reply in exchanges.values() if not reply or not reply.get("ok"))
    if bad:
        problems.append(f"{bad} request(s) without an ok reply")
    if not wal_records or wal_records[0].get("t") != "meta":
        return problems + ["WAL has no meta record"]
    members = set(wal_records[0]["peers"])
    seen = set()
    for rec in wal_records[1:]:
        key = (rec.get("c"), rec.get("s"))
        if key in seen:
            problems.append(f"request {key} logged twice")
        seen.add(key)
        sent = exchanges.get(key)
        if rec["t"] == "churn":
            if rec["res"] == "join":
                members.add(rec["peer"])
            elif rec["res"] == "leave":
                members.discard(rec["peer"])
            continue
        if rec["p"] not in members:
            problems.append(f"request {key} placed on non-member {rec['p']!r}")
        if sent is None or not sent[1] or sent[1].get("peer") != rec["p"]:
            problems.append(f"request {key}: reply does not match the logged placement")
    unlogged = len(set(exchanges) - seen)
    if unlogged:
        problems.append(f"{unlogged} acknowledged request(s) missing from the WAL")
    if recovered_digest != stats_digest:
        problems.append("recovered digest != the server's stats digest")
    return problems


def verify_wal(server: Server, exchanges: dict) -> list[str]:
    """Stats digest, clean stop, offline recovery and :func:`check_session`."""
    from repro.service import AllocationService, WriteAheadLog

    stats = asyncio.run(_one_request(server.port, {"op": "stats"}))["stats"]
    server.stop()
    records = WriteAheadLog(server.wal).scan().records
    recovered = AllocationService.recover(server.wal)
    recovered.close_wal()
    return check_session(exchanges, records, stats["placement_digest"],
                         recovered.placement_digest())


def setup_seconds(workdir: Path, seed: int, repeats: int) -> float:
    """Median of *repeats* server spawns until the first ``ping`` answer,
    each rescaled by the speed reference run right after it."""
    ref = SpeedReference()
    values = []
    for k in range(repeats):
        server = Server(workdir, seed, f"setup-{k}", traced=False)
        try:
            took = server.start()
        finally:
            server.stop()
        values.append(took * ref.factor_now())
    return statistics.median(values)


def _plan(seconds: float, reference: bool) -> list:
    """Warm-up, then the nominal phase and (with *reference*) the saturation
    phase, each as 1 s slices alternating between the real and the
    reference server."""
    if not reference:
        return [("real", "open", NOMINAL_RPS, WARMUP_S),
                ("real", "open", NOMINAL_RPS, NOMINAL_SHARE * seconds)]
    plan = [(t, "open", NOMINAL_RPS, WARMUP_S) for t in ("real", "ref")]
    for kind, arg, share in (("open", NOMINAL_RPS, NOMINAL_SHARE),
                             ("pipeline", PIPELINE_DEPTH, SATURATION_SHARE)):
        for _ in range(max(2, round(share * seconds / (2 * SLICE_S)))):
            plan += [(t, kind, arg, SLICE_S) for t in ("real", "ref")]
    return plan


def _ratio(batches, kind: str, measure) -> float:
    """Median over (real, reference) slice pairs of *kind* of the ratio of
    *measure* on the real slice to *measure* on the reference slice."""
    pairs = [(b, r) for b, r in zip(batches, batches[1:])
             if b.kind == kind and b.target == "real" and r.target == "ref"]
    return statistics.median(measure(b) / measure(r) for b, r in pairs)


def run(seed: int, seconds: float, trace: bool, workdir: Path, corrupt=None) -> dict:
    """Nominal and saturation slices against the real and the reference
    server (untraced); with *trace*, warm-up and nominal phase on an
    untraced and then on a traced server."""
    if trace:
        return _run_traced(seed, seconds, workdir)
    batches, gen, problems, rss, _ = _session(workdir, seed, "run", False,
                                              _plan(seconds, True), corrupt)
    real = [b for b in batches[2:] if b.target == "real"]
    nominal = [b for b in real if b.kind == "open"]
    lat = np.concatenate([_answered(b) for b in nominal])
    metrics = {
        "placements_per_s": REF_RPS * _ratio(batches, "pipeline", capacity),
        "lat_p50_ms": REF_LATENCY_MS[50] * _ratio(
            batches, "open", lambda b: percentile(_answered(b), 50)),
        "lat_p90_ms": REF_LATENCY_MS[90] * _ratio(
            batches, "open", lambda b: percentile(_answered(b), 90)),
    }
    raw = {
        "placements_per_s": statistics.median(capacity(b) for b in real if b.kind == "pipeline"),
        "reference_placements_per_s": statistics.median(
            capacity(b) for b in batches if b.kind == "pipeline" and b.target == "ref"),
        "lat_p50_ms": percentile(lat, 50), "lat_p90_ms": percentile(lat, 90),
        "lat_p99_ms": percentile(lat, 99),
    }
    return {
        "attempted": gen.sent,
        "failed": sum(b.failures for b in batches if b.target == "real") + len(problems),
        "problems": problems,
        "metrics": {**{k: (v, "ms" if k.startswith("lat") else "1/s")
                       for k, v in metrics.items()}, "peak_rss_mb": (rss, "MiB")},
        "context": {"latency_samples": int(lat.size), "raw": raw,
                    "generator": health(nominal), "connections": CONNECTIONS,
                    "saturation_p90_ms": percentile(np.concatenate(
                        [_answered(b) for b in real if b.kind == "pipeline"]), 90),
                    "limit_ms": LIMIT_MS, "pipeline_depth": PIPELINE_DEPTH,
                    "generator_cpu_share": max(b.generator_cpu for b in real
                                               if b.kind == "pipeline")},
    }


def _answered(batch: Batch) -> np.ndarray:
    """Latencies (ms) of the requests answered ok."""
    return batch.latency[~np.isnan(batch.latency)] * 1e3


def _session(workdir: Path, seed: int, tag: str, traced: bool, plan, corrupt=None):
    """Start the server (and the reference server if *plan* uses it), run
    *plan*, check the real server's outputs and stop both."""
    server = Server(workdir, seed, tag, traced)
    ref = Server(workdir, seed, f"{tag}-ref", reference=True) \
        if any(p[0] == "ref" for p in plan) else None
    try:
        server.start()
        if ref is not None:
            ref.start()
        gen = LoadGenerator(server.port, seed, ref.port if ref else None)
        before = _wal_stats(server.port)
        batches = asyncio.run(gen.run(plan))
        after = _wal_stats(server.port)
        rss = server.peak_rss_mb()
        exchanges = gen.exchanges
        if corrupt is not None:
            corrupt(exchanges)
        problems = verify_wal(server, exchanges)
    finally:
        server.stop()
        if ref is not None:
            ref.stop()
    fsyncs = after["fsyncs"] - before["fsyncs"]
    wal = {"fsyncs": fsyncs,
           "records_per_fsync": (after["appended"] - before["appended"]) / fsyncs
           if fsyncs else 0.0}
    return batches, gen, problems, rss, (server, wal)


def _wal_stats(port: int) -> dict:
    return asyncio.run(_one_request(port, {"op": "stats"}))["stats"]["wal"]


def _run_traced(seed: int, seconds: float, workdir: Path) -> dict:
    """Per-layer numbers from a traced server session (warm-up plus nominal
    phase); the same plan on an untraced server gives the generator health
    and the tracing overhead (traced p50 over untraced p50, minus 1)."""
    plan = _plan(seconds, False)
    plain, gen_plain, problems, _, _ = _session(workdir, seed, "plain", False, plan)
    traced, gen, more, _, (server, wal) = _session(workdir, seed, "traced", True, plan)
    problems += more
    index = {f"{c}:{s}": (b, i) for b in traced for i, (c, s) in enumerate(b.ids)}
    spans = json.loads(server.spans.read_text())["spans"]
    server_ns = dict.fromkeys(index, 0)
    for sp in spans:
        if sp is not None and sp[3] == -1 and sp[4] in index:
            server_ns[sp[4]] += sp[2] - sp[1]
    wire = [b.received[i] - b.sent[i] - server_ns[rid] * 1e-9
            for rid, (b, i) in index.items() if not np.isnan(b.latency[i])]
    gen_health = health(plain[1:])
    return {
        "attempted": gen_plain.sent + gen.sent,
        "failed": sum(b.failures for b in plain + traced) + len(problems),
        "problems": problems,
        "layers": [summarise(spans, rids=index)],
        "extra": {"service.fsyncs": wal["fsyncs"],
                  "service.records_per_fsync": wal["records_per_fsync"],
                  "service.wire_ms": percentile(wire, 50) * 1e3,
                  "loadgen.late_p99_ms": gen_health["late_p99_ms"],
                  "loadgen.backlog_max": gen_health["backlog_max"]},
        "overhead": percentile(_answered(traced[1]), 50) / percentile(_answered(plain[1]), 50)
        - 1.0,
        "context": {"generator": gen_health},
    }
