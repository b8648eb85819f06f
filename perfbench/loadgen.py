"""Daemon process control and the open-loop NDJSON load generator.

One generator process drives the daemon over loopback TCP through at
most ``nproc`` pipelined connections.  Arrivals follow a schedule fixed
before the phase starts (seeded Poisson offsets at an absolute rate);
every request is timed from its *scheduled* send, so a stall also
charges the requests queued behind it, and the generator records how
late it actually sent each one (``late_ms``).
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench.common import ROOT, SRC, cpu_jiffies

#: How often a running phase samples the host's CPU steal counters.
STEAL_SAMPLE_S = 0.2


# ------------------------------------------------------------------- daemon
class Daemon:
    """The serving daemon as a child process (``python -m perfbench.daemon``)."""

    #: Daemons started and not yet stopped; :meth:`kill_all` ends them.
    live: set["Daemon"] = set()

    def __init__(self, run_dir, *, sizes, trace: bool, spans_path=None, log_path):
        self.args = [
            sys.executable, "-m", "perfbench.daemon",
            "--run-dir", str(run_dir),
            "--max-batch", str(sizes.max_batch),
            "--max-wait-ms", str(sizes.max_wait_ms),
            "--queue-depth", str(sizes.queue_depth),
            "--trace", "1" if trace else "0",
        ]
        if spans_path is not None:
            self.args += ["--spans", str(spans_path)]
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.port: int | None = None
        self._lines: queue.Queue = queue.Queue()
        self.report: dict | None = None

    def start(self, timeout: float = 120.0) -> "Daemon":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.process = subprocess.Popen(
            self.args, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True
        )
        Daemon.live.add(self)
        threading.Thread(target=self._pump, daemon=True).start()
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                self.kill()
                raise RuntimeError(f"daemon not ready after {timeout:.0f}s; see {self.log_path}")
            if line is None:
                self.kill()
                raise RuntimeError(f"daemon exited before ready; see {self.log_path}")
            if line.startswith("REPRO-SERVE READY"):
                fields = dict(part.split("=", 1) for part in line.split()[2:])
                self.port = int(fields["port"])
                return self

    def _pump(self) -> None:
        for line in self.process.stdout:
            self._lines.put(line.strip())
        self._lines.put(None)

    def request(self, message: dict, timeout: float = 60.0) -> dict:
        """One blocking request on a fresh connection."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=timeout) as sock:
            sock.sendall((json.dumps(message) + "\n").encode("utf-8"))
            with sock.makefile("r", encoding="utf-8") as reader:
                return json.loads(reader.readline())

    def stop(self, timeout: float = 60.0) -> dict:
        """Ask for a graceful shutdown and wait; returns the daemon's report."""
        try:
            self.request({"op": "shutdown", "id": 0}, timeout=10)
        except (OSError, ValueError):
            pass
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not stop after shutdown")
        Daemon.live.discard(self)
        while True:
            try:
                line = self._lines.get(timeout=5)
            except queue.Empty:
                break
            if line is None:
                break
            if line.startswith("PERFBENCH-DAEMON "):
                self.report = json.loads(line[len("PERFBENCH-DAEMON "):])
        self._log.close()
        if self.report is None:
            raise RuntimeError(f"daemon exited without a report; see {self.log_path}")
        return self.report

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        Daemon.live.discard(self)

    @classmethod
    def kill_all(cls) -> None:
        for daemon in list(cls.live):
            daemon.kill()


# ---------------------------------------------------------------- requests
@dataclass
class Record:
    """One request of a phase and what came back."""

    kind: str
    offset: float
    message: dict
    keep: bool = False
    id: int = 0
    line: bytes = b""
    scheduled: float = 0.0
    sent: float = 0.0
    done: float | None = None
    ok: bool = False
    waited_ms: float | None = None
    coalesced: int | None = None
    response: dict | None = None
    #: ``(side, anchor, relation, k)`` of a read, for answer checks.
    query: tuple | None = None

    @property
    def latency_ms(self) -> float:
        """Milliseconds from the scheduled send to the answer (inf if none)."""
        if not self.ok or self.done is None:
            return float("inf")
        return 1000.0 * (self.done - self.scheduled)

    @property
    def late_ms(self) -> float:
        return 1000.0 * (self.sent - self.scheduled)


@dataclass
class Phase:
    """A schedule of requests; ``records`` are filled in by :meth:`Client.run`."""

    name: str
    rate: float = 0.0
    records: list[Record] = field(default_factory=list)
    started: float = 0.0
    #: ``(time, steal, total)`` CPU jiffy samples taken while it ran.
    jiffies: list[tuple[float, int, int]] = field(default_factory=list)

    def add(self, kind: str, offset: float, message: dict, *, keep: bool = False) -> Record:
        record = Record(kind, offset, message, keep)
        self.records.append(record)
        return record

    def again(self) -> "Phase":
        """The same schedule, not yet sent (for a repeat)."""
        phase = Phase(self.name, self.rate)
        for old in self.records:
            phase.add(old.kind, old.offset, old.message, keep=old.keep).query = old.query
        return phase

    def steal_share(self, start: float | None = None, stop: float | None = None) -> float:
        """Share of host CPU time stolen by the hypervisor between two
        moments of the phase (its whole span by default)."""
        samples = self.jiffies
        if len(samples) < 2:
            return 0.0
        start = samples[0][0] if start is None else start
        stop = samples[-1][0] if stop is None else stop
        first = max((s for s in samples if s[0] <= start), default=samples[0], key=lambda s: s[0])
        last = min((s for s in samples if s[0] >= stop), default=samples[-1], key=lambda s: s[0])
        total = last[2] - first[2]
        return (last[1] - first[1]) / total if total > 0 else 0.0


def poisson_offsets(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson stream at *rate* per second."""
    return np.cumsum(rng.exponential(1.0 / rate, count))


class Client:
    """Pipelined NDJSON connections to one daemon, driven by one event loop."""

    def __init__(self, port: int, connections: int) -> None:
        self.port = port
        self.connections = connections
        self._streams: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._pending: dict[int, tuple[Record, asyncio.Future | None]] = {}
        self._next_id = 1
        self._readers: list[asyncio.Task] = []

    async def __aenter__(self) -> "Client":
        for _ in range(self.connections):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self.port, limit=1 << 24
            )
            self._streams.append((reader, writer))
            self._readers.append(asyncio.create_task(self._read(reader)))
        return self

    async def __aexit__(self, *exc_info) -> None:
        for _reader, writer in self._streams:
            writer.close()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)
        for _reader, writer in self._streams:
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            message = json.loads(line)
            entry = self._pending.pop(message.get("id"), None)
            if entry is None:
                continue
            record, future = entry
            record.done = now
            record.ok = bool(message.get("ok"))
            record.waited_ms = message.get("waited_ms")
            record.coalesced = message.get("coalesced")
            if record.keep or not record.ok:
                record.response = message
            if future is not None and not future.done():
                future.set_result(message)

    def _encode(self, record: Record) -> None:
        message = dict(record.message)
        message["id"] = record.id = self._next_id
        self._next_id += 1
        record.line = (json.dumps(message) + "\n").encode("utf-8")

    async def call(self, message: dict) -> dict:
        """One closed-loop request on the first connection."""
        record = Record("call", 0.0, message, keep=True)
        self._encode(record)
        future = asyncio.get_running_loop().create_future()
        self._pending[record.id] = (record, future)
        record.scheduled = record.sent = time.perf_counter()
        self._streams[0][1].write(record.line)
        return await future

    async def run(self, phase: Phase, drain_timeout: float = 30.0) -> Phase:
        """Send *phase* on its schedule; wait for every answer (or time out)."""
        for record in phase.records:
            self._encode(record)
        phase.records.sort(key=lambda record: record.offset)
        start = time.perf_counter() + 0.02
        phase.started = start
        writers = [writer for _reader, writer in self._streams]
        self._sample(phase, force=True)
        for position, record in enumerate(phase.records):
            due = start + record.offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            record.scheduled = due
            self._pending[record.id] = (record, None)
            record.sent = time.perf_counter()
            writer = writers[position % len(writers)]
            writer.write(record.line)
            if writer.transport.get_write_buffer_size() > (1 << 20):
                await writer.drain()
            self._sample(phase)
        deadline = time.perf_counter() + drain_timeout
        while any(record.done is None for record in phase.records):
            if time.perf_counter() > deadline:
                break
            await asyncio.sleep(0.005)
            self._sample(phase)
        self._sample(phase, force=True)
        for record in phase.records:
            self._pending.pop(record.id, None)
        return phase

    @staticmethod
    def _sample(phase: Phase, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not phase.jiffies or now - phase.jiffies[-1][0] >= STEAL_SAMPLE_S:
            jiffies = cpu_jiffies()
            if jiffies is not None:
                phase.jiffies.append((now, *jiffies))
