"""Supervised serve runtime: a crash-recovering session worker.

``repro serve --supervised`` splits the query server into two processes:

* a **session worker** child that owns the :class:`ServeSession` (all
  resident per-combo fixpoints) and speaks the serve line protocol over a
  pipe pair. It records every acked ``edit``'s post-edit source durably
  *before* replying (``serve-source.ckpt``, the checkpoint codec), and
  auto-snapshots the resident tables every ``snapshot_every`` requests
  and after every edit (``serve-resident.ckpt``);
* a **supervisor** parent that forwards client requests to the worker and
  watches it (:mod:`repro.runtime.worker`): a worker that exits, is
  killed, or blows the per-request hard ``request_deadline`` (a watchdog
  SIGKILL, *not* the cooperative :class:`~repro.runtime.budget.Budget`)
  is replaced and respawned with seeded exponential-backoff delays
  (:mod:`repro.runtime.backoff`). The in-flight request is
  answered with ``{"ok": false, "error": "retry", "cause": ...,
  "retry_after": ...}`` instead of the server dying; the respawned worker
  reloads the durable source (so acked edits survive) and warm-starts
  from the latest snapshot when its fingerprint still matches — a
  corrupted or stale snapshot fails closed and the worker simply
  re-solves lazily.

Recovery invariant (property-tested in ``tests/server/test_chaos.py``):
because edits are durable-before-ack and snapshots are a pure performance
cache keyed by a source fingerprint, every post-restart answer is
byte-identical to the answer of a never-crashed session that processed
the same acked requests.

On top of supervision the transports add **overload-aware admission
control**: reader threads push requests into a bounded pending queue and
immediately shed with ``{"ok": false, "error": "overloaded"}`` once the
queue holds ``max_pending`` requests. Memory pressure inside the worker
is handled by the session itself (``max_resident_bytes`` LRU eviction,
:meth:`ServeSession.maybe_evict`).

Fault injection: a :class:`~repro.runtime.faults.FaultPlan` with
``kill_request_at`` / ``hang_request_at`` / ``kill_edit_at`` is shipped to
the worker's *first* incarnation only; ``corrupt_snapshot`` is
supervisor-side (bytes of the resident snapshot are flipped before the
first respawn, exercising the fail-closed restore). Both rules live in
:mod:`repro.runtime.worker`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queuelib
import random
import signal
import socket as socketlib
import tempfile
import threading
import time
from dataclasses import dataclass, field

from repro.runtime import worker as workers
from repro.runtime.backoff import BackoffPolicy
from repro.runtime.checkpoint import load_checkpoint, save_checkpoint
from repro.runtime.errors import CheckpointError, ReproError
from repro.runtime.faults import FaultPlan
from repro.telemetry.core import Telemetry

#: file names inside the supervisor's state directory
SOURCE_CKPT = "serve-source.ckpt"
RESIDENT_CKPT = "serve-resident.ckpt"

_SOURCE_KIND = "serve-source"

#: supervisor poll period while waiting on a worker response (seconds)
_POLL = 0.02


@dataclass
class SupervisorConfig:
    """Supervision policy for one serve runtime."""

    #: hard wall-clock ceiling per request; ``None`` disables the watchdog
    request_deadline: float | None = 60.0
    #: how long a fresh worker may take to report ready (loading a large
    #: program + snapshot restore happen here)
    startup_timeout: float = 300.0
    #: auto-snapshot the resident tables every N requests (0 disables the
    #: periodic cadence; edits always snapshot)
    snapshot_every: int = 16
    #: admission-control cap on queued-but-unserved requests
    max_pending: int = 64
    #: consecutive startup failures before the supervisor gives up on
    #: respawning and answers every request with ``unavailable``
    max_restarts: int = 8
    #: respawn delay schedule (seeded; one jitter draw per respawn)
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(
            base=0.05, factor=2.0, jitter=0.25, max_delay=2.0
        )
    )
    seed: int = 0
    #: fault plan shipped to the first worker incarnation (testing)
    faults: FaultPlan | None = None

    def __post_init__(self) -> None:
        workers.positive_or_none("request_deadline", self.request_deadline)


def _load_durable_source(state_dir: str) -> tuple[str | None, int]:
    """The last durably-recorded (edited) source text and generation, or
    ``(None, 0)`` when there is none / it fails validation (fail closed:
    fall back to the original program text)."""
    path = os.path.join(state_dir, SOURCE_CKPT)
    if not os.path.exists(path):
        return None, 0
    try:
        payload = load_checkpoint(path)
    except CheckpointError:
        try:
            os.unlink(path)
        except OSError:
            pass
        return None, 0
    if payload.get("kind") != _SOURCE_KIND:
        return None, 0
    return payload.get("source"), int(payload.get("generation", 0))


def _worker_main(
    spec: dict, req_conn, resp_conn, state_dir: str, faults: FaultPlan | None
) -> None:
    """Session-worker child entry: restore durable state, report ready,
    then serve requests from the pipe until EOF/shutdown.

    The worker never answers a request with anything but one line of
    JSON; a crash (injected or real) simply leaves the supervisor without
    a response, which is its retry signal.
    """
    from repro.server.protocol import MAX_REQUEST_BYTES, answer_line
    from repro.server.session import ServeSession

    resident_path = os.path.join(state_dir, RESIDENT_CKPT)
    source_path = os.path.join(state_dir, SOURCE_CKPT)
    injector = faults.injector() if faults is not None else None

    # Acked edits outlive crashes: prefer the durably-recorded source over
    # the original program text the supervisor was started with.
    durable_source, generation = _load_durable_source(state_dir)
    session = ServeSession(
        durable_source if durable_source is not None else spec["source"],
        spec["filename"],
        **spec["session"],
    )
    session.generation = generation

    restored: list[str] = []
    restore_error: str | None = None
    if os.path.exists(resident_path):
        try:
            restored = session.restore(resident_path)["residents"]
        except (CheckpointError, ReproError) as exc:
            # fail closed: a poisoned or source-mismatched snapshot is
            # dropped and the session re-solves lazily
            restore_error = str(exc)
            try:
                os.unlink(resident_path)
            except OSError:
                pass
    if spec.get("preload"):
        res = session.resident()
        session._ensure_solved(res, frozenset(res.plan.node_ids))
    resp_conn.send(
        json.dumps(
            {
                "ready": True,
                "generation": session.generation,
                "recovered_source": durable_source is not None,
                "restored": restored,
                "restore_error": restore_error,
            }
        )
    )

    snapshot_every = int(spec.get("snapshot_every") or 0)
    max_request_bytes = int(spec.get("max_request_bytes") or MAX_REQUEST_BYTES)
    n_requests = 0
    n_edits = 0

    def snapshot_now() -> None:
        try:
            session.snapshot(resident_path)
        except Exception:  # noqa: BLE001 - snapshots are best-effort cache
            pass

    def make_edit_durable() -> None:
        nonlocal n_edits
        n_edits += 1
        if injector is not None:
            # the atomicity window: the edit is applied in memory but not
            # yet durable — a kill here must roll it back
            injector.after_edit_applied(n_edits)
        save_checkpoint(
            source_path,
            {
                "kind": _SOURCE_KIND,
                "source": session.source,
                "generation": session.generation,
            },
        )
        snapshot_now()

    while True:
        try:
            line = req_conn.recv()
        except (EOFError, OSError):
            break
        if line is None:  # supervisor-side close sentinel
            break
        n_requests += 1
        if injector is not None:
            injector.before_request(n_requests)
        resp_conn.send(
            answer_line(
                session,
                line,
                max_request_bytes=max_request_bytes,
                after_edit=make_edit_durable,
            )
        )
        if session.shutdown_requested:
            break
        if snapshot_every and n_requests % snapshot_every == 0:
            snapshot_now()


def _peek(line: str) -> tuple[object, str | None]:
    """Best-effort (id, op) of a raw request line, for synthesizing
    supervisor-side answers. Garbage decodes to (None, None) — the worker
    produces the proper protocol error for it."""
    try:
        payload = json.loads(line)
    except ValueError:
        return None, None
    if not isinstance(payload, dict):
        return None, None
    op = payload.get("op")
    return payload.get("id"), op if isinstance(op, str) else None


class Supervisor:
    """Parent-side state machine: spawn, watch, kill, respawn, answer.

    Programmatic use (tests, benchmarks, the chaos harness)::

        sup = Supervisor(source, "prog.c", strict=False, widen=False)
        sup.start()
        resp = sup.ask({"op": "query", "kind": "interval",
                        "proc": "main", "var": "x"})
        sup.stop()

    ``handle_line`` is the transport-facing entry: one raw request line
    in, exactly one response line out, never an exception (interrupts
    excepted). It must only be called from one thread at a time — the
    transports below funnel every admitted request through a single
    consumer loop.
    """

    def __init__(
        self,
        source: str,
        filename: str = "<serve>",
        *,
        state_dir: str | None = None,
        config: SupervisorConfig | None = None,
        max_request_bytes: int | None = None,
        preload: bool = False,
        telemetry=None,
        **session_kwargs,
    ) -> None:
        self.config = config or SupervisorConfig()
        self.telemetry = Telemetry.coerce(telemetry)
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if state_dir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-serve-")
            state_dir = self._tmpdir.name
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self._spec = {
            "source": source,
            "filename": filename,
            "session": dict(session_kwargs),
            "snapshot_every": self.config.snapshot_every,
            "max_request_bytes": max_request_bytes,
            "preload": preload,
        }
        self._rng = random.Random(self.config.seed)
        self.incarnation = 0
        self.closing = False
        self._defunct = False
        self._consecutive_failures = 0
        self._worker: workers.Worker | None = None
        self._req_conn = None
        self._resp_conn = None
        self.ready_info: dict = {}
        self.counters = {
            "requests": 0,
            "restarts": 0,
            "crashes": 0,
            "deadline_kills": 0,
            "shed": 0,
            "retry_answers": 0,
            "spawn_failures": 0,
            "snapshot_restores": 0,
            "restore_failures": 0,
        }

    # -- worker lifecycle ------------------------------------------------------

    @property
    def worker_pid(self) -> int | None:
        return self._worker.pid if self._worker is not None else None

    def _close_conns(self) -> None:
        for conn in (self._req_conn, self._resp_conn):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self._req_conn = self._resp_conn = None

    def _stop_worker(self, signum: int = signal.SIGTERM) -> None:
        """Forward ``signum`` to the worker (grace period, then SIGKILL),
        reap it, and close its pipes. The watchdog passes SIGKILL: a hung
        worker is not going to flush anything useful."""
        if self._worker is None:
            return
        self._worker.stop(signum)
        self._worker = None
        self._close_conns()

    def _spawn(self) -> bool:
        """One spawn attempt; True when the worker reported ready."""
        self.incarnation += 1
        faults = self.config.faults
        workers.corrupt_before_first_retry(
            faults is not None and faults.corrupt_snapshot,
            self.incarnation,
            os.path.join(self.state_dir, RESIDENT_CKPT),
        )
        req_parent, req_child = multiprocessing.Pipe()
        resp_child, resp_parent = multiprocessing.Pipe()
        worker = workers.Worker(
            _worker_main,
            (self._spec, req_child, resp_child, self.state_dir,
             workers.faults_for_attempt(faults, self.incarnation)),
        )
        req_child.close()
        resp_child.close()
        worker.arm(self.config.startup_timeout)
        while worker.verdict() is None:
            try:
                if resp_parent.poll(0.05):
                    msg = json.loads(resp_parent.recv())
                    if msg.get("ready"):
                        self._worker = worker
                        self._req_conn = req_parent
                        self._resp_conn = resp_parent
                        self.ready_info = msg
                        if msg.get("restored"):
                            self.counters["snapshot_restores"] += 1
                            self.telemetry.count("serve.snapshot_restores")
                        if msg.get("restore_error"):
                            self.counters["restore_failures"] += 1
                            self.telemetry.count("serve.restore_failures")
                        return True
                    break  # first message was not a ready banner: bad spawn
            except (EOFError, OSError):
                break
        worker.stop(signal.SIGKILL)
        for conn in (req_parent, resp_parent):
            try:
                conn.close()
            except OSError:
                pass
        self.counters["spawn_failures"] += 1
        self.telemetry.count("serve.spawn_failures")
        return False

    def _ensure_worker(self) -> bool:
        """A live, ready worker — respawning (with backoff) as needed."""
        if self._defunct:
            return False
        if self._worker is not None and self._worker.is_alive():
            return True
        startup_failures = 0
        while True:
            if self.incarnation > 0:
                time.sleep(
                    self.config.backoff.delay(self._retry_attempt(), self._rng)
                )
            if self._spawn():
                if self.incarnation > 1:
                    self.counters["restarts"] += 1
                    self.telemetry.count("serve.restarts")
                return True
            startup_failures += 1
            self._consecutive_failures += 1
            if startup_failures > self.config.max_restarts:
                self._defunct = True
                return False

    def start(self) -> dict:
        """Spawn the first worker; raises :class:`ReproError` when it
        cannot come up at all."""
        if not self._ensure_worker():
            raise ReproError(
                f"serve worker failed to start after "
                f"{self.config.max_restarts + 1} attempts"
            )
        return self.ready_info

    def stop(self, signum: int = signal.SIGTERM) -> None:
        """Forward ``signum`` to the worker, reap it, release state."""
        self.closing = True
        self._stop_worker(signum)
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # -- request path ----------------------------------------------------------

    def _retry_attempt(self) -> int:
        return max(1, min(self._consecutive_failures, 12))

    def _retry_answer(self, request_id, cause: str) -> str:
        from repro.server.protocol import encode_response

        self.counters["retry_answers"] += 1
        self.telemetry.count("serve.retry_answers")
        resp: dict = {
            "ok": False,
            "error": "retry",
            "cause": cause,
            # jitter-free, so the estimate does not shift the seeded schedule
            "retry_after": round(
                self.config.backoff.nominal(self._retry_attempt()), 4
            ),
            "message": f"worker lost mid-request ({cause}); retry the request",
        }
        if request_id is not None:
            resp["id"] = request_id
        return encode_response(resp)

    def _error_line(self, request_id, code: str, message: str) -> str:
        from repro.server.protocol import encode_response, error_response

        return encode_response(error_response(code, message, request_id))

    def _merge_stats(self, resp_line: str) -> str:
        from repro.server.protocol import encode_response

        try:
            resp = json.loads(resp_line)
        except ValueError:
            return resp_line
        if isinstance(resp, dict) and resp.get("ok"):
            resp["supervisor"] = {
                **self.counters,
                "incarnation": self.incarnation,
                "worker_pid": self.worker_pid,
            }
            return encode_response(resp)
        return resp_line

    def _worker_lost(self, request_id, cause: str) -> str:
        counter = "deadline_kills" if cause == workers.DEADLINE else "crashes"
        self.counters[counter] += 1
        self.telemetry.count(f"serve.{counter}")
        self._consecutive_failures += 1
        self._stop_worker(signal.SIGKILL)
        return self._retry_answer(request_id, cause)

    def handle_line(self, line: str) -> str:
        """Process one raw request line; returns exactly one response
        line. Crash/hang/deadline events surface as ``retry`` answers."""
        request_id, op = _peek(line)
        self.counters["requests"] += 1
        if self.closing:
            return self._error_line(
                request_id, "shutting-down", "server is shutting down"
            )
        if not self._ensure_worker():
            return self._error_line(
                request_id,
                "unavailable",
                "session worker cannot be (re)started; giving up",
            )
        try:
            self._req_conn.send(line)
        except (OSError, ValueError):
            return self._worker_lost(request_id, workers.CRASH)
        self._worker.arm(self.config.request_deadline)
        while True:
            try:
                have_resp = self._resp_conn.poll(_POLL)
            except (OSError, EOFError):
                return self._worker_lost(request_id, workers.CRASH)
            if have_resp:
                try:
                    resp_line = self._resp_conn.recv()
                except (EOFError, OSError):
                    return self._worker_lost(request_id, workers.CRASH)
                self._consecutive_failures = 0
                if op == "stats":
                    resp_line = self._merge_stats(resp_line)
                if op == "shutdown":
                    self.closing = True
                    self._stop_worker()
                return resp_line
            verdict = self._worker.verdict()
            if verdict is None:
                continue
            if verdict.kind == workers.CRASH:
                # a response may have raced the death through the pipe
                try:
                    if self._resp_conn.poll(0.2):
                        continue
                except (OSError, EOFError):
                    pass
            return self._worker_lost(request_id, verdict.kind)

    def ask(self, request: dict) -> dict:
        """Round-trip one request dict (programmatic convenience)."""
        return json.loads(self.handle_line(json.dumps(request)))

    def shed(self, line: str, write) -> None:
        """Admission control: answer an unadmitted request immediately
        with ``overloaded`` (called from transport reader threads)."""
        request_id, _ = _peek(line)
        self.counters["shed"] += 1
        self.telemetry.count("serve.shed")
        write(
            self._error_line(
                request_id,
                "overloaded",
                f"pending queue full (max {self.config.max_pending}); "
                "retry later",
            )
        )


# --------------------------------------------------------------------------
# Transports with admission control
# --------------------------------------------------------------------------

_EOF = object()


def serve_supervised_stdio(sup: Supervisor, stdin, stdout) -> int:
    """Drive a supervisor over text streams. A reader thread admits
    requests into a bounded queue (shedding with ``overloaded`` beyond
    ``max_pending``); the calling thread is the single consumer, so
    signals still interrupt it cleanly."""
    lock = threading.Lock()

    def write(line: str) -> None:
        with lock:
            stdout.write(line + "\n")
            stdout.flush()

    pending: queuelib.Queue = queuelib.Queue()

    def reader() -> None:
        try:
            for raw in stdin:
                line = raw.strip()
                if not line:
                    continue
                if pending.qsize() >= sup.config.max_pending:
                    sup.shed(line, write)
                    continue
                pending.put(line)
        finally:
            pending.put(_EOF)

    thread = threading.Thread(target=reader, daemon=True, name="serve-stdin")
    thread.start()
    handled = 0
    eof = False
    while not (eof and pending.empty()):
        try:
            item = pending.get(timeout=0.1)
        except queuelib.Empty:
            continue
        if item is _EOF:
            eof = True
            continue
        handled += 1
        write(sup.handle_line(item))
        if sup.closing:
            break
    return handled


def serve_supervised_socket(sup: Supervisor, path: str) -> int:
    """Serve concurrent client connections on a Unix domain socket, all
    funneled through one bounded admission queue. Responses carry the
    request ``id``; shed responses may overtake queued ones."""
    from repro.server.protocol import prepare_socket_path

    prepare_socket_path(path)
    pending: queuelib.Queue = queuelib.Queue()
    stop = threading.Event()
    handled = 0

    def conn_reader(conn) -> None:
        stream = conn.makefile("rw", encoding="utf-8")
        wlock = threading.Lock()

        def write(line: str) -> None:
            try:
                with wlock:
                    stream.write(line + "\n")
                    stream.flush()
            except OSError:
                pass  # client went away; answers to it are moot

        with conn:
            for raw in stream:
                line = raw.strip()
                if not line:
                    continue
                if pending.qsize() >= sup.config.max_pending:
                    sup.shed(line, write)
                    continue
                pending.put((line, write))

    srv = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    try:
        srv.bind(path)
        srv.listen(8)
        srv.settimeout(0.1)

        def acceptor() -> None:
            while not stop.is_set():
                try:
                    conn, _ = srv.accept()
                except socketlib.timeout:
                    continue
                except OSError:
                    return
                threading.Thread(
                    target=conn_reader, args=(conn,), daemon=True,
                    name="serve-conn",
                ).start()

        threading.Thread(
            target=acceptor, daemon=True, name="serve-accept"
        ).start()
        while not sup.closing:
            try:
                line, write = pending.get(timeout=0.1)
            except queuelib.Empty:
                continue
            handled += 1
            write(sup.handle_line(line))
    finally:
        stop.set()
        srv.close()
        try:
            os.unlink(path)
        except OSError:
            pass
    return handled
