"""Line-oriented JSON protocol for ``repro serve``.

One request per line on stdin (or a Unix socket), one JSON object per
line back. Every request is an object with an ``op`` field and an
optional client-chosen ``id`` echoed verbatim in the response::

    {"id": 1, "op": "query", "kind": "interval", "proc": "main", "var": "x"}
    {"id": 1, "ok": true, "kind": "interval", "interval": [0, 9], ...}

Malformed input never kills the session: oversized lines, broken JSON,
non-object payloads, unknown ops, and analysis-level errors all produce a
one-line ``{"ok": false, "error": ..., "message": ...}`` response and the
loop keeps reading. Only a ``shutdown`` request — or a SIGINT/SIGTERM
delivered through :func:`repro.runtime.interrupt.raising_signal_handlers`,
which exits the process with the conventional ``128 + signum`` code — ends
a session.

Supported ops: ``query`` (kinds ``interval`` and ``check``), ``edit``,
``snapshot``, ``restore``, ``stats``, ``ping``, ``shutdown``.
"""

from __future__ import annotations

import json
import socket as socketlib
from typing import Any, Callable, Iterable

from repro.runtime.errors import AnalysisInterrupted, ReproError

#: Default per-request size ceiling. A line longer than this is rejected
#: without being parsed (the bytes are still drained from the stream so
#: the next request stays aligned).
MAX_REQUEST_BYTES = 1 << 20

#: Known request operations, for early rejection with a helpful message.
KNOWN_OPS = (
    "query",
    "edit",
    "snapshot",
    "restore",
    "stats",
    "ping",
    "shutdown",
)


class ProtocolError(ReproError):
    """A request that could not be accepted: too large, not JSON, not an
    object, or missing/unknown ``op``. Carries a stable machine-readable
    ``code`` for the error response."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


def decode_request(line: str, max_bytes: int = MAX_REQUEST_BYTES) -> dict[str, Any]:
    """Parse one request line, raising :class:`ProtocolError` on anything
    that is not a JSON object with a known ``op``."""
    if len(line.encode("utf-8", errors="replace")) > max_bytes:
        raise ProtocolError(
            "oversized", f"request exceeds {max_bytes} bytes"
        )
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-json", f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    op = payload.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-request", "request is missing an 'op' string")
    if op not in KNOWN_OPS:
        raise ProtocolError(
            "unknown-op", f"unknown op {op!r}; expected one of {', '.join(KNOWN_OPS)}"
        )
    return payload


def encode_response(payload: dict[str, Any]) -> str:
    """Serialize a response as a single line (no embedded newlines)."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def error_response(
    code: str, message: str, request_id: Any = None
) -> dict[str, Any]:
    resp: dict[str, Any] = {"ok": False, "error": code, "message": str(message)}
    if request_id is not None:
        resp["id"] = request_id
    return resp


def dispatch_request(session, request: dict[str, Any]) -> dict[str, Any]:
    """Dispatch one decoded request against a session and return the
    response body (without the echoed ``id``). Servers answer raw lines
    through :func:`answer_line`; the chaos harness's reference session
    calls this directly."""
    return _dispatch(session, request)


def _dispatch(session, request: dict[str, Any]) -> dict[str, Any]:
    op = request["op"]
    if op == "ping":
        return {"ok": True, "op": "ping", "generation": session.generation}
    if op == "stats":
        return {"ok": True, "op": "stats", **session.stats()}
    if op == "query":
        kind = request.get("kind", "interval")
        if kind == "interval":
            result = session.query_interval(
                request.get("proc"),
                request.get("var"),
                line=request.get("line"),
                domain=request.get("domain"),
                mode=request.get("mode"),
            )
            return {"ok": True, "op": "query", **result.as_dict()}
        if kind == "check":
            result = session.query_check(
                request.get("proc"),
                domain=request.get("domain"),
                mode=request.get("mode"),
            )
            return {"ok": True, "op": "query", **result.as_dict()}
        raise ProtocolError("bad-request", f"unknown query kind {kind!r}")
    if op == "edit":
        if "source" in request:
            info = session.edit(source=request["source"])
        elif "function" in request and "body" in request:
            info = session.edit(
                function=request["function"], body=request["body"]
            )
        else:
            raise ProtocolError(
                "bad-request",
                "edit needs either 'source' or 'function' + 'body'",
            )
        return {"ok": True, "op": "edit", **info}
    if op == "snapshot":
        path = request.get("path")
        if not isinstance(path, str) or not path:
            raise ProtocolError("bad-request", "snapshot needs a 'path' string")
        info = session.snapshot(path)
        return {"ok": True, "op": "snapshot", **info}
    if op == "restore":
        path = request.get("path")
        if not isinstance(path, str) or not path:
            raise ProtocolError("bad-request", "restore needs a 'path' string")
        info = session.restore(path)
        return {"ok": True, "op": "restore", **info}
    raise ProtocolError("unknown-op", f"unknown op {op!r}")


def answer_line(
    session,
    line: str,
    *,
    max_request_bytes: int = MAX_REQUEST_BYTES,
    after_edit: Callable[[], None] | None = None,
) -> str:
    """Answer one raw request line with exactly one response line.

    Robust by construction: every exception except
    :class:`AnalysisInterrupted` becomes an error response. A ``shutdown``
    request sets ``session.shutdown_requested``. ``after_edit`` runs once
    an edit is applied and before its ack is encoded (the supervised
    worker makes the edit durable there)."""
    request_id = None
    try:
        request = decode_request(line, max_request_bytes)
        request_id = request.get("id")
        if request["op"] == "shutdown":
            session.shutdown_requested = True
            response: dict[str, Any] = {"ok": True, "op": "shutdown"}
        else:
            response = _dispatch(session, request)
            if request["op"] == "edit" and after_edit is not None:
                after_edit()
        if request_id is not None:
            response["id"] = request_id
        return encode_response(response)
    except AnalysisInterrupted:
        raise
    except ProtocolError as exc:
        return encode_response(error_response(exc.code, str(exc), request_id))
    except (ReproError, ValueError) as exc:
        return encode_response(error_response("error", str(exc), request_id))
    except Exception as exc:  # noqa: BLE001 - session must survive
        return encode_response(
            error_response("internal", f"{type(exc).__name__}: {exc}", request_id)
        )


def serve_lines(
    session,
    lines: Iterable[str],
    write: Callable[[str], None],
    *,
    max_request_bytes: int = MAX_REQUEST_BYTES,
) -> int:
    """Drive a session over an iterable of request lines, emitting one
    response line per request through ``write`` until EOF or
    ``shutdown``. Returns the number of requests handled."""
    handled = 0
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        handled += 1
        write(answer_line(session, line, max_request_bytes=max_request_bytes))
        if session.shutdown_requested:
            break
    return handled


def serve_stdio(session, stdin, stdout, **kwargs) -> int:
    """Serve over text streams (the default stdin/stdout transport)."""

    def write(line: str) -> None:
        stdout.write(line + "\n")
        stdout.flush()

    return serve_lines(session, stdin, write, **kwargs)


def probe_unix_socket(path: str, timeout: float = 0.5) -> dict[str, Any] | None:
    """Is a live server listening on ``path``? Returns its ``ping``
    response (or ``{}`` when something accepted the connection but did
    not answer in time — still live), ``None`` when nothing is listening
    (connection refused / not a socket: the path is stale)."""
    try:
        with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as probe:
            probe.settimeout(timeout)
            probe.connect(path)
            try:
                probe.sendall(b'{"op": "ping"}\n')
                with probe.makefile("r", encoding="utf-8") as stream:
                    line = stream.readline().strip()
                return json.loads(line) if line else {}
            except (OSError, ValueError):
                # connected but mute/garbled: someone owns the path — the
                # connect succeeding is what makes it live
                return {}
    except OSError:
        return None


def prepare_socket_path(path: str) -> None:
    """Make ``path`` safe to bind: refuse (one-line :class:`ReproError`)
    when a live server already answers there, silently remove a genuinely
    stale socket file left by a crashed or killed predecessor."""
    import os

    if not os.path.exists(path):
        return
    alive = probe_unix_socket(path)
    if alive is not None:
        detail = (
            f" (generation {alive['generation']})" if "generation" in alive else ""
        )
        raise ReproError(
            f"a live repro serve already answers on {path}{detail}; "
            "refusing to replace it — shut it down or pick another path"
        )
    os.unlink(path)


def serve_unix_socket(session, path: str, **kwargs) -> int:
    """Serve sequential client connections on a Unix domain socket. Each
    accepted connection is one line-oriented conversation; a ``shutdown``
    request (or interrupt) ends the server, EOF just ends that client.
    A live server on ``path`` is never clobbered (see
    :func:`prepare_socket_path`), and the socket file is unlinked even on
    abnormal exit."""
    import os

    prepare_socket_path(path)
    total = 0
    try:
        with socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM) as srv:
            srv.bind(path)
            srv.listen(1)
            while not session.shutdown_requested:
                conn, _ = srv.accept()
                with conn, conn.makefile("rw", encoding="utf-8") as stream:

                    def write(line: str) -> None:
                        stream.write(line + "\n")
                        stream.flush()

                    total += serve_lines(session, stream, write, **kwargs)
    finally:
        try:
            os.unlink(path)
        except OSError:
            pass
    return total
