"""The benchmark's load generator: one asyncio loop, pipelined connections.

Data-plane requests go out over :data:`DATA_CONNECTIONS` pipelined
connections and are matched to responses by ``id``; control ops
(``health``, ``models``, ``metrics``, ``model_doc``, ``shutdown``) use a
separate, otherwise idle connection so they never queue behind eval
traffic.

Every eval gets a sequential integer id, which is also its index into
the workload's volley stream — the byte-check regenerates the volley
from the id alone.  Per id the client keeps the time the request was
*due*, the time it was sent, the time its response arrived and the raw
response line.  In a closed loop a request is due when it is sent; in an
open loop it is due on the fixed schedule, so a stalled server (or a late
generator) shows up in the latency of every request queued behind it.
"""

from __future__ import annotations

import asyncio
import json
from time import monotonic
from typing import Callable, Optional

#: Pipelined data connections.
DATA_CONNECTIONS = 2

#: Control-plane replies (``model_doc``) carry whole network documents.
READ_LIMIT = 64 << 20


class ClientError(RuntimeError):
    """A transport or protocol failure that invalidates the run."""


class _DataProtocol(asyncio.Protocol):
    """One pipelined connection: splits response lines, hands them on."""

    def __init__(self, client: "LoadClient") -> None:
        self.client = client
        self.transport: Optional[asyncio.Transport] = None
        self._partial = b""
        self.closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        now = monotonic()
        lines = (self._partial + data).split(b"\n")
        self._partial = lines.pop()
        try:
            self.client._on_lines(self, lines, now)
        except ClientError as exc:
            self.client.error = self.client.error or exc
            self.transport.close()

    def connection_lost(self, exc) -> None:
        if not self.closed.done():
            self.closed.set_result(exc)
        if self.client.outstanding and self.client.error is None:
            self.client.error = ClientError(
                f"server closed a data connection with "
                f"{self.client.outstanding} request(s) outstanding"
            )
        self.client._wake()


class LoadClient:
    """Sends evals (and ``train`` ops) and records every response.

    *render(i)* returns the request line of eval *i* (bytes, newline
    included).  Responses are checked for framing only here; their
    content is byte-checked after the run.
    """

    def __init__(self, render: Callable[[int], bytes]) -> None:
        self.render = render
        self.due: list[float] = []
        self.sent: list[float] = []
        self.recv: list[float] = []
        self.lines: list[Optional[bytes]] = []
        self.train_replies: dict[str, bytes] = {}
        self.outstanding = 0
        self.error: Optional[ClientError] = None
        self._conns: list[_DataProtocol] = []
        self._ctl: Optional[tuple] = None
        self._closed_loop = False
        self._drained: Optional[asyncio.Future] = None
        self._next_conn = 0
        self._rendered: list[bytes] = []  # request lines of ids len(lines)...

    # -- connections ------------------------------------------------------
    async def connect(self, host: str, port: int) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(DATA_CONNECTIONS):
            _transport, proto = await loop.create_connection(
                lambda: _DataProtocol(self), host, port
            )
            self._conns.append(proto)
        self._ctl = await asyncio.open_connection(host, port, limit=READ_LIMIT)

    async def control(self, message: dict) -> dict:
        """One in-order request/response on the control connection."""
        reader, writer = self._ctl
        writer.write(json.dumps(message).encode() + b"\n")
        await writer.drain()
        line = await reader.readline()
        if not line:
            raise ClientError(f"control connection closed during {message['op']}")
        return json.loads(line)

    async def close(self) -> None:
        for proto in self._conns:
            proto.transport.close()
        await asyncio.wait_for(
            asyncio.gather(*(proto.closed for proto in self._conns)), timeout=5.0
        )
        if self._ctl is not None:
            writer = self._ctl[1]
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    def raise_error(self) -> None:
        if self.error is not None:
            raise self.error

    # -- sending ----------------------------------------------------------
    def prepare(self, count: int) -> None:
        """Render the next *count* request lines ahead of a timed window.

        Rendering costs the client about as much CPU per request as
        receiving the answer does; doing it before the window keeps that
        work from competing with the server on a small machine.  Lines
        left over from an earlier window are rendered again, because the
        rendering can depend on the window (traced runs tag ids by phase).
        """
        base = len(self.lines)
        self._rendered = [self.render(i) for i in range(base + count - 1, base - 1, -1)]

    def _new_eval(self, due: float, now: float) -> bytes:
        i = len(self.lines)
        self.due.append(due)
        self.sent.append(now)
        self.recv.append(0.0)
        self.lines.append(None)
        self.outstanding += 1
        return self._rendered.pop() if self._rendered else self.render(i)

    def burst(self, count: int) -> None:
        """Send *count* evals in one write on one connection."""
        now = monotonic()
        self._conns[0].transport.write(
            b"".join(self._new_eval(now, now) for _ in range(count))
        )

    def send_train(self, line: bytes) -> None:
        """One ``train`` op; its id must be a string starting with ``t``."""
        self.outstanding += 1
        proto = self._conns[self._next_conn]
        self._next_conn = (self._next_conn + 1) % len(self._conns)
        proto.transport.write(line)

    # -- receiving --------------------------------------------------------
    def _on_lines(self, proto: _DataProtocol, lines: list, now: float) -> None:
        evals = 0
        for line in lines:
            # Replies sort their keys, so an eval answer starts with its
            # integer id; anything else (train acks, errors) is parsed.
            if line.startswith(b'{"id":') and line[6:7] != b'"':
                i = int(line[6 : line.index(b",", 6)])
            else:
                try:
                    reply = json.loads(line)
                except ValueError as exc:
                    raise ClientError(f"unparseable response {line[:120]!r}") from exc
                rid = reply.get("id")
                if isinstance(rid, str) and rid.startswith("t"):
                    self.train_replies[rid] = line
                    self.outstanding -= 1
                    continue
                if isinstance(rid, bool) or not isinstance(rid, int):
                    raise ClientError(f"response without a request id: {line[:200]!r}")
                i = rid
            if i >= len(self.lines) or self.lines[i] is not None:
                raise ClientError(f"unexpected or duplicate response id {i}")
            self.lines[i] = line
            self.recv[i] = now
            self.outstanding -= 1
            evals += 1
        if self._closed_loop and evals:
            proto.transport.write(
                b"".join(self._new_eval(now, now) for _ in range(evals))
            )
        if self.outstanding == 0:
            self._wake()

    def _wake(self) -> None:
        if self._drained is not None and not self._drained.done():
            self._drained.set_result(None)

    # -- load shapes ------------------------------------------------------
    def start_closed(self, inflight: int) -> None:
        """Closed loop: every eval answer immediately sends the next one."""
        self._closed_loop = True
        now = monotonic()
        per_conn = max(1, inflight // len(self._conns))
        for proto in self._conns:
            proto.transport.write(
                b"".join(self._new_eval(now, now) for _ in range(per_conn))
            )

    def stop_closed(self) -> None:
        self._closed_loop = False

    async def open_loop(self, seconds: float, rate: float) -> tuple[float, float]:
        """Send evals on a fixed schedule of *rate*/s for *seconds*.

        Returns the schedule's ``(start, end)`` on the monotonic clock.
        """
        t0 = monotonic() + 0.001
        total = int(seconds * rate)
        conns = self._conns
        k = 0
        while k < total:
            self.raise_error()
            now = monotonic()
            due_count = min(total, int((now - t0) * rate) + 1)
            if due_count > k:
                batches: list[list[bytes]] = [[] for _ in conns]
                while k < due_count:
                    batches[k % len(conns)].append(self._new_eval(t0 + k / rate, now))
                    k += 1
                for proto, batch in zip(conns, batches):
                    if batch:
                        proto.transport.write(b"".join(batch))
            await asyncio.sleep(max(0.0, t0 + k / rate - monotonic()))
        return t0, t0 + total / rate

    async def drain(self, timeout: float) -> None:
        """Wait until every sent request has been answered."""
        deadline = monotonic() + timeout
        while self.outstanding and self.error is None:
            self._drained = asyncio.get_running_loop().create_future()
            try:
                await asyncio.wait_for(
                    self._drained, timeout=max(0.0, deadline - monotonic())
                )
            except asyncio.TimeoutError as exc:
                raise ClientError(
                    f"{self.outstanding} request(s) unanswered after {timeout:.0f}s"
                ) from exc
            finally:
                self._drained = None
        self.raise_error()


async def paced(interval: float, stop: asyncio.Event, action: Callable[[], None]) -> None:
    """Call *action* every *interval* seconds, on schedule, until *stop*."""
    t0 = monotonic()
    k = 0
    while not stop.is_set():
        action()
        k += 1
        try:
            await asyncio.wait_for(
                stop.wait(), timeout=max(0.0, t0 + k * interval - monotonic())
            )
        except asyncio.TimeoutError:
            pass
