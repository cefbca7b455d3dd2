"""Open-loop HTTP load over at most two keep-alive connections.

Requests fall due on a seeded schedule whatever the server does.  Each is
written at its due time onto the connection with the fewest requests
outstanding; the server answers one connection's requests in order, so
a request behind a slow one waits in the socket, and that wait is part
of its latency.  Latency runs from the due time, so a stall also
charges the requests that fell due during it.

The sender is a plain thread rather than an asyncio loop, whose timers
round up to the millisecond: on a sub-millisecond cache hit, that
lateness would be most of what is measured.  It sleeps until just
before each due time and spins the rest (SPIN_S, a few percent of one
core at the base rate).  One reader thread per connection parses the
answers; a short interpreter switch interval lets a reader stamp an
answer while the sender spins.

:meth:`Client.pipelined` measures capacity instead: it keeps a fixed
number of requests in flight over the same connections, sending each as
an earlier one is answered.  :func:`closed_loop` sends one request at a
time, as a caller that waits for each answer would.
"""

from __future__ import annotations

import collections
import gc
import http.client
import json
import socket
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

clock = time.perf_counter

DRAIN_TIMEOUT_S = 60.0
SPIN_S = 0.0003
SWITCH_S = 0.00005


def _frame(body: bytes) -> bytes:
    return (b"POST /simulate HTTP/1.1\r\nHost: bench\r\n"
            b"Content-Type: application/json\r\nContent-Length: "
            + str(len(body)).encode() + b"\r\n\r\n" + body)


class _Conn:
    """One keep-alive connection and the requests waiting on it."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.fifo: "collections.deque[list]" = collections.deque()
        self.alive = True
        #: Released once per answered or dropped request.
        #: :meth:`Client.pipelined` gives all of a client's connections
        #: one, to keep a fixed number of requests in flight across them.
        self.answered = threading.Semaphore(0)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        buf = b""
        try:
            while True:
                head_end = buf.find(b"\r\n\r\n")
                if head_end < 0:
                    data = self.sock.recv(65536)
                    if not data:
                        break
                    buf += data
                    continue
                head = buf[:head_end]
                length = 0
                for line in head.split(b"\r\n"):
                    if line[:15].lower() == b"content-length:":
                        length = int(line[15:])
                while len(buf) < head_end + 4 + length:
                    data = self.sock.recv(65536)
                    if not data:
                        raise ConnectionError("closed mid-response")
                    buf += data
                body = buf[head_end + 4:head_end + 4 + length]
                buf = buf[head_end + 4 + length:]
                entry = self.fifo.popleft()
                entry[3] = int(head.split(b" ", 2)[1])
                entry[4] = body
                entry[2] = clock()
                self.answered.release()
        except (ConnectionError, OSError):
            pass
        finally:
            # Whatever is still queued on a lost connection was dropped.
            self.alive = False
            while self.fifo:
                self.fifo.popleft()[3] = 0
                self.answered.release()


class Client:
    """Keep-alive connections to one server, shared across phases."""

    def __init__(self, host: str, port: int, connections: int):
        sys.setswitchinterval(SWITCH_S)
        self.conns = [_Conn(host, port) for _ in range(connections)]

    def close(self) -> None:
        for conn in self.conns:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.sock.close()
        for conn in self.conns:
            conn.reader.join(timeout=5)

    def _send(self, conn: _Conn, entry: list, raw: bytes) -> None:
        conn.fifo.append(entry)
        try:
            conn.sock.sendall(raw)
        except OSError:
            conn.alive = False

    def _drain(self) -> None:
        deadline = clock() + DRAIN_TIMEOUT_S
        while any(c.fifo for c in self.conns) and clock() < deadline:
            time.sleep(0.002)
        for conn in self.conns:
            while conn.fifo:  # never answered within the drain window
                conn.fifo.popleft()[3] = 0

    def phase(self, schedule: List[Tuple[float, bytes, Any]]
              ) -> Tuple[float, List[list]]:
        """Send *schedule* open-loop; returns its start and one entry per
        request.

        An entry is ``[due, sent, done, status, body, meta]``; ``status``
        0 means the request was dropped.
        """
        framed = [(offset, _frame(body), meta)
                  for offset, body, meta in schedule]
        entries: List[list] = []
        gc.disable()  # a full collection would stall the sender for ms
        try:
            start = clock()
            self._send_all(framed, start, entries)
        finally:
            gc.enable()
        self._drain()
        return start, entries

    def _send_all(self, framed, start: float, entries: List[list]) -> None:
        for offset, raw, meta in framed:
            due = start + offset
            delay = due - clock() - SPIN_S
            if delay > 0:
                time.sleep(delay)
            while clock() < due:
                pass
            entry = [due, clock(), None, None, None, meta]
            entries.append(entry)
            self._send_least_loaded(entry, raw)

    def _send_least_loaded(self, entry: list, raw: bytes) -> None:
        live = [c for c in self.conns if c.alive]
        if not live:
            entry[3] = 0
            return
        self._send(min(live, key=lambda c: len(c.fifo)), entry, raw)

    def pipelined(self, bodies: List[Tuple[bytes, Any]], depth: int
                  ) -> Tuple[float, List[list]]:
        """Keep *depth* requests in flight across the connections until
        *bodies* are all answered: each is sent as soon as an earlier
        one is answered, and is due when sent.  No send rate caps what
        this measures, so the answers per second are what the server
        sustains.  Entries as in :meth:`phase`.
        """
        framed = [(_frame(body), meta) for body, meta in bodies]
        self._drain()
        answered = threading.Semaphore(0)
        for conn in self.conns:  # forget the answers of earlier phases
            conn.answered = answered
        entries: List[list] = []
        gc.disable()
        try:
            start = clock()
            for i, (raw, meta) in enumerate(framed):
                if i >= depth and not answered.acquire(
                        timeout=DRAIN_TIMEOUT_S):
                    break
                now = clock()
                entry = [now, now, None, None, None, meta]
                entries.append(entry)
                self._send_least_loaded(entry, raw)
        finally:
            gc.enable()
        self._drain()
        return start, entries


def decode(entries: List[list]) -> List[Dict[str, Any]]:
    """Per-request outcome: latency from due, lateness, status, body."""
    out = []
    for due, sent, done, status, body, meta in entries:
        doc: Optional[Dict[str, Any]] = None
        if status and body:
            try:
                doc = json.loads(body)
            except ValueError:
                doc = None
        out.append({
            "due": due,
            "late_s": sent - due,
            "latency_s": (done - due) if done is not None else None,
            "status": status,
            "doc": doc,
            "point": meta,
        })
    return out


def closed_loop(host: str, port: int, bodies: List[Tuple[bytes, Any]]
                ) -> Tuple[float, List[list]]:
    """Send *bodies* back to back on one keep-alive connection, each when
    the previous answer has arrived (a caller that waits for its reply);
    each is due when it is sent.  Entries as in :meth:`Client.phase`."""
    conn = http.client.HTTPConnection(host, port, timeout=DRAIN_TIMEOUT_S)
    entries: List[list] = []
    start = clock()
    try:
        for body, meta in bodies:
            sent = clock()
            entry = [sent, sent, None, 0, None, meta]
            entries.append(entry)
            try:
                conn.request("POST", "/simulate", body,
                             {"Content-Type": "application/json"})
                resp = conn.getresponse()
                entry[4] = resp.read()
                entry[2] = clock()
                entry[3] = resp.status
            except (OSError, http.client.HTTPException):
                conn.close()  # dropped; the next request reconnects
    finally:
        conn.close()
    return start, entries


def get_json(host: str, port: int, path: str, timeout: float = 5.0) -> Any:
    """One GET on a fresh connection (health checks and /metrics)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read() or b"null")
    finally:
        conn.close()
