"""A minimal stdlib HTTP/1.1 JSON client for intra-cluster calls.

:func:`request_json` is asyncio-only: the coordinator forwards
``/simulate`` from its event loop and job chunks from a fresh loop in
each job thread, and the node agent heartbeats from its own.  It raises :class:`ClusterHTTPError` on transport failure and
returns ``(status, document)`` otherwise — non-2xx is a *routing*
signal the caller classifies, not an exception.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Tuple
from urllib.parse import urlsplit

from ..service.loadgen import _read_http_response

__all__ = [
    "ClusterHTTPError",
    "request_json",
    "split_base_url",
]


class ClusterHTTPError(Exception):
    """Transport-level failure talking to a cluster peer."""


def split_base_url(url: str) -> Tuple[str, int]:
    """``http://host:port`` -> ``(host, port)``; strict on scheme."""
    parts = urlsplit(url)
    if parts.scheme != "http" or not parts.hostname:
        raise ValueError(f"cluster URLs must be http://host:port, got {url!r}")
    return parts.hostname, parts.port or 80


async def request_json(
    base_url: str,
    method: str,
    path: str,
    doc: Any = None,
    timeout_s: float = 10.0,
) -> Tuple[int, Any]:
    """One connection-per-call JSON request against a cluster peer."""
    host, port = split_base_url(base_url)
    body = b"" if doc is None else json.dumps(
        doc, separators=(",", ":")
    ).encode()
    frame = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}:{port}\r\n"
        "Content-Type: application/json\r\n"
        "Connection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1") + body
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout_s
        )
    except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
        raise ClusterHTTPError(f"connect {base_url}: {exc}") from exc
    try:
        writer.write(frame)
        await writer.drain()
        status, payload = await asyncio.wait_for(
            _read_http_response(reader), timeout_s
        )
        return status, payload
    except (
        ConnectionError, OSError, asyncio.TimeoutError,
        asyncio.IncompleteReadError, ValueError,
    ) as exc:
        raise ClusterHTTPError(f"{method} {base_url}{path}: {exc}") from exc
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

