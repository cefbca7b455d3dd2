"""Zero-copy slab transport over POSIX shared memory.

The pickle path serializes every sweep point's payload and result dict
through the worker pipe.  For slab dispatch the executor instead copies
a chunk's :class:`~repro.sim.batch.SlabPoints` columns into one
shared-memory segment of int64 columns, sends only a tiny pickled
*header* (segment name, length, the distinct
:class:`~repro.core.cases.Case` objects, and a SHA-256 of the buffer),
and the worker hands the columns it reads back straight to the slab
evaluator, then copies the :class:`~repro.sim.batch.SlabResult` columns
into a second segment.  Neither side builds a per-point object; the
coordinator makes the record dicts once, when it collates the response.

Nothing in the program calls this module any more: the executor prices
``gpu_point`` stages in-process, and under a task deadline one point
per task through the pickle pool.  It stays, with its own unit tests,
only because the benchmark harness imports it in every leg
(``perfbench/launch.py``'s ``LAZY``) and its tracer preloads it and
wraps four of its functions (``PRELOAD`` and ``TARGETS`` in
``perfbench/tracing.py``); deleting it would fail every benchmark leg.
It goes once a benchmark change retires those names.

A :class:`Segment` maps ``/dev/shm/<name>`` with the calls
``multiprocessing.shared_memory.SharedMemory`` makes (``shm_open``,
``ftruncate``, ``mmap``), but it registers with no resource tracker:
the stdlib class messages a tracker interpreter on every create, attach
and unlink, starting one in each process that has none to inherit, and
a tracker would reap segments another process still has to read.

Leak discipline — the classic failure mode of this transport is a stale
``/dev/shm`` segment surviving a crash:

* the **coordinator owns every segment's lifetime**: request segments it
  creates, and response segments whose names are *derived* from the
  request name (``<name>-out``), so a ``finally`` can unlink both even
  when the worker died mid-task, timed out, or the run was interrupted;
* every coordinator-created segment is recorded in a module registry
  with an ``atexit`` sweep, so ``KeyboardInterrupt`` and plain process
  exit also clean up;
* workers create response segments unregistered, and unlink any
  leftover of the same name first, which self-heals a previous
  attempt's crash.

A coordinator killed by a signal it does not handle (SIGKILL, say)
skips its ``atexit`` sweep and leaves its segments behind; no other
process unlinks them.

Integrity: both directions carry a SHA-256 of the exact buffer bytes in
the pickled header.  The header itself is covered by the supervisor's
record checksum, so corruption of either layer is detected, never
silently collated (the chaos invariant).
"""

from __future__ import annotations

import atexit
import hashlib
import mmap
import secrets
import os
import threading
from typing import Any, Dict, List, Optional

import numpy as np

try:
    import _posixshmem
except ImportError:  # pragma: no cover - no POSIX shared memory
    # Every segment call then raises, and the executor prices serially.
    _posixshmem = None

__all__ = [
    "SEGMENT_PREFIX",
    "TransportError",
    "Segment",
    "create_segment",
    "attach_segment",
    "unlink_if_exists",
    "release_segment",
    "owned_segments",
    "pack_gpu_slab_request",
    "unpack_gpu_slab_request",
    "pack_gpu_slab_response",
    "unpack_gpu_slab_response",
    "response_name",
]

#: Name prefix of every segment this module creates (leak tests scan it).
SEGMENT_PREFIX = "repro-slab-"

#: Response columns, in buffer order (all 8-byte; dtype per column).
_RESPONSE_COLUMNS = (
    ("bandwidth_gbs", np.float64),
    ("elapsed_seconds", np.float64),
    ("value_int", np.int64),
    ("value_float", np.float64),
    ("value_is_float", np.float64),  # 1.0 or 0.0
)


class TransportError(RuntimeError):
    """A slab buffer failed validation (missing segment, bad digest)."""


# -- segment lifetime ------------------------------------------------------

_REGISTRY_LOCK = threading.Lock()
_OWNED: Dict[str, Optional[Segment]] = {}


class Segment:
    """A POSIX shared-memory segment, mapped read-write.

    ``size > 0`` creates ``/dev/shm/<name>`` (exclusively, mode 0600);
    ``size == 0`` attaches to an existing one.  ``buf`` is the mapping's
    memoryview; :meth:`close` unmaps it and leaves the segment in place.
    """

    def __init__(self, name: str, size: int = 0) -> None:
        path = "/" + name
        create = size > 0
        flags = os.O_CREAT | os.O_EXCL | os.O_RDWR if create else os.O_RDWR
        fd = _posixshmem.shm_open(path, flags, mode=0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            else:
                size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, size)
        except BaseException:
            if create:
                _posixshmem.shm_unlink(path)
            raise
        finally:
            os.close(fd)  # the mapping keeps its own descriptor
        self.name = name
        self.size = size
        self.buf: Optional[memoryview] = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap the segment; idempotent."""
        if self.buf is not None:
            self.buf.release()
            self.buf = None
            self._mmap.close()


def _fresh_name() -> str:
    return f"{SEGMENT_PREFIX}{os.getpid():x}-{secrets.token_hex(4)}"


def create_segment(
    nbytes: int, name: Optional[str] = None, owner: bool = True
) -> Segment:
    """Create a segment; ``owner=True`` records it for the atexit sweep.

    ``owner=False`` is the worker side: the segment is not recorded (the
    coordinator unlinks it by derived name) and any leftover of the same
    name from a crashed previous attempt is unlinked first.
    """
    if name is None:
        name = _fresh_name()
    elif not owner:
        unlink_if_exists(name)
    segment = Segment(name, max(1, nbytes))
    if owner:
        with _REGISTRY_LOCK:
            _OWNED[name] = segment
    return segment


def attach_segment(name: str) -> Segment:
    """Map an existing segment; a missing one is a :class:`TransportError`."""
    try:
        return Segment(name)
    except FileNotFoundError:
        raise TransportError(
            f"shared-memory segment {name!r} does not exist "
            "(worker died before writing, or it was reaped)"
        ) from None


def unlink_if_exists(name: str) -> bool:
    """Unlink segment *name* if present; returns whether it existed."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        return False
    return True


def release_segment(name: str) -> None:
    """Close and unlink a coordinator-owned (or expected) segment."""
    with _REGISTRY_LOCK:
        segment = _OWNED.pop(name, None)
    if segment is not None:
        try:
            segment.close()
        except Exception:  # pragma: no cover - buffer already gone
            pass
    unlink_if_exists(name)


def expect_segment(name: str) -> None:
    """Register a name the coordinator must unlink (derived responses)."""
    with _REGISTRY_LOCK:
        _OWNED.setdefault(name, None)


def owned_segments() -> List[str]:
    """Names currently registered for cleanup (tests inspect this)."""
    with _REGISTRY_LOCK:
        return sorted(_OWNED)


@atexit.register
def _sweep_owned() -> None:  # pragma: no cover - exercised via subprocess
    """Last-resort cleanup on interpreter exit (incl. KeyboardInterrupt)."""
    with _REGISTRY_LOCK:
        leftovers = list(_OWNED.items())
        _OWNED.clear()
    for name, segment in leftovers:
        if segment is not None:
            try:
                segment.close()
            except Exception:
                pass
        unlink_if_exists(name)


# -- gpu_point slab packing ------------------------------------------------


def _digest(view: memoryview) -> str:
    return hashlib.sha256(view).hexdigest()


def response_name(request_name: str) -> str:
    """The derived response-segment name for a request segment."""
    return f"{request_name}-out"


def pack_gpu_slab_request(points: Any) -> Dict[str, Any]:
    """Copy a chunk's :class:`~repro.sim.batch.SlabPoints` into a segment.

    Payload tuples are converted once on entry.  Returns the pipe header:
    segment name, point count, the distinct ``Case`` objects (indexed by
    the ``case_idx`` column), and the buffer digest.  The caller owns the
    segment (release via :func:`release_segment`); the derived response
    name is registered for cleanup too.
    """
    # Imported lazily: repro.sim.batch reaches repro.sweep through the
    # model tables' fingerprinting, so a module-level import would cycle.
    from ..sim.batch import SlabPoints

    points = SlabPoints.from_payloads(points)
    nbytes = points.columns.nbytes
    segment = create_segment(nbytes)
    expect_segment(response_name(segment.name))
    view = np.ndarray(points.columns.shape, dtype=np.int64,
                      buffer=segment.buf)
    view[:] = points.columns
    return {
        "shm": segment.name,
        "n": len(points),
        "cases": points.cases,
        "sha256": _digest(segment.buf[:nbytes]),
        "nbytes": nbytes,
    }


def unpack_gpu_slab_request(header: Dict[str, Any]) -> Any:
    """The request's :class:`~repro.sim.batch.SlabPoints` (worker side)."""
    from ..sim.batch import SlabPoints

    n = int(header["n"])
    segment = attach_segment(header["shm"])
    try:
        nbytes = int(header["nbytes"])
        if _digest(segment.buf[:nbytes]) != header["sha256"]:
            raise TransportError(
                f"slab request buffer {header['shm']!r} failed digest "
                "verification"
            )
        columns = np.ndarray(
            (len(SlabPoints.COLUMNS), n), dtype=np.int64, buffer=segment.buf
        ).copy()
    finally:
        segment.close()
    return SlabPoints(header["cases"], columns)


def pack_gpu_slab_response(request_name: str, result: Any) -> Dict[str, Any]:
    """Copy a :class:`~repro.sim.batch.SlabResult` into the derived
    response segment (worker side).

    The worker does not own the segment's lifetime — the coordinator
    unlinks it by derived name — so it is created unregistered, healing
    any leftover from a crashed previous attempt of the same task.
    """
    n = len(result)
    columns = np.empty((len(_RESPONSE_COLUMNS), n), dtype=np.float64)
    columns[0] = result.bandwidth
    columns[1] = result.elapsed
    # Each value group's value goes to the int64 or the float64 column,
    # with 0 in the other, then spreads to its points.
    values = result.values
    is_float = [type(value) is float for value in values]
    group = np.asarray(result.group, dtype=np.intp)
    columns[2].view(np.int64)[:] = np.array(
        [0 if flag else value for value, flag in zip(values, is_float)],
        dtype=np.int64)[group]
    columns[3] = np.array(
        [value if flag else 0.0 for value, flag in zip(values, is_float)],
        dtype=np.float64)[group]
    columns[4] = np.array(is_float, dtype=np.float64)[group]
    nbytes = columns.nbytes
    segment = create_segment(
        nbytes, name=response_name(request_name), owner=False
    )
    view = np.ndarray(columns.shape, dtype=np.float64, buffer=segment.buf)
    view[:] = columns
    digest = _digest(segment.buf[:nbytes])
    segment.close()
    return {
        "shm": response_name(request_name),
        "n": n,
        "sha256": digest,
        "nbytes": nbytes,
    }


def unpack_gpu_slab_response(header: Dict[str, Any]) -> List[dict]:
    """Collate result records from a response header (coordinator side).

    Raises
    ------
    TransportError
        If the segment is missing or its bytes do not match the digest
        (detected corruption — the caller recomputes, never collates).
    """
    n = int(header["n"])
    segment = attach_segment(header["shm"])
    try:
        nbytes = int(header["nbytes"])
        if _digest(segment.buf[:nbytes]) != header["sha256"]:
            raise TransportError(
                f"slab response buffer {header['shm']!r} failed digest "
                "verification (corrupted in transport)"
            )
        columns = np.ndarray(
            (len(_RESPONSE_COLUMNS), n), dtype=np.float64, buffer=segment.buf
        ).copy()
    finally:
        segment.close()
    bandwidth, elapsed, _, value_float, is_float = columns.tolist()
    return [
        {"bandwidth_gbs": b, "elapsed_seconds": e,
         "value": f if flag else i}
        for b, e, i, f, flag in zip(bandwidth, elapsed,
                                    columns[2].view(np.int64).tolist(),
                                    value_float, is_float)
    ]
