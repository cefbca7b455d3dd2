"""Checkpoint documents: the durable progress marker of a running job.

A checkpoint is rewritten after every ``checkpoint_interval`` resolved
points (and at cancel/pause), *after* the store has flushed the same
points, so the invariant on disk is always::

    durable shard prefix  >=  checkpoint.points_done

A crash therefore loses at most the lines buffered since the last
checkpoint — one interval — and never the checkpoint's own claim.  The
document is keyed by the job's spec digest and the canonical points
digest (built from :func:`repro.verify.fuzzer.case_digest` per point),
so a resume against a *different* spec or machine fingerprint is
detected instead of silently mixing result streams.

``checkpoint.json`` is rewritten in place, never renamed over: every
document is padded with spaces to :data:`CHECKPOINT_BYTES` (JSON allows
trailing whitespace) and written whole by one ``os.pwrite`` at offset
0, which a process kill cannot tear, and it carries a ``checksum``: the
SHA-256 of the canonical JSON of its other fields.  A read that fails
the checksum raced the writer or found a document a machine crash
(``fsync=True`` only) cut short; it is read again a bounded number of
times and then treated as absent, so a reader never sees a count that
was not written.  A document without a checksum (the layout older code
wrote by rename) still reads, and the first write replaces it whole.

Resume does not trust the checkpoint count blindly: the store's
:meth:`~repro.jobs.store.ResultStore.recover` re-validates every durable
line against the spec's expected digest sequence, and the checkpoint is
only used as a cross-check (a durable prefix *shorter* than the
checkpoint claims means the directory was tampered with or the
filesystem lost acknowledged writes — a loud error, not a quiet rerun).
An absent or torn checkpoint only loses that cross-check.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from ..errors import SpecError
from ..sweep.fingerprint import canonical_json
from ..verify.fuzzer import CASE_DIGEST_LEN
from .api import MAX_POINTS

__all__ = [
    "CHECKPOINT_BYTES",
    "CHECKPOINT_FORMAT",
    "read_checkpoint",
    "write_checkpoint",
]

#: Checkpoint document format tag.
CHECKPOINT_FORMAT = "repro-jobs-checkpoint"

#: Reads of a torn checkpoint before it counts as absent.
_READ_ATTEMPTS = 5


def checkpoint_path(directory: "Path | str") -> Path:
    return Path(directory) / "checkpoint.json"


def _checksum(doc: Dict[str, Any]) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _render(doc: Dict[str, Any]) -> str:
    """*doc* with its checksum, as ``sort_keys`` + ``indent=2`` JSON."""
    return json.dumps(
        dict(doc, checksum=_checksum(doc)), sort_keys=True, indent=2
    )


def _document(
    job_id: str, spec_digest: str, points_digest: str,
    points_done: int, points_total: int,
) -> Dict[str, Any]:
    return {
        "format": CHECKPOINT_FORMAT,
        "version": 1,
        "job_id": job_id,
        "spec_digest": spec_digest,
        "points_digest": points_digest,
        "points_done": int(points_done),
        "points_total": int(points_total),
    }


#: The size of every checkpoint file: the widest document (hex ids and
#: digests have fixed widths, counts are at most ``MAX_POINTS``) and a
#: newline.  Less than a page, so one ``pwrite`` lays it down.
CHECKPOINT_BYTES = len(_render(_document(
    "j" + "f" * CASE_DIGEST_LEN, "f" * CASE_DIGEST_LEN, "f" * 64,
    MAX_POINTS, MAX_POINTS,
))) + 1


def write_checkpoint(
    directory: "Path | str",
    job_id: str,
    spec_digest: str,
    points_digest: str,
    points_done: int,
    points_total: int,
    fsync: bool = False,
) -> Dict[str, Any]:
    """Rewrite the checkpoint document in place; returns it (without
    its checksum)."""
    doc = _document(
        job_id, spec_digest, points_digest, points_done, points_total
    )
    text = _render(doc)
    if len(text) >= CHECKPOINT_BYTES:
        raise SpecError(
            f"checkpoint document is {len(text)} bytes, over the fixed "
            f"{CHECKPOINT_BYTES - 1}"
        )
    blob = (text.ljust(CHECKPOINT_BYTES - 1) + "\n").encode("utf-8")
    path = checkpoint_path(directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        os.pwrite(fd, blob, 0)
        if os.fstat(fd).st_size != CHECKPOINT_BYTES:
            # A file of another length (an older layout) is replaced
            # whole: the pwrite covered its head, drop its tail.
            os.ftruncate(fd, CHECKPOINT_BYTES)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)
    return doc


def _read_once(path: Path) -> Any:
    """The document in *path* with its checksum checked and removed;
    ``None`` when it is torn.  Raises :class:`OSError` when absent."""
    try:
        doc = json.loads(path.read_bytes())
    except ValueError:
        return None
    if isinstance(doc, dict) and "checksum" in doc:
        if doc.pop("checksum") != _checksum(doc):
            return None
    return doc


def read_checkpoint(
    directory: "Path | str",
    job_id: Optional[str] = None,
    spec_digest: Optional[str] = None,
) -> Optional[Dict[str, Any]]:
    """Load and sanity-check a checkpoint, or ``None`` when absent.

    A document that stays torn over every re-read is absent too.  When
    *job_id* / *spec_digest* are given, a checkpoint written for a
    different job or spec raises :class:`~repro.errors.SpecError` — the
    caller is about to append to shards that belong to someone else.
    """
    path = checkpoint_path(directory)
    for _ in range(_READ_ATTEMPTS):
        try:
            doc = _read_once(path)
        except OSError:
            return None
        if isinstance(doc, dict) and doc.get("format") == CHECKPOINT_FORMAT:
            break
    else:
        # A torn read can mangle the first write over an older layout
        # into a foreign-looking document, so only a foreign document
        # read every time is refused.
        if doc is None:
            return None
        raise SpecError(f"{path} is not a jobs checkpoint")
    if job_id is not None and doc.get("job_id") != job_id:
        raise SpecError(
            f"checkpoint belongs to job {doc.get('job_id')!r}, "
            f"not {job_id!r}"
        )
    if spec_digest is not None and doc.get("spec_digest") != spec_digest:
        raise SpecError(
            "checkpoint spec digest mismatch: the job directory was "
            "created from a different spec or machine configuration"
        )
    return doc
