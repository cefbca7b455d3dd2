"""The streaming result store: append-only JSONL shards + manifest.

A :class:`ResultStore` is the durable half of a long-running sweep job.
Each resolved point becomes one canonical-JSON line appended to the
current shard (``shards/shard-00000.jsonl``, rotating every
``shard_records`` lines), so the coordinator never holds more than the
line being written.  Because points append in strict index order and
rotation is purely count-based, an interrupted-then-resumed job lays
down *byte-identical* shard files to an uninterrupted one — the property
the resume oracle in :mod:`repro.verify.differential` enforces.

Each line is ``{"d": <case digest>, "i": <index>, "r": <record>}`` in
canonical JSON.  The digest is the public
:func:`repro.verify.fuzzer.case_digest` of the point's parameter
document, which is what lets :meth:`recover` skip completed points
*exactly*: on restart it re-derives the expected digest sequence from
the job spec and validates the durable prefix line by line, truncating
at the first torn, corrupt, or unexpected line (a SIGKILL can tear at
most the tail that never reached the OS — one checkpoint interval).

The manifest (``manifest.json``) is updated only through an atomic
temp + ``os.replace`` write (the :class:`~repro.sweep.result_cache.
ResultCache` discipline), carries no wall-clock or host incidentals,
and is finalized with per-shard SHA-256s plus a whole-result digest —
so two runs that resolved the same points have byte-identical manifests.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import SpecError
from ..sweep.fingerprint import canonical_json

__all__ = [
    "MANIFEST_FORMAT",
    "ResultStore",
    "atomic_write_json",
    "read_json",
]

#: Manifest document format tag.
MANIFEST_FORMAT = "repro-jobs-manifest"

#: Shard file name pattern (index is the rotation ordinal).
_SHARD_NAME = "shard-{0:05d}.jsonl"

#: Subdirectory holding the shard files.
SHARD_DIR = "shards"

#: Default records per shard before rotation.
DEFAULT_SHARD_RECORDS = 8192


def atomic_write_json(
    path: "Path | str", doc: Any, fsync: bool = False
) -> Path:
    """Write *doc* as deterministic JSON via temp + ``os.replace``.

    Readers only ever observe a complete document; ``fsync=True`` adds
    machine-crash durability (process crashes never tear a rename).
    The temp name is a fixed ``.tmp`` sibling rather than ``mkstemp``:
    a job directory has exactly one writer, and the fixed name roughly
    halves the syscall cost of the manifest and state rewrites (the
    per-interval checkpoint is rewritten in place instead, by
    :func:`repro.jobs.checkpoint.write_checkpoint`).  A crash-orphaned
    ``.tmp`` is never read and is simply overwritten by the next write.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode(
        "utf-8"
    )
    tmp = str(path) + ".tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        try:
            os.write(fd, blob)
            if fsync:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_json(path: "Path | str") -> Optional[Any]:
    """Load a JSON document, or ``None`` when absent/corrupt."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


#: canonical_json of a ``gpu_point`` job line, by the type of its value:
#: floats render as quoted ``repr`` strings (which never need escaping),
#: an int bare.
_JOB_LINES = {
    int: '{"d":"%s","i":%d,"r":{"bandwidth_gbs":"%r",'
         '"elapsed_seconds":"%r","value":%d}}\n',
    float: '{"d":"%s","i":%d,"r":{"bandwidth_gbs":"%r",'
           '"elapsed_seconds":"%r","value":"%r"}}\n',
}


def _encode_line(index: int, digest: str, record: dict) -> bytes:
    # The bytes of canonical_json({"d": digest, "i": index, "r": record}),
    # without walking the envelope.  The record every job point writes is
    # formatted from a template; exact type checks keep a bool, a NumPy
    # scalar or an escaped digest on the canonical_json walk.
    if (len(record) == 3 and type(digest) is str and digest.isascii()
            and digest.isalnum()):
        value = record.get("value")
        template = _JOB_LINES.get(type(value))
        bandwidth = record.get("bandwidth_gbs")
        elapsed = record.get("elapsed_seconds")
        if (template is not None and type(bandwidth) is float
                and type(elapsed) is float):
            return (template % (
                digest, index, bandwidth, elapsed, value
            )).encode()
    return ('{"d":%s,"i":%d,"r":%s}\n' % (
        json.dumps(digest), index, canonical_json(record)
    )).encode("utf-8")


class ResultStore:
    """Append-only sharded JSONL store for one job's results.

    Thread-safe: the job thread appends while HTTP handlers tail the
    durable bytes for ``GET /jobs/<id>/stream``.
    """

    def __init__(
        self,
        directory: "Path | str",
        shard_records: int = DEFAULT_SHARD_RECORDS,
    ):
        if shard_records < 1:
            raise SpecError(
                f"shard_records must be >= 1, got {shard_records}"
            )
        self.directory = Path(directory)
        self.shard_dir = self.directory / SHARD_DIR
        self.shard_records = int(shard_records)
        self.records = 0
        self._fh: Optional[Any] = None
        self._fh_shard = -1
        self._lock = threading.Lock()

    # -- paths ----------------------------------------------------------------
    def shard_path(self, shard: int) -> Path:
        return self.shard_dir / _SHARD_NAME.format(shard)

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    def _shard_of(self, index: int) -> int:
        return index // self.shard_records

    def shard_names(self) -> List[str]:
        """Names of the shards holding the current ``records`` prefix."""
        if self.records == 0:
            return []
        return [
            _SHARD_NAME.format(s)
            for s in range(self._shard_of(self.records - 1) + 1)
        ]

    # -- appending ------------------------------------------------------------
    def _open_for(self, shard: int) -> Any:
        if self._fh is None or self._fh_shard != shard:
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
            self.shard_dir.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.shard_path(shard), "ab")
            self._fh_shard = shard
        return self._fh

    def append(self, index: int, digest: str, record: dict) -> None:
        """Append the record for point *index* (must be the next point).

        Sequential appends are what make shard layout — and therefore
        the final manifest — a pure function of the resolved points.
        """
        with self._lock:
            if index != self.records:
                raise SpecError(
                    f"out-of-order append: expected point {self.records}, "
                    f"got {index}"
                )
            fh = self._open_for(self._shard_of(index))
            fh.write(_encode_line(index, digest, record))
            self.records += 1

    def flush(self, fsync: bool = False) -> None:
        """Push buffered lines to the OS (surviving a process kill)."""
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                if fsync:
                    os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None
                self._fh_shard = -1

    # -- recovery -------------------------------------------------------------
    def recover(self, expected_digests: Iterable[str]) -> int:
        """Validate the durable prefix against the spec's digest sequence.

        Walks the shards line by line, checking each parses, carries the
        expected sequential index, and matches the next expected case
        digest.  The first torn/corrupt/mismatched line — and everything
        after it — is truncated away, so what remains is *exactly* the
        set of completed points.  Returns how many survive; the next
        :meth:`append` continues from there.
        """
        self.close()
        expected = iter(expected_digests)
        count = 0
        shard = 0
        while True:
            path = self.shard_path(shard)
            if not path.is_file():
                break
            keep = 0  # valid bytes within this shard
            bad = False
            with open(path, "rb") as fh:
                for raw in fh:
                    if not raw.endswith(b"\n"):
                        bad = True  # torn tail from a mid-line kill
                        break
                    try:
                        doc = json.loads(raw)
                        index, digest = doc["i"], doc["d"]
                    except (ValueError, KeyError, TypeError):
                        bad = True
                        break
                    if index != count or digest != next(expected, None):
                        bad = True
                        break
                    keep += len(raw)
                    count += 1
            if bad or count < (shard + 1) * self.shard_records:
                # Truncate the suspect tail; drop any later shards (they
                # can only hold post-gap records).
                if keep:
                    with open(path, "r+b") as fh:
                        fh.truncate(keep)
                else:
                    path.unlink()
                later = shard + 1
                while self.shard_path(later).is_file():
                    self.shard_path(later).unlink()
                    later += 1
                break
            shard += 1
        with self._lock:
            self.records = count
        return count

    # -- reading --------------------------------------------------------------
    def iter_records(self) -> Iterator[Dict[str, Any]]:
        """Stream every durable record document in index order."""
        self.flush()
        for name in self.shard_names():
            with open(self.shard_dir / name, "rb") as fh:
                for raw in fh:
                    yield json.loads(raw)

    def tail(
        self, offset: int, max_records: int = 4096
    ) -> Tuple[bytes, int]:
        """Raw JSONL bytes for records ``[offset, offset + max_records)``.

        The incremental-stream contract: a client passes the count of
        lines it has already seen and gets only complete lines back.
        Returns ``(data, count)``.
        """
        if offset < 0:
            raise SpecError(f"offset must be >= 0, got {offset}")
        self.flush()
        with self._lock:
            records = self.records
        if offset >= records:
            return b"", 0
        out: List[bytes] = []
        count = 0
        shard = self._shard_of(offset)
        skip = offset - shard * self.shard_records
        while count < max_records:
            path = self.shard_path(shard)
            if not path.is_file():
                break
            with open(path, "rb") as fh:
                for raw in fh:
                    if skip > 0:
                        skip -= 1
                        continue
                    if offset + count >= records or count >= max_records:
                        break
                    out.append(raw)
                    count += 1
            if offset + count >= records:
                break
            shard += 1
            skip = 0
        return b"".join(out), count

    # -- manifest -------------------------------------------------------------
    def write_manifest(
        self, base: Dict[str, Any], complete: bool = False,
        fsync: bool = False,
    ) -> Dict[str, Any]:
        """Atomically (re)write the manifest for the current prefix.

        *base* carries the deterministic provenance fields (job id, spec
        document, machine fingerprint, points total/digest).  A complete
        manifest additionally records per-shard SHA-256s and the digest
        of the whole concatenated result stream — computed streamingly,
        never holding more than one line.
        """
        self.flush(fsync=fsync)
        doc = dict(base)
        doc["format"] = MANIFEST_FORMAT
        doc["version"] = 1
        doc["shard_records"] = self.shard_records
        doc["points_done"] = self.records
        doc["complete"] = bool(complete)
        shards: List[Dict[str, Any]] = []
        results_sha = hashlib.sha256() if complete else None
        for s, name in enumerate(self.shard_names()):
            first = s * self.shard_records
            entry: Dict[str, Any] = {
                "name": name,
                "records": min(self.records - first, self.shard_records),
            }
            if results_sha is not None:
                shard_sha = hashlib.sha256()
                with open(self.shard_dir / name, "rb") as fh:
                    for block in iter(lambda: fh.read(1 << 20), b""):
                        shard_sha.update(block)
                        results_sha.update(block)
                entry["sha256"] = shard_sha.hexdigest()
            shards.append(entry)
        doc["shards"] = shards
        if results_sha is not None:
            doc["results_sha256"] = results_sha.hexdigest()
        atomic_write_json(self.manifest_path, doc, fsync=fsync)
        return doc

    def read_manifest(self) -> Optional[Dict[str, Any]]:
        return read_json(self.manifest_path)
