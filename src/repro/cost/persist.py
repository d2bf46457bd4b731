"""Persistent cross-run layer-report cache: the L2 tier under the LRU.

Layer reports are pure functions of (layer shape, clipped mapping key,
bandwidths, cost-backend configuration).  This module fingerprints that
whole composite key into a content-addressed digest and keeps a
crash-safe on-disk store of the priced rows, so the in-memory
:class:`~repro.cost.cache.LRUCache` becomes an L1 over an L2 shared by
sweep jobs and successive runs: repeat queries become lookups instead of
engine evaluations.

The tier serves per-design pricing only
(:meth:`repro.cost.maestro.CostModel.evaluate_model` and
``evaluate_layer``, which both backends share).  The gene-matrix
population path never touches it: re-pricing a vector row costs less
than digesting the row and reading it back from disk.

Keying
------

Entries are addressed by a SHA-1 digest of three parts:

* a **namespace** — :data:`KEY_VERSION`, the cost-backend name, the
  element width and the energy coefficients — so rows priced under
  different backends or technology models can never alias;
* a **statics blob** — the layer's canonical shape signature (operator
  name, dimension sizes, stride).  The in-memory keys hold the statics
  object itself; the digest replaces it with this content form, which is
  what makes the key stable across processes and runs; and
* the **gene tail** — the per-level (spatial, parallel, order, tiles)
  integers plus both bandwidth float bit patterns.

Durability
----------

The data file is append-only JSONL with a header record, written with the
:class:`~repro.experiments.runner.ResultStore` discipline: one ``write``
syscall per flush on an ``O_APPEND`` descriptor (concurrent writers never
interleave bytes), partial trailing lines healed by prefixing a newline,
undecodable lines counted and reported via
:class:`PersistentCacheCorruption` — a damaged record is *never served*;
lookups re-verify the stored digest before returning a row.  Several
writers may share one directory (sweep shards with one cache dir): a
flush takes its record offsets from where its append actually landed,
and the index sidecar only ever covers data its writer has indexed —
other writers' appends are scanned in first — so no writer hides
another's rows.  The binary index sidecar is a rebuildable accelerator:
any inconsistency (torn entry, stale header, wrong version) discards it
and rescans the data file, which remains the single source of truth.  A
data file whose header does not match
:data:`FORMAT_NAME`/:data:`KEY_VERSION` is quarantined (renamed aside)
and the cache starts fresh rather than risk serving rows keyed under
different rules.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import warnings
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.durable import replace_atomically

#: Bump when the digest composition or the record layout changes; stores
#: written under another version are quarantined, never reinterpreted.
KEY_VERSION = 1

#: Header ``format`` field of the data file.
FORMAT_NAME = "repro-layer-cache"

#: File names inside the cache directory.
DATA_FILE = "layers.jsonl"
INDEX_FILE = "layers.index"

_INDEX_MAGIC = b"RPLC"
_INDEX_VERSION = 1
#: magic, index version, key version, covered data size, entry count.
_INDEX_HEADER = struct.Struct("<4sIIQQ")
#: 20-byte SHA-1 digest, data-file offset, record length.
_INDEX_RECORD = struct.Struct("<20sQI")


class PersistentCacheCorruption(UserWarning):
    """A persistent cache file contained damaged or mismatched content.

    Mirrors :class:`~repro.experiments.runner.ResultStoreCorruption`
    semantics: the store heals or quarantines and keeps working; nothing
    damaged is ever served back as a layer report.
    """


# -- digest helpers ------------------------------------------------------------

#: Content blobs per canonical statics instance (statics are identity-
#: hashed and immortal — see :mod:`repro.workloads.statics` — so this
#: memo is bounded by the number of distinct layer shapes ever seen).
_STATICS_BLOBS: Dict[object, bytes] = {}


def cache_namespace(
    backend: str,
    bytes_per_element: int,
    energy_coefficients: Sequence[float],
) -> bytes:
    """Digest scoping every key to one cost-backend configuration.

    Joins :data:`KEY_VERSION`, so a format bump invalidates every old
    digest at once; bandwidths live in the gene tail, and the model
    identity is carried by each row's statics blob, so neither needs to
    appear here.
    """
    blob = repr(
        (
            KEY_VERSION,
            str(backend),
            int(bytes_per_element),
            tuple(float(value) for value in energy_coefficients),
        )
    ).encode()
    return hashlib.sha1(blob).digest()


def statics_blob(statics) -> bytes:
    """Stable content form of one layer-shape signature."""
    blob = _STATICS_BLOBS.get(statics)
    if blob is None:
        op_type, dims, stride = statics.signature
        blob = repr((op_type.name, tuple(dims), int(stride))).encode()
        _STATICS_BLOBS[statics] = blob
    return blob


def row_digest(namespace: bytes, blob: bytes, tail: bytes) -> bytes:
    """SHA-1 of (namespace, statics blob, gene tail) — the L2 address."""
    digest = hashlib.sha1(namespace)
    digest.update(blob)
    digest.update(tail)
    return digest.digest()


def tuple_key_digest(
    namespace: bytes,
    statics,
    key: tuple,
    noc_bandwidth: float,
    dram_bandwidth: float,
) -> bytes:
    """Digest of one scalar-path composite cache key.

    Flattens the per-level ``((spatial, parallel, order), tiles)`` tuples
    in gene order as int64 and appends both bandwidth float bit patterns.
    Keys whose integers exceed int64 fall back to a ``repr`` tail: still
    deterministic, just a different byte form.
    """
    genes = []
    for (spatial, parallel, order), tiles in key:
        genes.append(spatial)
        genes.append(parallel)
        genes.extend(order)
        genes.extend(tiles)
    try:
        tail = struct.pack(f"={len(genes)}q", *genes)
    except (struct.error, OverflowError):
        tail = repr(key).encode()
    tail += struct.pack("=dd", noc_bandwidth, dram_bandwidth)
    return row_digest(namespace, statics_blob(statics), tail)


def _plain(value: Union[int, float]) -> Union[int, float]:
    """Coerce a report scalar to a JSON-exact built-in int or float."""
    kind = type(value)
    if kind is int or kind is float:
        return value
    if isinstance(value, float):
        return float(value)
    return int(value)


class PersistentLayerCache:
    """Crash-safe shared on-disk store of layer-report value tuples.

    One instance fronts one cache directory.  Opening is lazy (the first
    ``get``/``put`` touches disk), writes buffer in memory until
    :meth:`flush` — which the cost models call once per evaluation pass,
    emitting the whole batch as a single ``O_APPEND`` write — and
    :meth:`close` additionally rewrites the index sidecar atomically.  A
    closed cache transparently reopens on the next lookup.

    Flushes are not fsynced: the store is a rebuildable, digest-verified
    accelerator, so a row lost to a crash is simply priced again.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        #: Tier counters of this instance.
        self.l2_hits = 0
        self.l2_misses = 0
        self.l2_writes = 0
        #: Undecodable / mismatched data lines seen while scanning.
        self.corrupt_lines = 0
        #: Entries found on disk at the first open — the cross-run
        #: carryover (reopening after :meth:`close` leaves it alone).
        self.loaded_entries = 0
        #: Addressable rows when last closed; ``None`` until then.
        self._entries_at_close: Optional[int] = None
        self._offsets: Optional[Dict[bytes, Tuple[int, int]]] = None
        #: Data-file prefix whose records are all in ``_offsets``; other
        #: writers' appends past it are indexed before the sidecar is
        #: written (see :meth:`_write_index`).
        self._covered = 0
        self._buffer: Dict[bytes, tuple] = {}
        self._descriptor: Optional[int] = None

    # -- paths -------------------------------------------------------------

    @property
    def data_path(self) -> Path:
        return self.directory / DATA_FILE

    @property
    def index_path(self) -> Path:
        return self.directory / INDEX_FILE

    # -- lookups / inserts -------------------------------------------------

    def get(self, digest: bytes) -> Optional[tuple]:
        """Return the stored value tuple for ``digest`` or ``None``.

        Every served row is re-verified against its stored digest: a
        record that fails to parse or keys differently (bit rot, torn
        write) counts as corruption and reads as a miss — the caller
        falls back to engine pricing, never to a wrong row.
        """
        if self._offsets is None:
            self._open()
        value = self._buffer.get(digest)
        if value is not None:
            self.l2_hits += 1
            return value
        location = self._offsets.get(digest)
        if location is None:
            self.l2_misses += 1
            return None
        offset, length = location
        values = self._read_record(digest, offset, length)
        if values is None:
            del self._offsets[digest]
            self.corrupt_lines += 1
            self.l2_misses += 1
            warnings.warn(
                f"{self.data_path}: dropped one unreadable cache record at "
                f"offset {offset} (served as a miss)",
                PersistentCacheCorruption,
                stacklevel=2,
            )
            return None
        self.l2_hits += 1
        return values

    def put(self, digest: bytes, values: Sequence[Union[int, float]]) -> None:
        """Buffer one freshly priced row for the next :meth:`flush`."""
        if self._offsets is None:
            self._open()
        if digest in self._buffer or digest in self._offsets:
            return
        self._buffer[digest] = tuple(_plain(value) for value in values)
        self.l2_writes += 1

    def flush(self) -> None:
        """Append all buffered rows as one crash-safe ``write`` syscall."""
        if not self._buffer:
            return
        descriptor = self._ensure_descriptor()
        size = os.fstat(descriptor).st_size
        prefix = b""
        if size > 0 and os.pread(descriptor, 1, size - 1) != b"\n":
            # A previous writer died mid-line: close its partial line so
            # one crash can never corrupt two records.
            prefix = b"\n"
        lines = [
            (json.dumps({"k": digest.hex(), "v": list(values)}) + "\n").encode()
            for digest, values in self._buffer.items()
        ]
        data = prefix + b"".join(lines)
        written = os.write(descriptor, data)
        # O_APPEND put the bytes at the end of the file as it was at write
        # time, past anything another writer appended since the size
        # probe, so offsets come from where the write actually landed.
        start = os.lseek(descriptor, 0, os.SEEK_CUR) - written
        view = memoryview(data)[written:]
        while view:  # short writes (ENOSPC, signals) must not truncate
            view = view[os.write(descriptor, view) :]
        end = os.lseek(descriptor, 0, os.SEEK_CUR)
        if end - start == len(data):
            cursor = start + len(prefix)
            for digest, line in zip(self._buffer, lines):
                self._offsets[digest] = (cursor, len(line))
                cursor += len(line)
            if start == self._covered:
                self._covered = end
        else:
            # Another writer landed between the pieces of a short write:
            # index this batch's records from where they ended up.
            self._scan_tail()
        self._buffer.clear()

    def close(self) -> None:
        """Flush, persist the index sidecar and release the descriptor.

        Idempotent, and not terminal: the next lookup reopens the store
        (now with a fresh index, so reopening is cheap).
        """
        if self._offsets is None:
            return
        self.flush()
        self._write_index()
        if self._descriptor is not None:
            os.close(self._descriptor)
            self._descriptor = None
        self._entries_at_close = len(self._offsets)
        self._offsets = None

    # -- introspection -----------------------------------------------------

    @property
    def entries(self) -> int:
        """Rows addressable right now.

        Opens a store never opened before; a closed store reports its
        count at close instead of reopening.
        """
        if self._offsets is None:
            if self._entries_at_close is not None:
                return self._entries_at_close
            self._open()
        return len(self._offsets) + len(self._buffer)

    def counters(self) -> Dict[str, int]:
        """The three tier counters, in ``vector_stats`` key form."""
        return {
            "l2_hits": self.l2_hits,
            "l2_misses": self.l2_misses,
            "l2_writes": self.l2_writes,
        }

    def stats(self) -> Dict[str, Union[int, float, str]]:
        """JSON-ready tier statistics (counters, sizes, hit rate)."""
        requests = self.l2_hits + self.l2_misses
        return {
            "directory": str(self.directory),
            "hits": self.l2_hits,
            "misses": self.l2_misses,
            "writes": self.l2_writes,
            "hit_rate": (self.l2_hits / requests) if requests else 0.0,
            "entries": self.entries,
            "loaded_entries": self.loaded_entries,
            "corrupt_lines": self.corrupt_lines,
        }

    def verify(self) -> Dict[str, Union[int, bool, str]]:
        """Read-only integrity report of the data file."""
        offsets, corrupt, _ = self._scan_data(0, {})
        return {
            "path": str(self.data_path),
            "entries": len(offsets),
            "corrupt_lines": corrupt,
            "ok": corrupt == 0,
        }

    # -- internals ---------------------------------------------------------

    def _open(self) -> None:
        """Load (or initialize) the store: header check, index, tail scan."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.data_path
        if path.exists() and path.stat().st_size > 0 and not self._header_ok():
            self._quarantine()
        if not path.exists() or path.stat().st_size == 0:
            header = (
                json.dumps(
                    {
                        "format": FORMAT_NAME,
                        "version": 1,
                        "key_version": KEY_VERSION,
                    }
                )
                + "\n"
            ).encode()
            descriptor = os.open(
                path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
            )
            try:
                if os.fstat(descriptor).st_size == 0:
                    view = memoryview(header)
                    while view:
                        view = view[os.write(descriptor, view) :]
            finally:
                os.close(descriptor)
        offsets: Dict[bytes, Tuple[int, int]] = {}
        covered = self._load_index(offsets) or 0
        offsets, corrupt, self._covered = self._scan_data(covered, offsets)
        if corrupt:
            warnings.warn(
                f"{path}: skipped {corrupt} undecodable cache line(s); "
                "damaged rows are re-priced by the engine, never served",
                PersistentCacheCorruption,
                stacklevel=3,
            )
            self.corrupt_lines += corrupt
        self._offsets = offsets
        if self._entries_at_close is None:
            self.loaded_entries = len(offsets)

    def _header_ok(self) -> bool:
        """True when the data file's first line matches this format/version."""
        try:
            with self.data_path.open("rb") as handle:
                first = handle.readline(4096)
            header = json.loads(first.decode())
            return (
                header.get("format") == FORMAT_NAME
                and header.get("key_version") == KEY_VERSION
            )
        except (OSError, ValueError, UnicodeDecodeError):
            return False

    def _quarantine(self) -> None:
        """Move a mismatched/unreadable store aside and start fresh."""
        for path in (self.data_path, self.index_path):
            if path.exists():
                target = path.with_name(path.name + ".quarantined")
                suffix = 0
                while target.exists():
                    suffix += 1
                    target = path.with_name(
                        f"{path.name}.quarantined.{suffix}"
                    )
                os.replace(path, target)
        warnings.warn(
            f"{self.data_path}: header does not match "
            f"{FORMAT_NAME} v{KEY_VERSION}; quarantined the old store and "
            "started fresh (rows keyed under other rules are never served)",
            PersistentCacheCorruption,
            stacklevel=3,
        )

    def _load_index(self, offsets: Dict[bytes, Tuple[int, int]]) -> Optional[int]:
        """Load the sidecar into ``offsets``; None means rebuild by scan.

        Returns the data size the index covers, so the caller only scans
        the tail appended since the index was written.  Any inconsistency
        — wrong magic/version, torn entry, count mismatch, covering more
        data than exists — discards the index (it is an accelerator, the
        data file is the source of truth).
        """
        path = self.index_path
        if not path.exists():
            return None
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        if len(raw) < _INDEX_HEADER.size:
            return None
        magic, version, key_version, covered, count = _INDEX_HEADER.unpack_from(
            raw, 0
        )
        payload = raw[_INDEX_HEADER.size :]
        if (
            magic != _INDEX_MAGIC
            or version != _INDEX_VERSION
            or key_version != KEY_VERSION
            or len(payload) % _INDEX_RECORD.size != 0
            or len(payload) // _INDEX_RECORD.size != count
            or covered > self.data_path.stat().st_size
        ):
            return None
        for position in range(count):
            digest, offset, length = _INDEX_RECORD.unpack_from(
                payload, position * _INDEX_RECORD.size
            )
            if offset + length > covered:
                offsets.clear()
                return None
            offsets[digest] = (offset, length)
        return covered

    def _write_index(self) -> None:
        """Atomically persist the offset table (temp + fsync + replace).

        The index claims to cover only data this instance has indexed:
        other writers' appends are scanned in first, so the last writer
        to close never hides their rows from later runs.
        """
        self._scan_tail()
        entries = self._offsets
        pieces = [
            _INDEX_HEADER.pack(
                _INDEX_MAGIC,
                _INDEX_VERSION,
                KEY_VERSION,
                self._covered,
                len(entries),
            )
        ]
        for digest, (offset, length) in entries.items():
            pieces.append(_INDEX_RECORD.pack(digest, offset, length))
        replace_atomically(self.index_path, b"".join(pieces))

    def _scan_tail(self) -> None:
        """Index records appended past :attr:`_covered` (by any writer)."""
        _, corrupt, self._covered = self._scan_data(self._covered, self._offsets)
        self.corrupt_lines += corrupt

    def _scan_data(
        self, start: int, offsets: Dict[bytes, Tuple[int, int]]
    ) -> Tuple[Dict[bytes, Tuple[int, int]], int, int]:
        """Index data records from byte ``start`` on.

        Returns the offsets, the corrupt-line count and the end of the
        last complete line.  A trailing line without a newline is a
        partial record from a killed (or still writing) writer: it is
        counted corrupt here (it cannot be served), left outside the
        returned end so a later scan revisits it, and healed by the
        newline-prefix check on the next append.
        """
        corrupt = 0
        cursor = start
        try:
            with self.data_path.open("rb") as handle:
                handle.seek(start)
                for line in handle:
                    length = len(line)
                    offset = cursor
                    stripped = line.strip()
                    if not line.endswith(b"\n"):
                        corrupt += 1 if stripped else 0
                        break
                    cursor += length
                    if not stripped:
                        continue
                    try:
                        record = json.loads(stripped)
                        key = record["k"]
                        values = record["v"]
                        digest = bytes.fromhex(key)
                        if len(digest) != 20 or not isinstance(values, list):
                            raise ValueError("malformed record")
                    except (ValueError, KeyError, TypeError):
                        if offset == 0 or b'"format"' in stripped:
                            continue  # the header line is not a record
                        corrupt += 1
                        continue
                    offsets[digest] = (offset, length)
        except OSError:
            pass
        return offsets, corrupt, cursor

    def _read_record(
        self, digest: bytes, offset: int, length: int
    ) -> Optional[tuple]:
        """Fetch and re-verify one record; None when it cannot be trusted."""
        descriptor = self._ensure_descriptor()
        try:
            raw = os.pread(descriptor, length, offset)
            record = json.loads(raw.decode())
            if record["k"] != digest.hex():
                return None
            values = record["v"]
            if not isinstance(values, list):
                return None
            return tuple(values)
        except (OSError, ValueError, KeyError, TypeError, UnicodeDecodeError):
            return None

    def _ensure_descriptor(self) -> int:
        if self._descriptor is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._descriptor = os.open(
                self.data_path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
            )
        return self._descriptor

    def __del__(self) -> None:
        try:
            if self._buffer and self._descriptor is not None:
                self.flush()
            if self._descriptor is not None:
                os.close(self._descriptor)
        except Exception:
            pass
