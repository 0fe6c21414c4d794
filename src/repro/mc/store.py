"""Explored-set state store + master checkpointing (DESIGN.md, "State
store and restartability").

Two concerns the search engines delegate here:

* **Membership storage** for the explored state set.  :class:`MemoryStore`
  is the plain in-memory set the engines always had (default — zero
  regression).  :class:`ShardedStore` shards digests by prefix into
  append-only files of fixed-width packed records, keeps a compact
  in-memory index (one small int per digest, ever) plus an LRU-bounded
  *resident* set, and spills cold digests to disk — the explored set of a
  NICE-style exhaustive search then scales past one process's RAM while
  the hot working set stays dictionary-fast.  Both expose one API:
  ``add(digest) -> bool`` (False = already present), ``add_batch``,
  ``in``, ``len``.

  The sharded fast path (record format v2): hex digests are packed to
  raw bytes (16 B for the engines' 32-char hashes — half the ASCII
  footprint), appends land in a per-shard tail buffer flushed in 64 KiB
  runs instead of one ``write()`` per state, and a per-shard Bloom
  filter answers definite-negative membership before the index or the
  disk probe is consulted.  A Bloom positive falls through to the exact
  probe, so false positives cost time, never correctness.

* **Checkpointing** the master's irreplaceable state.  A checkpoint is a
  directory ``ckpt-NNNNNNNN/`` holding the store's record files, a pickled
  ``meta`` blob (scenario spec, config, stats counters, frontier sibling
  groups, RNG state) and a ``MANIFEST.json`` with the byte size and
  blake2b checksum of every file.  Snapshots are **atomic**: everything is
  written and fsynced into a temp directory first, which is then renamed
  into place — a crash mid-write leaves only a temp directory that resume
  ignores.  :func:`load_latest_checkpoint` walks checkpoints newest-first
  and returns the first one that *validates* (manifest present, sizes and
  checksums match), so a torn or truncated snapshot silently falls back to
  the previous good one.  The frontier is stored as transport-agnostic
  ``(parent trace, [transition, ...] | None)`` sibling groups — the wire
  format of :class:`~repro.mc.wire.ExpandTask` — which is why a search
  checkpointed serially can resume on any transport and vice versa.

  Shard files are append-only, so snapshots are **incremental**: record
  files in a checkpoint are immutable *segments*; a shard unchanged since
  the previous snapshot is hard-linked (same inode, zero bytes copied)
  and a grown shard links its old segments and writes only the byte
  range appended since — snapshot cost is O(new states), not O(all
  states).  Bloom bitsets ride along as ``bloom-NNNN.bin`` summary files
  (linked too while their shard is unchanged) so resume loads them
  instead of recomputing from a full scan.  Format-1 checkpoints (ASCII
  records, no summaries) still load; the first snapshot a resumed run
  writes is a full format-2 one.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from repro.config import STORE_MEMORY, STORE_SHARDED

#: Bump when the checkpoint layout changes.  Format 2 packs hex digests
#: to raw bytes, names record files as per-shard segments, and adds
#: Bloom summary files; the loader still accepts format-1 snapshots.
CHECKPOINT_FORMAT = 2

#: Formats :func:`load_latest_checkpoint` accepts.
_READABLE_FORMATS = (1, CHECKPOINT_FORMAT)

#: Complete checkpoints kept per directory.  Two, not one: torn-write
#: recovery needs the previous snapshot to still exist when the newest
#: turns out to be corrupt.
CHECKPOINT_KEEP = 2

#: Record encodings.  ``hex``: the digest string is lowercase hex and is
#: stored packed (`bytes.fromhex`), record width = len(digest) / 2.
#: ``ascii``: the digest is stored as its ASCII bytes verbatim (format-1
#: behaviour, and the fallback for non-hex digests).
RECORD_HEX = "hex"
RECORD_ASCII = "ascii"

#: Default per-shard Bloom filter size in bits (128 KiB of bitset per
#: shard); 0 disables the filter.  Mirrored by NiceConfig.store_bloom_bits.
DEFAULT_BLOOM_BITS = 1 << 20

#: A shard's tail buffer is appended to its record file once it reaches
#: this many bytes (and always at flush/snapshot time).
_FLUSH_BYTES = 1 << 16

#: Pre-bound for the insert/lookup hot paths — skips the global + attr
#: lookup per call.
_from_bytes = int.from_bytes

_HEX_DIGITS = frozenset("0123456789abcdef")

_CKPT_PREFIX = "ckpt-"
_TMP_PREFIX = "tmp-ckpt-"
_MANIFEST = "MANIFEST.json"
_META = "meta.pkl"


class CheckpointError(RuntimeError):
    """No usable checkpoint could be written or loaded."""


def _is_hex(digest: str) -> bool:
    return (bool(digest) and len(digest) % 2 == 0
            and not set(digest) - _HEX_DIGITS)


def _encode_digest(digest: str, encoding: str) -> bytes | None:
    """``digest`` as a packed record, or None if it doesn't fit
    ``encoding`` (non-hex under RECORD_HEX, non-ASCII under RECORD_ASCII)."""
    if encoding == RECORD_HEX:
        if not _is_hex(digest):
            return None
        return bytes.fromhex(digest)
    try:
        return digest.encode("ascii")
    except UnicodeEncodeError:
        return None


def pack_digest(digest: str) -> bytes | None:
    """``digest`` packed the way the Bloom filters pack it (hex digests
    to raw bytes, anything else to its ASCII bytes), or None when it
    fits neither (None and empty included)."""
    if not digest:
        return None
    if _is_hex(digest):
        return bytes.fromhex(digest)
    try:
        return digest.encode("ascii")
    except (AttributeError, UnicodeEncodeError):
        return None


# ----------------------------------------------------------------------
# Bloom filters
# ----------------------------------------------------------------------

class BloomFilter:
    """A k=2 double-hashed bitset over packed digest records — one per
    ShardedStore shard.  Sizes round up to a power of two (each probe is
    a mask, not a modulo) and both probe positions come from record
    bytes ``[6:14]``
    — bytes the sharded index prefix does not use, so a prefix
    collision still gets a real second opinion.  False positives cost
    time, never correctness; a false negative is impossible for any
    record whose bits were added.
    """

    __slots__ = ("bits", "mask", "data")

    def __init__(self, bits: int, data: bytes | bytearray | None = None):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        m = 1 << max(3, (bits - 1).bit_length())
        self.bits = m
        self.mask = m - 1
        if data is None:
            self.data = bytearray(m >> 3)
        else:
            if len(data) != m >> 3:
                raise ValueError(
                    f"bitset is {len(data)} bytes, want {m >> 3}")
            self.data = bytearray(data)

    def add(self, record: bytes) -> bool:
        """Set ``record``'s bits; True iff any bit actually changed."""
        data = self.data
        mask = self.mask
        b = _from_bytes(record[6:14], "little")
        b1 = b & mask
        b2 = (b >> 32) & mask
        changed = False
        byte, bit = b1 >> 3, 1 << (b1 & 7)
        if not data[byte] & bit:
            data[byte] |= bit
            changed = True
        byte, bit = b2 >> 3, 1 << (b2 & 7)
        if not data[byte] & bit:
            data[byte] |= bit
            changed = True
        return changed

    def add_run(self, view: bytes, width: int) -> None:
        """Batched ``add`` over a packed run of ``width``-byte records
        (the store's flush path; no change tracking)."""
        data = self.data
        mask = self.mask
        hi = min(width, 14)
        for start in range(0, len(view), width):
            b = _from_bytes(view[start + 6:start + hi], "little")
            b1 = b & mask
            b2 = (b >> 32) & mask
            data[b1 >> 3] |= 1 << (b1 & 7)
            data[b2 >> 3] |= 1 << (b2 & 7)

    def may_hold(self, record: bytes) -> bool:
        """False means ``record`` was definitely never added."""
        data = self.data
        mask = self.mask
        b = _from_bytes(record[6:14], "little")
        b1 = b & mask
        b2 = (b >> 32) & mask
        return bool((data[b1 >> 3] >> (b1 & 7)) & 1
                    and (data[b2 >> 3] >> (b2 & 7)) & 1)


# ----------------------------------------------------------------------
# State stores
# ----------------------------------------------------------------------

class StateStore:
    """Explored-set membership storage; see module docstring."""

    #: Engine-facing name ("memory" / "sharded"), surfaced in SearchStats.
    kind = "store"

    def add(self, digest: str) -> bool:
        """Record ``digest``; False means it was already present."""
        raise NotImplementedError

    def add_batch(self, digests) -> list[bool]:
        """Record a batch of digests; one bool per digest, in order
        (False = already present).

        Deliberately routed through ``self.add`` for every store: the
        crash-recovery harness plants kill points by monkeypatching
        ``add`` on the store *instance*, and batching must not tunnel
        past that seam.  Stores that buffer writes (ShardedStore)
        amortise the I/O inside ``add`` itself, so this loop stays one
        dict probe per digest.
        """
        add = self.add
        return [add(digest) for digest in digests]

    def __contains__(self, digest: str) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def digests(self):
        """Iterate every stored digest (insertion order per shard)."""
        raise NotImplementedError

    def counters(self) -> dict:
        """Spill/hit counters: ``hits`` (lookups answered from memory),
        ``spill_reads`` (lookups that had to read shard records),
        ``evictions`` (digests spilled out of the resident set) and
        ``bloom_negatives`` (lookups the Bloom filter answered)."""
        return {"hits": 0, "spill_reads": 0, "evictions": 0,
                "bloom_negatives": 0}

    def preload(self, digests, summaries=None) -> None:
        """Bulk-load digests (checkpoint resume) without counter noise.

        ``summaries`` is an optional ``[(shard, path), ...]`` list of
        Bloom bitset files from the checkpoint being resumed; stores
        without shard summaries ignore it.
        """
        for digest in digests:
            self.add(digest)
        self.reset_counters()

    def reset_counters(self) -> None:
        pass

    def snapshot_into(self, directory: Path, previous: Path | None = None):
        """Write the store's contents as fixed-width record files into
        ``directory``; returns ``(record_names, summary_names, carried)``
        where ``carried`` maps file names that were hard-linked from the
        ``previous`` checkpoint directory to their known manifest info
        (``{"bytes": ..., "blake2b": ...}``) so the writer can skip
        re-hashing them."""
        raise NotImplementedError

    def note_snapshot(self, files_info: dict) -> None:
        """Called after a snapshot *committed* (renamed into place);
        ``files_info`` is the manifest's per-file info.  Stores that
        track segments promote the pending snapshot layout to the
        committed baseline here."""

    def adopt_baseline(self, checkpoint: "Checkpoint") -> bool:
        """Adopt ``checkpoint``'s record files as this store's committed
        segment baseline (so the next snapshot links instead of
        rewriting).  Returns False when the layouts are incompatible —
        the next snapshot is then a full rewrite, which is always
        correct."""
        return False

    def record_width(self) -> int:
        """Bytes per record (0 while empty)."""
        raise NotImplementedError

    def record_encoding(self) -> str:
        """How records map back to digest strings (RECORD_HEX/ASCII)."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class MemoryStore(StateStore):
    """The engines' original explored set: one in-memory hash table."""

    kind = STORE_MEMORY

    def __init__(self):
        # A dict, not a set: insertion order survives snapshot/reload, so
        # a resumed serial DFS walks the identical frontier order.
        self._digests: dict[str, None] = {}
        self._hits = 0

    def add(self, digest: str) -> bool:
        if digest in self._digests:
            self._hits += 1
            return False
        self._digests[digest] = None
        return True

    def __contains__(self, digest: str) -> bool:
        if digest in self._digests:
            self._hits += 1
            return True
        return False

    def __len__(self) -> int:
        return len(self._digests)

    def digests(self):
        return iter(self._digests)

    def counters(self) -> dict:
        return {"hits": self._hits, "spill_reads": 0, "evictions": 0,
                "bloom_negatives": 0}

    def reset_counters(self) -> None:
        self._hits = 0

    def record_encoding(self) -> str:
        for digest in self._digests:
            return RECORD_HEX if _is_hex(digest) else RECORD_ASCII
        return RECORD_ASCII

    def record_width(self) -> int:
        for digest in self._digests:
            if _is_hex(digest):
                return len(digest) // 2
            return len(digest.encode("ascii"))
        return 0

    def snapshot_into(self, directory: Path, previous: Path | None = None):
        name = "states-0000.bin"
        encoding = self.record_encoding()
        width = self.record_width()
        buffer = bytearray()
        with open(directory / name, "wb") as handle:
            for digest in self._digests:
                record = _encode_digest(digest, encoding)
                if record is None or len(record) != width:
                    # Mis-sliced records would corrupt every digest after
                    # the first odd one out on resume — refuse now.
                    raise ValueError(
                        f"digest width changed mid-run: {digest!r} does "
                        f"not pack to {width} {encoding} bytes (mixed "
                        f"hash modes in one store?)")
                buffer += record
                if len(buffer) >= (1 << 20):
                    handle.write(buffer)
                    buffer.clear()
            handle.write(buffer)
        return [name], [], {}


class ShardedStore(StateStore):
    """Digest-prefix shards, append-only record files, LRU resident set.

    Layout per shard ``i``: an append-only file of fixed-width packed
    records (record ``n`` lives at byte ``n * width``) behind an
    in-memory tail buffer, plus an in-memory index mapping a 48-bit
    digest prefix to the slot(s) holding it, plus a Bloom bitset over
    the shard's *flushed* (on-disk) records.  Membership: the LRU
    *resident* dict answers hot lookups from memory; a prefix absent
    from the (exact) index is a definitive memory-only miss; otherwise
    the candidate slots are compared against the tail buffer or the
    shard file — and before any disk read the Bloom bitset gets a say:
    a definite negative skips the file probe entirely.  Inserts append
    one record to the tail buffer (flushed to the file in 64 KiB runs)
    and one index entry; when the resident set exceeds
    ``memory_budget`` digests the oldest entries spill (the index entry
    — one small int — is all that remains in memory).

    Bloom maintenance is deferred to flush time — bits are set in one
    batched pass over each 64 KiB run as it goes to disk, LSM-style
    (build the summary when the data becomes immutable), which keeps
    the add() hot path free of per-record bitset arithmetic.
    """

    kind = STORE_SHARDED

    def __init__(self, shards: int = 16, memory_budget: int = 1_000_000,
                 directory: str | None = None,
                 bloom_bits: int = DEFAULT_BLOOM_BITS):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if memory_budget < 1:
            raise ValueError("memory_budget must be >= 1")
        if bloom_bits < 0:
            raise ValueError("bloom_bits must be >= 0")
        self.shards = shards
        self.memory_budget = memory_budget
        self._owns_dir = directory is None
        self.directory = Path(directory or tempfile.mkdtemp(
            prefix="nice-store-"))
        self.directory.mkdir(parents=True, exist_ok=True)
        self._files = [
            open(self.directory / self._shard_name(i), "w+b")
            for i in range(shards)
        ]
        #: Per shard: 48-bit digest prefix -> slot int (or tuple of slots
        #: on the rare prefix collision).
        self._index: list[dict[int, int | tuple]] = [{} for _ in range(shards)]
        self._slots = [0] * shards
        #: Bytes flushed to each shard file (always a record multiple).
        self._flushed = [0] * shards
        #: Records appended but not yet written to the shard file.
        self._tails = [bytearray() for _ in range(shards)]
        #: LRU resident set: a plain (insertion-ordered) dict — cheaper
        #: per insert than OrderedDict on the hot path; touches re-insert.
        self._resident: dict[str, None] = {}
        self._count = 0
        self._width = 0
        self._encoding: str | None = None
        # -1 until hex encoding is chosen: ``len(digest)`` can never be
        # negative, so add()'s single-comparison fast-path check stays
        # false both before init and in ascii mode.
        self._hexlen = -1
        if bloom_bits:
            self._bloom: list[BloomFilter] | None = [
                BloomFilter(bloom_bits) for _ in range(shards)]
            self.bloom_bits = self._bloom[0].bits
        else:
            self.bloom_bits = 0
            self._bloom = None
        #: True while preload() replays a checkpoint whose Bloom
        #: summaries were loaded verbatim — flushes skip rebuilding bits
        #: the summary already holds.
        self._bloom_precovered = False
        self._hits = 0
        self._spill_reads = 0
        self._evictions = 0
        self._bloom_negatives = 0
        #: Committed snapshot baseline, per shard: [(name, bytes, info)]
        #: segment lists matching the previous successful checkpoint.
        self._segments: list[list] = [[] for _ in range(shards)]
        self._snap_slots = [0] * shards
        #: Manifest info for committed Bloom files, by file name.
        self._bloom_info: dict[str, dict] = {}
        self._pending_segments: list[list] | None = None
        self._pending_bloom: list[str] = []

    @staticmethod
    def _shard_name(index: int) -> str:
        return f"states-{index:04d}.bin"

    def _init_encoding(self, digest: str) -> None:
        if _is_hex(digest):
            self._encoding = RECORD_HEX
            self._hexlen = len(digest)
            self._width = len(digest) // 2
        else:
            self._encoding = RECORD_ASCII
            self._width = len(digest.encode("ascii"))

    def _pack(self, digest: str) -> bytes:
        """``digest`` as this store's packed record; raises the
        mixed-hash-modes ValueError on any width/encoding mismatch —
        from lookups as well as inserts (a silent False here would let
        one run mix digest schemes and corrupt dedup).  Hex-mode records
        canonicalize to lowercase (``bytes.fromhex`` is case-blind)."""
        if self._encoding is None:
            self._init_encoding(digest)
        if self._encoding == RECORD_HEX:
            if len(digest) == self._hexlen:
                try:
                    return bytes.fromhex(digest)
                except ValueError:
                    pass
        else:
            try:
                record = digest.encode("ascii")
            except UnicodeEncodeError:
                record = None
            if record is not None and len(record) == self._width:
                return record
        raise ValueError(
            f"digest width changed mid-run: {digest!r} does not pack to "
            f"{self._width} {self._encoding} bytes (mixed hash modes in "
            f"one store?)")

    def _bloom_may_hold(self, shard: int, record: bytes) -> bool:
        """False means ``record`` is definitely not among the shard's
        flushed records (the bitset covers exactly those)."""
        bloom = self._bloom
        if bloom is None:
            return True
        return bloom[shard].may_hold(record)

    def _probe_records(self, shard: int, slots, record: bytes) -> bool:
        """Compare ``record`` against the candidate slots — in the tail
        buffer when the slot hasn't been flushed yet, else on disk.
        Disk probes cost a seek+read, so the shard's Bloom bitset is
        consulted once before the first one: a definite negative skips
        every flushed slot (tail slots are still compared — they live
        in memory and the bitset does not cover them)."""
        width = self._width
        flushed = self._flushed[shard]
        tail = self._tails[shard]
        handle = self._files[shard]
        disk_ok = None
        for slot in slots if isinstance(slots, tuple) else (slots,):
            offset = slot * width
            if offset >= flushed:
                self._spill_reads += 1
                start = offset - flushed
                if bytes(tail[start:start + width]) == record:
                    return True
            else:
                if disk_ok is None:
                    disk_ok = self._bloom_may_hold(shard, record)
                    if not disk_ok:
                        self._bloom_negatives += 1
                if disk_ok:
                    self._spill_reads += 1
                    handle.seek(offset)
                    if handle.read(width) == record:
                        return True
        return False

    def _touch(self, digest: str) -> None:
        """Enter ``digest`` into the resident LRU, spilling the coldest.
        Re-inserting moves an existing key to the back of the (insertion-
        ordered) dict, so eviction order is least-recently-touched."""
        resident = self._resident
        resident.pop(digest, None)
        resident[digest] = None
        while len(resident) > self.memory_budget:
            del resident[next(iter(resident))]
            self._evictions += 1

    def __contains__(self, digest: str) -> bool:
        resident = self._resident
        if digest in resident:
            self._hits += 1
            del resident[digest]
            resident[digest] = None
            return True
        if not self._count:
            return False
        record = self._pack(digest)
        # Small-int prefix (first six record bytes) — bigint arithmetic
        # on the full record is 2-3x the cost per operation.
        prefix = _from_bytes(record[:6], "little")
        shard = prefix % self.shards
        slots = self._index[shard].get(prefix)
        if slots is None:
            return False
        if self._probe_records(shard, slots, record):
            self._touch(digest)
            return True
        return False

    def add(self, digest: str) -> bool:
        resident = self._resident
        if digest in resident:
            self._hits += 1
            del resident[digest]
            resident[digest] = None
            return False
        # Inlined hex fast path of _pack (this is *the* hot loop of an
        # exhaustive search); everything else falls into _pack, which
        # also performs first-digest encoding setup and error reporting.
        if len(digest) == self._hexlen:
            try:
                record = bytes.fromhex(digest)
            except ValueError:
                record = self._pack(digest)
        else:
            record = self._pack(digest)
        prefix = _from_bytes(record[:6], "little")
        shard = prefix % self.shards
        slot = self._slots[shard]
        # setdefault folds the common miss-then-insert pair into one
        # dict op.  Identity is sound: it returns the exact object we
        # passed iff it inserted, and any pre-existing entry holds a
        # strictly smaller slot (or a tuple), never this one.
        held = self._index[shard].setdefault(prefix, slot)
        if held is not slot:
            if self._probe_records(shard, held, record):
                self._touch(digest)
                return False
            self._index[shard][prefix] = held + (slot,) \
                if isinstance(held, tuple) else (held, slot)
        tail = self._tails[shard]
        tail += record
        self._slots[shard] = slot + 1
        self._count += 1
        resident[digest] = None
        if len(resident) > self.memory_budget:
            del resident[next(iter(resident))]
            self._evictions += 1
        if len(tail) >= _FLUSH_BYTES:
            self._flush_shard(shard)
        return True

    def __len__(self) -> int:
        return self._count

    def _flush_shard(self, shard: int) -> None:
        tail = self._tails[shard]
        if not tail:
            return
        bloom = self._bloom
        if bloom is not None and not self._bloom_precovered:
            # Deferred Bloom maintenance: the bitset covers exactly the
            # flushed records, so the per-record arithmetic runs here in
            # one batched pass over the outgoing run — never on add().
            bloom[shard].add_run(bytes(tail), self._width)
        handle = self._files[shard]
        handle.seek(0, io.SEEK_END)
        handle.write(tail)
        self._flushed[shard] += len(tail)
        self._tails[shard] = bytearray()

    def flush(self) -> None:
        """Append every shard's tail buffer to its record file."""
        for shard in range(self.shards):
            if self._tails[shard]:
                self._flush_shard(shard)

    def digests(self):
        width = self._width
        if not width:
            return
        # Chunked, record-aligned reads: iterating the store must not
        # buffer a whole shard file — for the explored sets this store
        # exists for, that file can approach the RAM being avoided.
        chunk_size = max(1, (1 << 20) // width) * width
        hexed = self._encoding == RECORD_HEX
        for shard in range(self.shards):
            handle = self._files[shard]
            # Snapshot the flushed extent and the tail buffer *together*
            # before streaming either leg: this is a generator, and a
            # flush on another code path (a checkpoint mid-iteration)
            # both moves tail records past the flushed mark and moves
            # the shared file handle — reading "flushed then tail" live
            # would skip those records or yield them twice.  The
            # snapshot pins exactly the records present when the
            # shard's iteration began, and every read re-seeks to its
            # own offset so a concurrent append can't hijack the
            # position.
            flushed = self._flushed[shard]
            tail = bytes(self._tails[shard])
            offset = 0
            while offset < flushed:
                handle.seek(offset)
                data = handle.read(min(chunk_size, flushed - offset))
                if not data:
                    break
                offset += len(data)
                for start in range(0, len(data), width):
                    record = data[start:start + width]
                    yield record.hex() if hexed else record.decode("ascii")
            for start in range(0, len(tail), width):
                record = tail[start:start + width]
                yield record.hex() if hexed else record.decode("ascii")

    def counters(self) -> dict:
        return {"hits": self._hits, "spill_reads": self._spill_reads,
                "evictions": self._evictions,
                "bloom_negatives": self._bloom_negatives}

    def reset_counters(self) -> None:
        self._hits = self._spill_reads = self._evictions = 0
        self._bloom_negatives = 0

    def preload(self, digests, summaries=None) -> None:
        # Bloom disabled (store_bloom_bits=0) is an explicit no-op for
        # shipped summaries: a resumed bloom-less store must never load
        # a checkpoint's stale bitsets.  The inverse — bloom enabled,
        # summary-less snapshot — takes the `summaries is None` path and
        # rebuilds bitsets at flush time below.
        if summaries is not None and self._bloom is not None:
            expected = self.bloom_bits >> 3
            loaded = [BloomFilter(self.bloom_bits)
                      for _ in range(self.shards)]
            usable = True
            for shard, path in summaries:
                try:
                    data = Path(path).read_bytes()
                except OSError:
                    usable = False
                    break
                if shard >= self.shards or len(data) != expected:
                    usable = False
                    break
                loaded[shard] = BloomFilter(self.bloom_bits, data)
            if usable:
                # The shipped summaries cover every checkpointed record,
                # so the replay below skips rebuilding bits at flush
                # time — the point of serializing them.
                self._bloom = loaded
                self._bloom_precovered = True
        try:
            for digest in digests:
                self.add(digest)
            if self._bloom_precovered:
                self.flush()
        finally:
            self._bloom_precovered = False
        self.reset_counters()

    def record_width(self) -> int:
        return self._width

    def record_encoding(self) -> str:
        return self._encoding or RECORD_ASCII

    # -- snapshots ------------------------------------------------------

    @staticmethod
    def _segment_name(shard: int, segment: int) -> str:
        return f"states-{shard:04d}-{segment:04d}.bin"

    @staticmethod
    def _bloom_name(shard: int) -> str:
        return f"bloom-{shard:04d}.bin"

    def _copy_range(self, shard: int, start: int, end: int,
                    dest: Path) -> None:
        handle = self._files[shard]
        handle.seek(start)
        remaining = end - start
        with open(dest, "wb") as out:
            while remaining:
                data = handle.read(min(1 << 20, remaining))
                if not data:
                    raise CheckpointError(
                        f"shard {shard} truncated during snapshot")
                out.write(data)
                remaining -= len(data)

    def snapshot_into(self, directory: Path, previous: Path | None = None):
        self.flush()
        directory = Path(directory)
        record_names: list[str] = []
        summary_names: list[str] = []
        carried: dict[str, dict] = {}
        pending: list[list] = [[] for _ in range(self.shards)]
        pending_bloom: list[str] = []
        for shard in range(self.shards):
            size = self._flushed[shard]
            if not size:
                continue
            committed = self._segments[shard]
            base = sum(nbytes for _, nbytes, _ in committed)
            reused: list = []
            if previous is not None and committed and base <= size and \
                    all(info is not None for _, _, info in committed):
                try:
                    for name, nbytes, info in committed:
                        os.link(previous / name, directory / name)
                        reused.append((name, nbytes, info))
                except OSError:
                    # Cross-device / platform without links / pruned
                    # source: fall back to a full rewrite of this shard.
                    for name, _, _ in reused:
                        try:
                            (directory / name).unlink()
                        except OSError:
                            pass
                    reused = []
            if not reused:
                base = 0
            segments = list(reused)
            if size > base:
                seg_name = self._segment_name(shard, len(segments))
                self._copy_range(shard, base, size, directory / seg_name)
                segments.append((seg_name, size - base, None))
            pending[shard] = segments
            for name, _, info in segments:
                record_names.append(name)
                if info is not None:
                    carried[name] = info
            if self._bloom is not None:
                bloom_name = self._bloom_name(shard)
                info = self._bloom_info.get(bloom_name)
                linked = False
                if previous is not None and info is not None and \
                        self._slots[shard] == self._snap_slots[shard]:
                    try:
                        os.link(previous / bloom_name, directory / bloom_name)
                        carried[bloom_name] = info
                        linked = True
                    except OSError:
                        try:
                            (directory / bloom_name).unlink()
                        except OSError:
                            pass
                if not linked:
                    (directory / bloom_name).write_bytes(
                        bytes(self._bloom[shard].data))
                summary_names.append(bloom_name)
                pending_bloom.append(bloom_name)
        self._pending_segments = pending
        self._pending_bloom = pending_bloom
        return record_names, summary_names, carried

    def note_snapshot(self, files_info: dict) -> None:
        pending = self._pending_segments
        if pending is None:
            return
        self._segments = [
            [(name, nbytes, info if info is not None
              else files_info.get(name))
             for name, nbytes, info in segments]
            for segments in pending
        ]
        self._snap_slots = list(self._slots)
        self._bloom_info = {
            name: files_info[name]
            for name in self._pending_bloom if name in files_info
        }
        self._pending_segments = None
        self._pending_bloom = []

    @staticmethod
    def _parse_record_name(name: str):
        """``states-SSSS[-NNNN].bin`` -> (shard, segment) or None."""
        if not name.startswith("states-") or not name.endswith(".bin"):
            return None
        parts = name[len("states-"):-len(".bin")].split("-")
        if len(parts) not in (1, 2):
            return None
        try:
            shard = int(parts[0])
            segment = int(parts[1]) if len(parts) == 2 else 0
        except ValueError:
            return None
        return shard, segment

    @staticmethod
    def _parse_bloom_name(name: str):
        if not name.startswith("bloom-") or not name.endswith(".bin"):
            return None
        try:
            return int(name[len("bloom-"):-len(".bin")])
        except ValueError:
            return None

    def adopt_baseline(self, checkpoint: "Checkpoint") -> bool:
        if not self._count or checkpoint.record_encoding != self._encoding \
                or checkpoint.record_width != self._width:
            return False
        self.flush()
        grouped: dict[int, list] = {}
        for path in checkpoint.record_files:
            parsed = self._parse_record_name(path.name)
            info = checkpoint.file_info.get(path.name)
            if parsed is None or info is None or parsed[0] >= self.shards:
                return False
            grouped.setdefault(parsed[0], []).append(
                (parsed[1], path.name, info))
        segments: list[list] = [[] for _ in range(self.shards)]
        sizes = [0] * self.shards
        for shard, entries in grouped.items():
            entries.sort()
            for _, name, info in entries:
                segments[shard].append((name, info["bytes"], info))
                sizes[shard] += info["bytes"]
        # The preloaded store must hold byte-for-byte what the segments
        # hold (same shard assignment, same per-shard order) for linking
        # to be sound; the cheap proxy is an exact per-shard byte match.
        if sizes != self._flushed:
            return False
        self._segments = segments
        self._snap_slots = list(self._slots)
        self._bloom_info = {}
        if self._bloom is not None:
            for path in checkpoint.summary_files:
                shard = self._parse_bloom_name(path.name)
                info = checkpoint.file_info.get(path.name)
                if shard is None or shard >= self.shards or info is None:
                    continue
                if info["bytes"] == len(self._bloom[shard].data):
                    self._bloom_info[path.name] = info
        return True

    def close(self) -> None:
        try:
            self.flush()
        except (OSError, ValueError):
            pass
        for handle in self._files:
            try:
                handle.close()
            except OSError:
                pass
        if self._owns_dir:
            shutil.rmtree(self.directory, ignore_errors=True)


def create_store(config) -> StateStore:
    """The explored-set store ``config`` asks for.

    The crash-recovery harness monkeypatches this hook to plant seeded
    interruption points, so the engines must resolve it through the
    module (``store_mod.create_store``) at run time, not import time.
    """
    if config.store == STORE_SHARDED:
        return ShardedStore(
            config.store_shards, config.store_memory_budget,
            bloom_bits=getattr(config, "store_bloom_bits",
                               DEFAULT_BLOOM_BITS))
    return MemoryStore()


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

#: SearchStats fields that describe *this* run, not accumulated results —
#: never restored from a checkpoint.
_NON_RESUMABLE = ("wall_time", "engine", "workers", "terminated",
                  "resumed_from")


@dataclass
class Checkpoint:
    """One loaded (validated) checkpoint."""

    path: Path
    spec: object            # ScenarioSpec | None (hand-built scenarios)
    config: object          # the NiceConfig the run was using
    stats: dict             # SearchStats.__dict__ snapshot
    frontier: list          # [(parent trace, [transition, ...] | None)]
    rng_state: object       # random.Random state of the frontier RNG
    states: int             # digest count across the record files
    record_width: int
    record_files: list[Path]
    record_encoding: str = RECORD_ASCII
    summary_files: list[Path] = field(default_factory=list)
    file_info: dict = field(default_factory=dict)
    format: int = 1
    bytes_written: int | None = None

    def iter_digests(self):
        width = self.record_width
        if not width:
            return  # a checkpoint of an empty store holds no records
        hexed = self.record_encoding == RECORD_HEX
        # Chunked, record-aligned reads: resume must not buffer a whole
        # record file — for the explored sets the sharded store exists
        # for, that file can approach the RAM the store is avoiding.
        chunk_size = max(1, (1 << 20) // width) * width
        for path in self.record_files:
            with open(path, "rb") as handle:
                while True:
                    data = handle.read(chunk_size)
                    if not data:
                        break
                    for offset in range(0, len(data), width):
                        record = data[offset:offset + width]
                        yield record.hex() if hexed \
                            else record.decode("ascii")

    def restore_stats(self, stats) -> None:
        """Seed a fresh SearchStats with the checkpointed counters.  Keys
        that are not per-run counters of this version — fields since
        removed, or class-level constants — are skipped."""
        for key, value in self.stats.items():
            if key in _NON_RESUMABLE or key not in vars(stats):
                continue
            setattr(stats, key, value)
        stats.resumed_from = str(self.path)


def restore_store(store: StateStore, checkpoint: Checkpoint):
    """Rebuild ``store`` from ``checkpoint``: preload every digest (with
    the checkpoint's Bloom summaries when they fit this store's shape)
    and adopt the checkpoint's record files as the compaction baseline.
    Returns the baseline path for the next snapshot to hard-link from,
    or None when the layouts are incompatible (full rewrite instead)."""
    store.preload(checkpoint.iter_digests(),
                  summaries=_compatible_summaries(store, checkpoint))
    if store.adopt_baseline(checkpoint):
        return checkpoint.path
    return None


def _compatible_summaries(store: StateStore, checkpoint: Checkpoint):
    """The checkpoint's ``(shard, path)`` Bloom files, iff they describe
    this store's exact shard layout and bitset size — a bitset for a
    different sharding would answer false negatives, which (unlike false
    positives) would corrupt dedup.

    Both resume mismatch directions return None on purpose: a bloom-less
    snapshot resumed with bloom enabled rebuilds bitsets at flush time,
    and a bloom-carrying snapshot resumed with ``store_bloom_bits=0``
    (or any other bitset/shard shape) ignores the stale files."""
    if not checkpoint.summary_files or not isinstance(store, ShardedStore):
        return None
    if store._bloom is None:
        return None
    if getattr(checkpoint.config, "store_shards", None) != store.shards:
        return None
    expected = store.bloom_bits >> 3
    pairs = []
    for path in checkpoint.summary_files:
        shard = ShardedStore._parse_bloom_name(path.name)
        info = checkpoint.file_info.get(path.name)
        if shard is None or shard >= store.shards or info is None:
            return None
        if info["bytes"] != expected:
            return None
        pairs.append((shard, path))
    return pairs


def _file_digest(path: Path) -> str:
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _fsync_dir(path: Path) -> None:
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory fsync
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _next_sequence(directory: Path) -> int:
    highest = 0
    for entry in directory.glob(f"{_CKPT_PREFIX}*"):
        try:
            highest = max(highest, int(entry.name[len(_CKPT_PREFIX):]))
        except ValueError:
            continue
    return highest + 1


def write_checkpoint(directory: str | Path, *, spec, config, stats,
                     frontier, rng_state, store: StateStore,
                     previous: str | Path | None = None) -> Path:
    """Atomically snapshot one consistent master state; returns the new
    checkpoint's path.  ``previous`` is the last committed checkpoint of
    this same store, if any — unchanged record segments and Bloom files
    are hard-linked from it instead of rewritten, which is what makes
    snapshot cost O(new states).  See the module docstring for the
    atomicity protocol."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    sequence = _next_sequence(root)
    name = f"{_CKPT_PREFIX}{sequence:08d}"
    staging = root / f"{_TMP_PREFIX}{sequence:08d}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        record_files, summary_files, carried = store.snapshot_into(
            staging, previous=Path(previous) if previous else None)
        meta = {
            "spec": spec,
            "config": config,
            "stats": dict(stats.__dict__),
            "frontier": list(frontier),
            "rng_state": rng_state,
        }
        with open(staging / _META, "wb") as handle:
            pickle.dump(meta, handle, protocol=pickle.HIGHEST_PROTOCOL)
        files = {}
        bytes_written = 0
        for file_name in [*record_files, *summary_files, _META]:
            info = carried.get(file_name)
            if info is None:
                path = staging / file_name
                info = {"bytes": path.stat().st_size,
                        "blake2b": _file_digest(path)}
                bytes_written += info["bytes"]
            files[file_name] = info
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "states": len(store),
            "record_width": store.record_width(),
            "record_encoding": store.record_encoding(),
            "record_files": record_files,
            "summary_files": summary_files,
            "bytes_written": bytes_written,
            "store": store.kind,
            "files": files,
        }
        # The manifest is written (and fsynced) last: a crash before this
        # point leaves a manifest-less temp directory resume ignores.
        (staging / _MANIFEST).write_text(json.dumps(manifest, indent=1))
        for file_name in [*files, _MANIFEST]:
            if file_name in carried:
                continue  # hard-linked: already durable in the previous
            with open(staging / file_name, "rb") as handle:
                os.fsync(handle.fileno())
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    os.rename(staging, root / name)
    _fsync_dir(root)
    store.note_snapshot(files)
    _prune(root)
    return root / name


def _prune(root: Path) -> None:
    complete = sorted(root.glob(f"{_CKPT_PREFIX}*"))
    for stale in complete[:-CHECKPOINT_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)


def _validate(path: Path) -> Checkpoint:
    manifest = json.loads((path / _MANIFEST).read_text())
    if manifest.get("format") not in _READABLE_FORMATS:
        raise CheckpointError(
            f"{path.name}: checkpoint format {manifest.get('format')!r} "
            f"not in {_READABLE_FORMATS}")
    for file_name, expected in manifest["files"].items():
        target = path / file_name
        if not target.is_file():
            raise CheckpointError(f"{path.name}: missing {file_name}")
        if target.stat().st_size != expected["bytes"]:
            raise CheckpointError(
                f"{path.name}: {file_name} is {target.stat().st_size} "
                f"bytes, manifest says {expected['bytes']} (torn write?)")
        if _file_digest(target) != expected["blake2b"]:
            raise CheckpointError(
                f"{path.name}: {file_name} fails its checksum")
    with open(path / _META, "rb") as handle:
        meta = pickle.load(handle)
    return Checkpoint(
        path=path,
        spec=meta["spec"],
        config=meta["config"],
        stats=meta["stats"],
        frontier=meta["frontier"],
        rng_state=meta["rng_state"],
        states=manifest["states"],
        record_width=manifest["record_width"],
        record_files=[path / name for name in manifest["record_files"]],
        # Format-1 snapshots predate packing, summaries and compaction.
        record_encoding=manifest.get("record_encoding", RECORD_ASCII),
        summary_files=[path / name
                       for name in manifest.get("summary_files", [])],
        file_info=manifest["files"],
        format=manifest["format"],
        bytes_written=manifest.get("bytes_written"),
    )


def list_checkpoints(directory: str | Path) -> list[Path]:
    """All checkpoint directories under ``directory``, oldest first."""
    return sorted(Path(directory).glob(f"{_CKPT_PREFIX}*"))


def validate_checkpoint(path: str | Path) -> Checkpoint:
    """Validate and load one checkpoint directory (manifest format, file
    sizes, blake2b checksums) — the ``nice checkpoints`` inspector's entry
    point into the same validator ``nice resume`` trusts.  Raises
    :class:`CheckpointError` on a torn or corrupt snapshot."""
    try:
        return _validate(Path(path))
    except CheckpointError:
        raise
    except (OSError, json.JSONDecodeError, pickle.UnpicklingError,
            KeyError, EOFError) as exc:
        raise CheckpointError(f"{Path(path).name}: {exc}") from exc


def load_latest_checkpoint(directory: str | Path) -> Checkpoint:
    """The newest checkpoint under ``directory`` that validates.

    Invalid snapshots (torn writes, truncations, bad checksums) are
    reported to stderr and skipped — resume falls back to the previous
    good one.  Raises :class:`CheckpointError` when none validates.
    """
    import sys

    root = Path(directory)
    candidates = sorted(root.glob(f"{_CKPT_PREFIX}*"), reverse=True)
    failures = []
    for candidate in candidates:
        try:
            return _validate(candidate)
        except (CheckpointError, OSError, json.JSONDecodeError,
                pickle.UnpicklingError, KeyError, EOFError) as exc:
            failures.append(f"{candidate.name}: {exc}")
            print(f"checkpoint {candidate} is unusable ({exc}); "
                  f"falling back to the previous one",
                  file=sys.stderr, flush=True)
    detail = "; ".join(failures) if failures else "no checkpoints found"
    raise CheckpointError(f"no usable checkpoint under {root}: {detail}")


# ----------------------------------------------------------------------
# The engines' checkpoint driver
# ----------------------------------------------------------------------

class Checkpointer:
    """Periodic + SIGTERM-triggered checkpoint writing for one run.

    Enabled iff ``config.checkpoint_dir`` is set.  ``due()`` fires every
    ``config.checkpoint_interval`` units of progress (newly explored
    states; executed transitions when state matching is off) and immediately
    after a SIGTERM (the handler only sets a flag — the engine writes the
    snapshot at its next *consistent* point: between node expansions
    serially, after draining in-flight tasks in the scheduler).
    ``install()``/``restore()`` bracket the run so the previous SIGTERM
    handler (coverage.py installs one, for instance) is always put back.

    ``previous`` seeds the incremental-snapshot chain: the checkpoint a
    resumed run loaded from (when its layout was adopted), then always
    the last snapshot this run wrote.
    """

    def __init__(self, config, spec, store: StateStore, stats,
                 previous: str | Path | None = None):
        self.config = config
        self.spec = spec
        self.store = store
        self.stats = stats
        self.enabled = bool(config.checkpoint_dir)
        self.sigterm = False
        self._last_progress = self._progress()
        self._previous_handler = None
        self._previous = Path(previous) if previous else None
        # Store counters are deltas since this run's store came up; a
        # resumed SearchStats already carries the previous legs' totals,
        # so sync() adds the live deltas onto that base (absolute set —
        # safe to call any number of times).
        self._counter_base = (stats.store_hits, stats.store_spill_reads,
                              stats.store_evictions,
                              stats.store_bloom_negatives)
        stats.store = store.kind
        if self.enabled and spec is None:
            warnings.warn(
                "checkpointing needs a registry scenario (resume rebuilds "
                "the System by name); this hand-built scenario's "
                "checkpoints can only be resumed by passing scenario= to "
                "nice.resume()", RuntimeWarning, stacklevel=3)

    def install(self) -> None:
        """Take over SIGTERM for the duration of the run (main thread
        only — worker threads cannot install signal handlers)."""
        if self.enabled and \
                threading.current_thread() is threading.main_thread():
            self._previous_handler = signal.signal(
                signal.SIGTERM, self._on_sigterm)

    def restore(self) -> None:
        if self._previous_handler is not None:
            signal.signal(signal.SIGTERM, self._previous_handler)
            self._previous_handler = None

    def _on_sigterm(self, signum, frame) -> None:
        self.sigterm = True

    def sync(self) -> None:
        """Fold the store's live spill/hit counters into the stats."""
        counters = self.store.counters()
        self.stats.store_hits = self._counter_base[0] + counters["hits"]
        self.stats.store_spill_reads = \
            self._counter_base[1] + counters["spill_reads"]
        self.stats.store_evictions = \
            self._counter_base[2] + counters["evictions"]
        self.stats.store_bloom_negatives = \
            self._counter_base[3] + counters.get("bloom_negatives", 0)

    def _progress(self) -> int:
        """What ``checkpoint_interval`` counts: newly explored states —
        or, with state matching off (the store then only ever holds the
        initial digest), executed transitions, so bounded no-dedup runs
        still checkpoint."""
        if self.config.state_matching:
            return len(self.store)
        return self.stats.transitions_executed

    def due(self) -> bool:
        if not self.enabled:
            return False
        if self.sigterm:
            return True
        interval = self.config.checkpoint_interval
        return self._progress() - self._last_progress >= interval

    def write(self, frontier_groups, rng_state) -> Path:
        """Snapshot now; ``frontier_groups`` is the transport-agnostic
        ``[(trace, steps | None), ...]`` form of the pending frontier."""
        start = time.perf_counter()
        self.sync()
        # Counted before the write so the snapshot includes itself — a
        # resumed run then reports every checkpoint its lineage wrote.
        self.stats.checkpoints_written += 1
        try:
            path = write_checkpoint(
                self.config.checkpoint_dir, spec=self.spec,
                config=self.config, stats=self.stats,
                frontier=frontier_groups, rng_state=rng_state,
                store=self.store, previous=self._previous)
        except BaseException:
            # A failed snapshot must not inflate the counter: the next
            # successful snapshot would bake the phantom write into its
            # meta and every resumed descendant would inherit it.
            self.stats.checkpoints_written -= 1
            raise
        self._previous = path
        try:
            manifest = json.loads((path / _MANIFEST).read_text())
            self.stats.checkpoint_bytes_written += \
                int(manifest.get("bytes_written") or 0)
        except (OSError, ValueError):
            pass
        self.stats.checkpoint_seconds += time.perf_counter() - start
        self._last_progress = self._progress()
        return path
