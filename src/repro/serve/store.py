"""Persistent content-addressed result store (CAS) with integrity checks.

Layout under the store root::

    objects/<aa>/<address>.json   # one object per result
    index.jsonl                   # put/del journal, compacted when long

An object is one JSON header line followed by the payload's canonical
bytes (:func:`~repro.serve.address.payload_bytes`, the bytes
:func:`~repro.serve.address.payload_sha` hashes)::

    {"address": ..., "kind": ..., "nbytes": N, "payload_sha": ..., "request": {...}, "v": 2}
    <N canonical payload bytes>

:meth:`ResultStore.get` parses only the header, *re-verifies* the
body's SHA-256 on every read and returns the body unparsed; any
mismatch is a miss (the corrupt entry is dropped and the request
re-executes) — a cache over immutable results must never serve bytes it
cannot prove are the bytes it stored.  An object in any other format,
such as an old one-line envelope, is an entry the store cannot verify.

The journal makes eviction deterministic: entries are evicted strictly
in insertion (FIFO) order when ``max_entries`` or ``max_bytes`` is
exceeded.  FIFO rather than LRU is deliberate — recency updates would
make the on-disk state depend on read traffic, and replaying the journal
would no longer reconstruct the same eviction order on every host.

Every put and drop appends one journal line, so a store that evicts
would grow its journal without bound.  After replay on open and after
each put's eviction pass, a journal of more than ``2 * entries + 64``
lines is rewritten as one ``put`` line per live entry, oldest first (a
temporary file renamed over the old one); replaying it restores the
same entries in the same order.  A journal whose last line is torn is
rewritten on open too, so the next append does not land on the torn
line.

With ``root=None`` the store is memory-only: it keeps the same object
bytes and every read goes through the same check, with nothing
persisted — the shape the coalescing benches use when disk is noise.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, NamedTuple

from .address import payload_bytes

__all__ = ["ResultStore", "StoredResult"]

_OBJECT_VERSION = 2

#: A journal is compacted once it holds more than ``2 * entries`` plus
#: this many lines.
_JOURNAL_SLACK = 64


def _journal_line(op: str, address: str, nbytes: int = 0) -> str:
    return json.dumps({"op": op, "address": address, "nbytes": nbytes},
                      sort_keys=True) + "\n"


class StoredResult(NamedTuple):
    """One verified result: its address, kind, payload SHA-256 and the
    payload's canonical bytes (``body``), unparsed."""

    address: str
    kind: str
    payload_sha: str
    body: bytes


def _verify(address: str, data: bytes) -> StoredResult | None:
    """Parse an object's header and check its body against it; ``None``
    unless the object is a v2 object for ``address`` whose body has the
    announced length and SHA-256."""
    head, newline, body = data.partition(b"\n")
    if not newline:
        return None
    try:
        header = json.loads(head)
    except ValueError:
        return None
    if (
        not isinstance(header, dict)
        or header.get("v") != _OBJECT_VERSION
        or header.get("address") != address
        or header.get("nbytes") != len(body)
        or header.get("payload_sha") != hashlib.sha256(body).hexdigest()
    ):
        return None
    return StoredResult(address, header.get("kind"), header["payload_sha"], body)


class ResultStore:
    """Content-addressed result cache keyed by request address."""

    def __init__(
        self,
        root: str | Path | None = None,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = None if root is None else Path(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        # address -> object size in bytes, in insertion order (dicts
        # preserve it); the eviction queue, with its running byte total.
        self._entries: dict[str, int] = {}
        self._nbytes = 0
        self._journal_lines = 0
        self._memory: dict[str, bytes] = {}
        self.puts = 0
        self.gets = 0
        self.evictions = 0
        self.integrity_failures = 0
        if self.root is not None:
            (self.root / "objects").mkdir(parents=True, exist_ok=True)
            self._replay_index()

    # ------------------------------------------------------------------ #
    # Index journal
    # ------------------------------------------------------------------ #

    @property
    def _index_path(self) -> Path:
        assert self.root is not None
        return self.root / "index.jsonl"

    def _replay_index(self) -> None:
        """Rebuild the in-memory ledger from the journal, dropping entries
        whose object file has vanished (a deleted file is just a miss)."""
        if not self._index_path.exists():
            return
        lines = self._index_path.read_text().splitlines()
        torn = False
        for line in lines:
            if not line.strip():
                continue
            try:
                op = json.loads(line)
            except json.JSONDecodeError:
                torn = True  # torn final line from a crashed writer
                continue
            addr = op.get("address")
            if op.get("op") == "put" and isinstance(addr, str):
                self._entries[addr] = int(op.get("nbytes", 0))
            elif op.get("op") == "del" and addr in self._entries:
                del self._entries[addr]
        for addr in [a for a in self._entries if not self._object_path(a).exists()]:
            del self._entries[addr]
        self._nbytes = sum(self._entries.values())
        self._journal_lines = len(lines)
        if torn:
            self._compact_journal()
        else:
            self._compact_if_long()

    def _journal(self, op: str, address: str, nbytes: int = 0) -> None:
        if self.root is None:
            return
        with open(self._index_path, "a") as fh:
            fh.write(_journal_line(op, address, nbytes))
        self._journal_lines += 1

    def _compact_if_long(self) -> None:
        # A memory-only store journals nothing, so its count stays 0.
        if self._journal_lines > 2 * len(self._entries) + _JOURNAL_SLACK:
            self._compact_journal()

    def _compact_journal(self) -> None:
        """Rewrite the journal as one ``put`` line per live entry, oldest
        first, replacing the old file atomically."""
        tmp = self._index_path.with_suffix(".tmp")
        tmp.write_text("".join(_journal_line("put", addr, nbytes)
                               for addr, nbytes in self._entries.items()))
        os.replace(tmp, self._index_path)
        self._journal_lines = len(self._entries)

    def _object_path(self, address: str) -> Path:
        assert self.root is not None
        return self.root / "objects" / address[:2] / f"{address}.json"

    # ------------------------------------------------------------------ #
    # Store surface
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: str) -> bool:
        return address in self._entries

    @property
    def nbytes(self) -> int:
        """Total stored object bytes (the eviction ledger)."""
        return self._nbytes

    def put(self, address: str, canon: dict, payload: Any) -> StoredResult:
        """Store one result and return it as a :class:`StoredResult`.
        Idempotent per address (immutable content: a re-put of the same
        address is a no-op that returns the stored result)."""
        if address in self._entries:
            existing = self.get(address)
            if existing is not None:
                return existing
            # fell through: the stored copy was corrupt and dropped.
        body = payload_bytes(payload)
        stored = StoredResult(address, canon.get("kind"),
                              hashlib.sha256(body).hexdigest(), body)
        header = {
            "v": _OBJECT_VERSION,
            "address": address,
            "kind": stored.kind,
            "request": canon,
            "payload_sha": stored.payload_sha,
            "nbytes": len(body),
        }
        data = json.dumps(header, sort_keys=True).encode() + b"\n" + body
        if self.root is not None:
            path = self._object_path(address)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)  # atomic: readers never see a torn entry
        else:
            self._memory[address] = data
        self._entries[address] = len(data)
        self._nbytes += len(data)
        self._journal("put", address, len(data))
        self.puts += 1
        self._evict_over_capacity()
        return stored

    def get(self, address: str) -> StoredResult | None:
        """Fetch one result, re-verifying its bytes.

        Returns ``None`` on miss *and* on any failed verification —
        unreadable file, unknown format, address mismatch, body length
        or digest mismatch — after dropping the bad entry, so a corrupt
        cache degrades to re-execution instead of serving damaged results.
        """
        self.gets += 1
        if address not in self._entries:
            return None
        if self.root is None:
            data = self._memory.get(address)
        else:
            try:
                data = self._object_path(address).read_bytes()
            except OSError:
                data = None
        stored = None if data is None else _verify(address, data)
        if stored is None:
            self.integrity_failures += 1
            self._drop(address)
        return stored

    def _drop(self, address: str) -> None:
        self._nbytes -= self._entries.pop(address, 0)
        self._memory.pop(address, None)
        if self.root is not None:
            try:
                self._object_path(address).unlink()
            except OSError:
                pass
        self._journal("del", address)

    def _evict_over_capacity(self) -> None:
        """Evict oldest-first until both capacity bounds hold (an entry
        larger than ``max_bytes`` on its own still leaves one entry), then
        compact the journal if it has grown long."""
        while self._entries and (
            (self.max_entries is not None and len(self._entries) > self.max_entries)
            or (self.max_bytes is not None and len(self._entries) > 1
                and self._nbytes > self.max_bytes)
        ):
            oldest = next(iter(self._entries))
            self._drop(oldest)
            self.evictions += 1
        self._compact_if_long()

    def stats(self) -> dict[str, Any]:
        """Store-side counters (merged into the service's ServeStats block)."""
        return {
            "entries": len(self._entries),
            "bytes": self._nbytes,
            "puts": self.puts,
            "gets": self.gets,
            "evictions": self.evictions,
            "integrity_failures": self.integrity_failures,
            "persistent": self.root is not None,
        }
