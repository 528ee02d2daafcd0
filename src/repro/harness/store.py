"""JSONL-on-disk result store keyed by scenario content hash.

Every record is one JSON object per line with at least a ``spec_hash``
field (the :meth:`~repro.harness.scenario.Scenario.spec_hash` of the run)
plus the measurements the runner produced.  Records contain no timestamps
or host-dependent fields, so a store written by a parallel run is
byte-identical to one written serially.

Every mutation rewrites the file **atomically**: records are serialised to
a temp file in the same directory, fsync'd, and moved over the store with
``os.replace``.  A run interrupted at any point (SIGKILL included) leaves
either the old store or the new one on disk — never a truncated line — and
each rewrite doubles as compaction, so a hash appears at most once.

A handle keeps each record as its canonical line, not as a decoded dict:
a write encodes only the records it adds and writes the cached lines of
the rest, and :meth:`ResultStore.get` decodes a fresh dict on demand.  A
write re-reads the file only when its ``(st_ino, st_size, st_mtime_ns)``
changed since this handle last loaded or wrote it, which is when another
writer rewrote it (``os.replace`` gives every rewrite a new inode).  So a
write costs one encode plus a copy of the cached bytes, not a parse and
re-encode of the whole store.

Two scenarios carry two distinct keys here:

* ``spec_hash`` — spec **plus** :data:`repro.__version__`; the cache key.
* the *identity* (:func:`record_identity`) — the canonical JSON of the
  spec alone.  It is stable across version bumps, which is what lets
  :meth:`ResultStore.compact` drop superseded-version records of the same
  experiment and :func:`diff_stores` line up before/after measurements of
  one scenario across a simulator change.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import __version__

Record = Dict[str, Any]

#: What identifies one version of the store file: ``(st_ino, st_size,
#: st_mtime_ns)``.
Signature = Tuple[int, int, int]


def _signature(st: os.stat_result) -> Signature:
    return (st.st_ino, st.st_size, st.st_mtime_ns)


def record_identity(record: Record) -> str:
    """Version-independent identity of a record: its canonical spec JSON.

    Equals :meth:`Scenario.canonical_json` of the scenario that produced
    the record.  Records without an embedded spec (hand-written test
    fixtures) fall back to their ``spec_hash``.
    """
    spec = record.get("scenario")
    if spec is None:
        return str(record.get("spec_hash"))
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def _version_key(version: Optional[str]) -> Tuple:
    """Sort key ordering release strings like ``1.2.0`` (missing = oldest)."""
    if not version:
        return ((0, 0),)
    parts = []
    for token in str(version).split("."):
        # Numeric components sort numerically, anything else lexically
        # after numbers ("1.2.0" < "1.2.0rc1" is fine for our purposes).
        parts.append((0, int(token)) if token.isdigit() else (1, token))
    return tuple(parts)


class ResultStore:
    """A cache of scenario results persisted as one JSONL file."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        #: The canonical line (no newline) of every record, by spec hash.
        self._lines: Dict[str, str] = {}
        #: The file as this handle last loaded or wrote it.
        self._seen: Optional[Signature] = None
        #: ``(line number, reason)`` of every line the last load skipped.
        self.skipped: List[Tuple[int, str]] = []
        #: Observability (repro.obs), attached by run_suite / the CLI for
        #: the span of one operation.  Observer-only: spans cover rewrites,
        #: counters count them; the bytes written never change.
        self.tracer = None
        self.metrics = None
        if self.path.exists():
            self._lines = self._load()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _load(self) -> Dict[str, str]:
        """Read the file: the canonical line per spec hash, last one winning
        (append-only update semantics).  Remembers the file's signature.

        A line that is not a JSON object carrying a ``spec_hash`` is skipped,
        with one warning naming ``path:line`` and the reason, and listed in
        :attr:`skipped`; one bad line must not take every command over the
        store down with it.
        """
        lines: Dict[str, str] = {}
        self.skipped = []
        with self.path.open("rb") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError as exc:  # bad JSON or bad UTF-8
                    self._skip(line_no, f"not JSON ({exc})")
                    continue
                if not isinstance(record, dict):
                    self._skip(line_no, "not a JSON object")
                    continue
                key = record.get("spec_hash")
                if not isinstance(key, str) or not key:
                    self._skip(line_no, "record has no spec_hash")
                    continue
                lines[key] = self.encode(record)
            self._seen = _signature(os.fstat(fh.fileno()))
        return lines

    def _skip(self, line_no: int, reason: str) -> None:
        self.skipped.append((line_no, reason))
        warnings.warn(f"{self.path}:{line_no}: skipped corrupt result store "
                      f"line: {reason}; the next rewrite of the store will "
                      "not keep it", RuntimeWarning)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._lines

    def get(self, spec_hash: str) -> Optional[Record]:
        """A fresh copy of the stored record for a scenario hash, or None
        on a cache miss."""
        line = self._lines.get(spec_hash)
        if self.metrics is not None:
            self.metrics.counter(
                "store_lookups_total", "Store cache lookups", ("result",),
            ).inc(result="hit" if line is not None else "miss")
        return None if line is None else json.loads(line)

    def line(self, spec_hash: str) -> Optional[str]:
        """The stored canonical line for a scenario hash (no newline)."""
        return self._lines.get(spec_hash)

    def records(self) -> List[Record]:
        """All stored records, in insertion order (fresh copies)."""
        return [record for _key, record in self._decoded()]

    def __iter__(self) -> Iterator[Record]:
        return iter(self.records())

    def stale_records(self, current_version: Optional[str] = None) -> List[Record]:
        """Records written by a repro version other than ``current_version``.

        Stale records are unreachable through the cache (the version is part
        of ``spec_hash``) but still occupy the file until compacted away.
        """
        return list(self._stale(current_version).values())

    def _stale(self, current_version: Optional[str]) -> Dict[str, Record]:
        current = current_version if current_version is not None else __version__
        return {key: record for key, record in self._decoded()
                if record.get("repro_version") != current}

    def _decoded(self) -> List[Tuple[str, Record]]:
        """``(spec_hash, record)`` pairs, in insertion order."""
        return [(key, json.loads(line))
                for key, line in list(self._lines.items())]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @staticmethod
    def encode(record: Record) -> str:
        """Canonical single-line encoding shared by every write path."""
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    def put(self, record: Record) -> None:
        """Insert or replace the record for ``record['spec_hash']``."""
        self.put_many([record])

    def put_many(self, records: List[Record]) -> None:
        """Insert or replace a batch of records with one atomic rewrite.

        Batching matters: a ``--force`` re-run replaces many records at
        once, and one rewrite per batch writes the file once instead of
        once per record.  Before rewriting, records another process added
        to the file since our last load or write are folded in (best
        effort — the window between that read and our rename remains a
        last-writer-wins race, but two suite runs appending different
        scenarios to one store no longer silently drop each other's
        results).
        """
        lines = {}
        for record in records:
            key = record.get("spec_hash")
            if not key:
                raise ValueError("record must carry a spec_hash")
            lines[key] = self.encode(record)
        if not lines:
            return
        self._lines.update(lines)
        span = (self.tracer.span("store_put", "store", records=len(records))
                if self.tracer is not None else nullcontext())
        with span:
            self._merge_disk()
            self._rewrite()
        if self.metrics is not None:
            self.metrics.counter(
                "store_puts_total", "Records written to the store",
            ).inc(len(records))

    def _merge_disk(self) -> None:
        """Fold in on-disk records another writer added since our last load
        or write; a file with the signature we last saw is not re-read.

        Our own records win on conflicting hashes (that is what ``put``
        means); only hashes we have never seen are adopted.
        """
        try:
            if _signature(os.stat(self.path)) == self._seen:
                return
            on_disk = self._load()
        except FileNotFoundError:
            return
        for key, line in on_disk.items():
            self._lines.setdefault(key, line)

    def _rewrite(self) -> None:
        """Persist the in-memory records, crash-safely.

        The new contents are written to a temp file in the store's own
        directory (so ``os.replace`` stays within one filesystem), flushed
        and fsync'd, and only then moved over the store.  An interruption at
        any point leaves the previous store intact.
        """
        if self.metrics is not None:
            self.metrics.counter(
                "store_rewrites_total", "Atomic store rewrites").inc()
            self.metrics.gauge(
                "store_records", "Records in the store").set(len(self._lines))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(self.path.parent), suffix=".jsonl.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                for line in self._lines.values():
                    fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
                written = _signature(os.fstat(fh.fileno()))
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._seen = written
        self._fsync_parent()

    def _fsync_parent(self) -> None:
        """Flush the directory entry so the rename itself survives a crash."""
        try:
            dir_fd = os.open(str(self.path.parent), os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(dir_fd)

    # ------------------------------------------------------------------
    # Lifecycle: compaction and garbage collection
    # ------------------------------------------------------------------
    def compact(self) -> List[Record]:
        """Drop superseded-version records; keep the newest per identity.

        When the same experiment (identical spec, so identical
        :func:`record_identity`) has records from several repro versions,
        only the one with the highest version survives.  Returns the
        dropped records; rewrites atomically only when something changed.
        """
        records = dict(self._decoded())
        best: Dict[str, str] = {}  # identity -> spec hash of its newest record
        for key, record in records.items():
            identity = record_identity(record)
            incumbent = best.get(identity)
            if incumbent is None or (
                _version_key(record.get("repro_version"))
                >= _version_key(records[incumbent].get("repro_version"))
            ):
                best[identity] = key
        keep = set(best.values())
        dropped = {k: r for k, r in records.items() if k not in keep}
        self._drop(dropped, "store_compact")
        return list(dropped.values())

    def gc(self, current_version: Optional[str] = None) -> List[Record]:
        """Drop every record not written by ``current_version``.

        Stricter than :meth:`compact`: even experiments that only ever ran
        under an old version are dropped, leaving exactly the records the
        cache can still serve.  Returns the dropped records.
        """
        dropped = self._stale(current_version)
        self._drop(dropped, "store_gc")
        return list(dropped.values())

    def _drop(self, dropped: Dict[str, Record], name: str) -> None:
        """Remove records by spec hash and rewrite (nothing to drop: no-op)."""
        if not dropped:
            return
        self._lines = {k: line for k, line in self._lines.items()
                       if k not in dropped}
        span = (self.tracer.span(name, "store", dropped=len(dropped))
                if self.tracer is not None else nullcontext())
        with span:
            self._rewrite()


# ----------------------------------------------------------------------
# Store diffing
# ----------------------------------------------------------------------
#: Metrics compared by :func:`diff_stores`; dotted paths index into records.
DIFF_METRICS: Tuple[str, ...] = (
    "total_cycles",
    "query_cycles",
    "edges_stored",
    "ghost_blocks",
    "energy.total_uj",
    "energy.time_us",
)


def _metric_value(record: Record, path: str) -> Optional[float]:
    value: Any = record
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value if isinstance(value, (int, float)) else None


@dataclass
class MetricDelta:
    """One metric's movement between two stores for one scenario."""

    metric: str
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def pct(self) -> Optional[float]:
        """Relative change in percent (None when the baseline is zero)."""
        if self.before == 0:
            return None
        return 100.0 * self.delta / self.before


@dataclass
class DiffEntry:
    """One scenario present in both stores, with its changed metrics."""

    name: str
    identity: str
    version_a: Optional[str]
    version_b: Optional[str]
    deltas: List[MetricDelta] = field(default_factory=list)


@dataclass
class StoreDiff:
    """Structured comparison of two result stores, keyed by spec identity."""

    matched: List[DiffEntry] = field(default_factory=list)
    only_a: List[Record] = field(default_factory=list)
    only_b: List[Record] = field(default_factory=list)
    stale_a: List[Record] = field(default_factory=list)
    stale_b: List[Record] = field(default_factory=list)

    @property
    def changed(self) -> List[DiffEntry]:
        return [entry for entry in self.matched if entry.deltas]

    @property
    def identical(self) -> bool:
        """True when every shared scenario agrees and neither side has extras."""
        return not self.changed and not self.only_a and not self.only_b


def diff_stores(
    store_a: ResultStore,
    store_b: ResultStore,
    *,
    metrics: Tuple[str, ...] = DIFF_METRICS,
    current_version: Optional[str] = None,
) -> StoreDiff:
    """Compare two stores scenario by scenario.

    Records are matched on :func:`record_identity` — the version-independent
    spec — so a store written before a simulator change lines up with one
    written after it even though every ``spec_hash`` differs.  Shared
    scenarios contribute a :class:`MetricDelta` per metric that moved;
    unmatched records land in ``only_a`` / ``only_b``, and each side's
    records from non-current repro versions are listed as stale.
    """
    by_identity_a = {record_identity(r): r for r in store_a}
    by_identity_b = {record_identity(r): r for r in store_b}

    diff = StoreDiff(
        stale_a=store_a.stale_records(current_version),
        stale_b=store_b.stale_records(current_version),
    )
    for identity, rec_a in by_identity_a.items():
        rec_b = by_identity_b.get(identity)
        if rec_b is None:
            diff.only_a.append(rec_a)
            continue
        entry = DiffEntry(
            name=rec_a.get("name") or rec_b.get("name") or identity[:40],
            identity=identity,
            version_a=rec_a.get("repro_version"),
            version_b=rec_b.get("repro_version"),
        )
        for metric in metrics:
            before = _metric_value(rec_a, metric)
            after = _metric_value(rec_b, metric)
            if before is None or after is None or before == after:
                continue
            entry.deltas.append(MetricDelta(metric=metric, before=before,
                                            after=after))
        diff.matched.append(entry)
    for identity, rec_b in by_identity_b.items():
        if identity not in by_identity_a:
            diff.only_b.append(rec_b)
    return diff
