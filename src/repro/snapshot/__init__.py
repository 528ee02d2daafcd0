"""``repro.snapshot``: deterministic checkpoint/restore of mid-stream chip state.

Chip state is sequential, so without checkpoints any run that stops
mid-stream would have to re-simulate its whole prefix to go on.  This
package removes that cost.  A :class:`Snapshot` captures the **complete
data state** of a run at a point in simulated time — simulator clock and
wake wheel, per-cell execution bookkeeping, NoC in-flight messages, IO
queues, runtime counters, RPVO blocks, ghost allocator RNG, ingest
cursors — in a compact, schema-versioned, stdlib-only binary format
(:mod:`repro.snapshot.format`).  Restoring it onto a freshly constructed
device/graph yields a simulator whose subsequent schedule is
**bit-identical** to the uninterrupted run; that invariant is what lets
``repro serve`` hand chip state between the spans of a job (and pause and
resume it at any boundary) and makes long runs resumable
(``snapshot_every``).  See docs/snapshot.md.

Code is never serialised: executors, action handlers and message
factories are rebuilt from the declarative spec by the restore path, and
state that only exists mid-diffusion (Task closures, pending ghost
futures, registered continuations) fails capture with an actionable
error.  The boundary of a drained increment — where the harness captures
— never contains such state.  An increment cut off by
``max_cycles_per_increment`` may, so the harness runs truncated scenarios
as one span.

API::

    snap = snapshot.capture(graph)            # full mid-stream state
    snap.save(path);  snap = Snapshot.load(path)
    snapshot.restore_into(fresh_graph, snap)  # overlay onto a rebuilt graph
    snap.state_hash                           # cheap equality check
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional

from repro import __version__
from repro.snapshot.format import (
    SCHEMA_VERSION,
    SnapshotError,
    decode_snapshot,
    encode_snapshot,
    pack_value,
)


class Snapshot:
    """A decoded snapshot: meta (provenance) plus per-component body.

    ``meta`` carries the schema/version/provenance fields shown by
    ``repro snapshot info``; ``body`` holds one entry per captured
    component (``sim``, ``io``, ``device``, ``graph``).  ``state_hash``
    is the SHA-256 of the canonical body encoding, so two snapshots of
    identical chip state — e.g. one taken mid-pipeline and one taken at
    the same increment of an uninterrupted run — hash equal without any
    field-by-field comparison.
    """

    def __init__(self, meta: Dict[str, Any], body: Dict[str, Any],
                 state_hash: Optional[str] = None) -> None:
        self.meta = meta
        self.body = body
        self._state_hash = state_hash
        self._encoded: Optional[bytes] = None

    # ------------------------------------------------------------------
    @property
    def state_hash(self) -> str:
        """SHA-256 (hex) of the encoded body: cheap state equality."""
        if self._state_hash is None:
            self.to_bytes()
        return self._state_hash  # type: ignore[return-value]

    def to_bytes(self) -> bytes:
        """The snapshot's file bytes (encoded once, then cached)."""
        if self._encoded is None:
            self._encoded = encode_snapshot(self.meta, self.body)
            # The digest is the trailing 32 bytes of the container.
            self._state_hash = self._encoded[-32:].hex()
        return self._encoded

    @classmethod
    def from_bytes(cls, data: bytes) -> "Snapshot":
        """Decode (and integrity-check) snapshot bytes."""
        meta, body, state_hash = decode_snapshot(data)
        snap = cls(meta, body, state_hash=state_hash)
        snap._encoded = data
        return snap

    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike) -> Path:
        """Write the snapshot atomically (temp file + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = self.to_bytes()
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".snap.tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "Snapshot":
        """Read and integrity-check a snapshot file."""
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
        return cls.from_bytes(data)

    # ------------------------------------------------------------------
    def require_version(self) -> None:
        """Refuse to restore state captured by a different repro version.

        The deterministic schedule is a versioned contract (see
        docs/architecture.md): state captured under one version may be
        meaningless under another, so the check is strict — like the
        result store, snapshots are invalidated by version bumps.
        """
        written = self.meta.get("repro_version")
        if written != __version__:
            raise SnapshotError(
                f"snapshot was captured by repro {written}, this is "
                f"{__version__}: the deterministic schedule may have "
                "changed; re-create the snapshot from a fresh run")

    def info(self) -> Dict[str, Any]:
        """A flat summary for ``repro snapshot info`` (no restore needed).

        ``sections`` maps each body section to its encoded bytes, so a
        reader can see where a checkpoint's bytes go.
        """
        out = dict(self.meta)
        out["schema"] = SCHEMA_VERSION
        out["state_hash"] = self.state_hash
        out["size_bytes"] = len(self.to_bytes())
        out["sections"] = {name: len(pack_value(value))
                           for name, value in sorted(self.body.items())}
        return out


from repro.snapshot.capture import capture, capture_simulator  # noqa: E402
from repro.snapshot.restore import restore_into, restore_simulator  # noqa: E402

__all__ = [
    "SCHEMA_VERSION",
    "Snapshot",
    "SnapshotError",
    "capture",
    "capture_simulator",
    "restore_into",
    "restore_simulator",
]
