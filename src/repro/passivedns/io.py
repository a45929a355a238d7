"""Persistence for the passive DNS database.

An 8-year trace takes tens of seconds to generate; analyses over it
take milliseconds.  Saving the columnar store lets a generated trace
be reused across sessions (and shipped as a dataset artifact).  The
format is a single compressed ``.npz``: the interned domain table as a
string array, the per-domain aggregates, and the three row columns.

Durability contract: every writer here is atomic (same-directory temp
file, fsync, ``os.replace``) so a crash mid-save never destroys the
previous copy, and every reader wraps low-level corruption — a torn
zip, a truncated member, a fingerprint mismatch — in the typed
:class:`repro.errors.CorruptArchiveError` instead of leaking raw
``zipfile.BadZipFile``/``OSError``.  Checkpoints on a spill-backed
store route through :class:`repro.passivedns.spill.SpillStore`
generations instead of rewriting one monolithic archive.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.dns.name import DomainName
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.spill import atomic_write_bytes
from repro.errors import ConfigError, CorruptArchiveError

FORMAT_VERSION = 1
#: Version 2: the checkpoint ``fingerprint`` is the multiset store
#: digest (``PassiveDnsDatabase.digest``); version-1 checkpoints carry
#: the retired sorted SHA-256 and are refused.
CHECKPOINT_VERSION = 2

PathLike = Union[str, "os.PathLike[str]"]

#: Low-level failure modes a damaged ``.npz`` surfaces as.  Narrow on
#: purpose: ``ConfigError`` is a ``ValueError``, so a broad ``except
#: ValueError`` here would swallow our own version checks.
_CORRUPTION_ERRORS = (
    zipfile.BadZipFile,
    KeyError,
    EOFError,
    zlib.error,
    pickle.UnpicklingError,
)


def save_database(db: PassiveDnsDatabase, path: PathLike) -> None:
    """Write the store to ``path`` (.npz, compressed, atomically)."""
    domain_ids, times, counts = db._columns()  # noqa: SLF001 - same package
    first_seen, last_seen, totals = db._aggregate_columns()  # noqa: SLF001
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer,
        version=np.int64(FORMAT_VERSION),
        domains=np.asarray([str(d) for d in db.all_domains()], dtype=object),
        first_seen=first_seen,
        last_seen=last_seen,
        totals=totals,
        row_domain=domain_ids,
        row_time=times,
        row_count=counts,
    )
    target = Path(path)
    if target.suffix != ".npz":
        # np.savez_compressed appends the suffix when given a filename;
        # writing through a buffer must not silently change the name.
        target = target.with_name(target.name + ".npz")
    atomic_write_bytes(target, buffer.getvalue())


def load_database(path: PathLike) -> PassiveDnsDatabase:
    """Read a store written by :func:`save_database`.

    Raises :class:`CorruptArchiveError` for a torn or truncated
    archive and :class:`ConfigError` for a format-version mismatch
    (a well-formed archive we simply do not speak).
    """
    try:
        with np.load(path, allow_pickle=True) as archive:
            version = int(archive["version"])
            if version != FORMAT_VERSION:
                raise ConfigError(
                    f"unsupported passive-DNS archive version {version} "
                    f"(expected {FORMAT_VERSION})"
                )
            domains = [DomainName(str(d)) for d in archive["domains"]]
            db = PassiveDnsDatabase._from_arrays(  # noqa: SLF001 - same package
                domains=domains,
                first_seen=np.asarray(archive["first_seen"], dtype=np.int64),
                last_seen=np.asarray(archive["last_seen"], dtype=np.int64),
                totals=np.asarray(archive["totals"], dtype=np.int64),
                row_domain=np.asarray(archive["row_domain"], dtype=np.int64),
                row_time=np.asarray(archive["row_time"], dtype=np.int64),
                row_count=np.asarray(archive["row_count"], dtype=np.int64),
            )
    except FileNotFoundError:
        raise
    except _CORRUPTION_ERRORS as error:
        raise CorruptArchiveError(path, f"unreadable npz archive: {error}")
    except OSError as error:
        raise CorruptArchiveError(path, f"unreadable npz archive: {error}")
    _validate(db)
    return db


@dataclass
class CheckpointState:
    """One durable snapshot of a long-running ingestion.

    ``cursor`` is how many source events had been *offered* when the
    snapshot was taken; ``injector_counters`` are the fault schedule's
    per-injector draw counts (so a resumed run can fast-forward its RNG
    streams); ``extra`` carries pipeline-specific counters verbatim.
    """

    database: PassiveDnsDatabase
    cursor: int
    injector_counters: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, int] = field(default_factory=dict)


def _checkpoint_payload(
    db: PassiveDnsDatabase,
    cursor: int,
    injector_counters: Optional[Dict[str, int]],
    extra: Optional[Dict[str, int]],
) -> Dict[str, object]:
    return {
        "version": CHECKPOINT_VERSION,
        "cursor": int(cursor),
        "fingerprint": db.fingerprint(),
        "deduplicate": db.deduplicate,
        "recent_keys": [list(key) for key in db.recent_keys()],
        "duplicates_suppressed": db.duplicates_suppressed,
        "injector_counters": dict(injector_counters or {}),
        "extra": dict(extra or {}),
    }


def save_checkpoint(
    db: PassiveDnsDatabase,
    directory: PathLike,
    cursor: int,
    injector_counters: Optional[Dict[str, int]] = None,
    extra: Optional[Dict[str, int]] = None,
) -> Path:
    """Write a resumable ingestion snapshot under ``directory``.

    An in-memory store lands as an atomic ``checkpoint.npz`` +
    ``checkpoint.json`` pair.  A spill-backed store (opened with
    ``spill_dir=``) instead commits a new manifest generation in its
    own directory — ``directory`` must then be the spill directory —
    with the checkpoint payload carried in the manifest ``meta``, so
    the snapshot cost is the unsealed tail, not the whole store.
    """
    if cursor < 0:
        raise ConfigError("checkpoint cursor must be non-negative")
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    manifest = _checkpoint_payload(db, cursor, injector_counters, extra)
    if db.spill is not None:
        if root.resolve() != db.spill.directory.resolve():
            raise ConfigError(
                "spill-backed checkpoints must target the spill directory"
            )
        db.spill_commit({"checkpoint": manifest})
        return root
    save_database(db, root / "checkpoint.npz")
    atomic_write_bytes(
        root / "checkpoint.json",
        json.dumps(manifest, indent=2).encode("utf-8"),
    )
    return root


def _check_checkpoint_version(manifest: Dict[str, object]) -> None:
    version = manifest.get("version")
    if version != CHECKPOINT_VERSION:
        raise ConfigError(
            f"unsupported checkpoint version {version} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )


def _spill_checkpoint_state(
    root: Path, spill_compact_threshold: int = 0
) -> Optional[CheckpointState]:
    """Load a checkpoint committed into a spill directory's manifest."""
    db = PassiveDnsDatabase(
        spill_dir=root, spill_compact_threshold=spill_compact_threshold
    )
    assert db.spill is not None
    manifest = db.spill.meta.get("checkpoint")
    if manifest is None:
        return None
    _check_checkpoint_version(manifest)
    if db.fingerprint() != manifest["fingerprint"]:
        raise CorruptArchiveError(
            root, "checkpoint store fingerprint mismatch"
        )
    db.deduplicate = bool(manifest.get("deduplicate", False))
    db.restore_recent_keys(
        tuple(key) for key in manifest.get("recent_keys", [])
    )
    db.duplicates_suppressed = int(manifest.get("duplicates_suppressed", 0))
    return CheckpointState(
        database=db,
        cursor=int(manifest["cursor"]),
        injector_counters={
            str(k): int(v)
            for k, v in manifest.get("injector_counters", {}).items()
        },
        extra={str(k): int(v) for k, v in manifest.get("extra", {}).items()},
    )


def load_checkpoint(
    directory: PathLike, *, spill_compact_threshold: int = 0
) -> Optional[CheckpointState]:
    """Read a snapshot written by :func:`save_checkpoint`.

    Detects the layout: a spill directory (journaled manifest store)
    is recovered through :class:`~repro.passivedns.spill.SpillStore`;
    otherwise the classic ``checkpoint.npz`` pair is read.
    ``spill_compact_threshold`` is forwarded to the recovered
    spill-backed store so a resumed pipeline keeps its auto-compaction
    posture; it is ignored for the ``.npz`` layout.  Returns ``None``
    when no checkpoint exists; raises :class:`CorruptArchiveError`
    when one exists but fails integrity checks, :class:`ConfigError`
    on a version we do not speak.
    """
    root = Path(directory)
    if (root / "CURRENT").exists() or (root / "journal.log").exists():
        return _spill_checkpoint_state(
            root, spill_compact_threshold=spill_compact_threshold
        )
    manifest_path = root / "checkpoint.json"
    if not manifest_path.exists():
        return None
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise CorruptArchiveError(manifest_path, f"unparseable JSON: {error}")
    _check_checkpoint_version(manifest)
    db = load_database(root / "checkpoint.npz")
    if db.fingerprint() != manifest["fingerprint"]:
        raise CorruptArchiveError(
            root / "checkpoint.npz", "checkpoint store fingerprint mismatch"
        )
    db.deduplicate = bool(manifest.get("deduplicate", False))
    db.restore_recent_keys(
        tuple(key) for key in manifest.get("recent_keys", [])
    )
    db.duplicates_suppressed = int(manifest.get("duplicates_suppressed", 0))
    return CheckpointState(
        database=db,
        cursor=int(manifest["cursor"]),
        injector_counters={
            str(k): int(v)
            for k, v in manifest.get("injector_counters", {}).items()
        },
        extra={str(k): int(v) for k, v in manifest.get("extra", {}).items()},
    )


def _validate(db: PassiveDnsDatabase) -> None:
    n = db.unique_domains()
    first_seen, last_seen, totals = db._aggregate_columns()  # noqa: SLF001
    if not (len(first_seen) == len(last_seen) == len(totals) == n):
        raise CorruptArchiveError(
            "<archive>", "aggregate column lengths differ"
        )
    row_domain, row_time, row_count = db._columns()  # noqa: SLF001
    if not (len(row_domain) == len(row_time) == len(row_count)):
        raise CorruptArchiveError("<archive>", "row column lengths differ")
    if len(row_domain) and int(row_domain.max()) >= n:
        raise CorruptArchiveError(
            "<archive>", "row references unknown domain id"
        )
