"""Atomic, durable sidecar writes.

JSON sidecars (the catalog and the ArchIS archive metadata) must never be
observable half-written: a crash mid-save used to leave truncated JSON
that made the whole archive unloadable.  :func:`atomic_write_bytes`
implements the standard protocol — write to ``<path>.tmp``, flush, fsync,
``os.replace`` onto the final name — so a reader sees either the old file
or the new one, never a prefix.

Both sidecar writers stamp their payloads with :data:`SIDECAR_VERSION`
from this module so the two formats can never drift apart silently.
"""

from __future__ import annotations

import glob
import os

from repro.storage.crashpoints import fire

#: Format version written into (and required from) every JSON sidecar.
#: Version 2: BlockZIP ``<t>_blob`` tables carry a ``startid`` column.
SIDECAR_VERSION = 2

_TMP_SUFFIX = ".tmp"


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Atomically replace ``path`` with ``data``; returns ``path``.

    Crash points: ``atomic.tmp_written`` (tmp file complete but not
    durable), ``atomic.tmp_synced`` (tmp durable, final name still old),
    ``atomic.replaced`` (rename done, directory entry not yet synced).
    """
    tmp_path = path + _TMP_SUFFIX
    with open(tmp_path, "wb") as handle:
        handle.write(data)
        handle.flush()
        fire("atomic.tmp_written")
        os.fsync(handle.fileno())
    fire("atomic.tmp_synced")
    os.replace(tmp_path, path)
    fire("atomic.replaced")
    _fsync_directory(os.path.dirname(os.path.abspath(path)))
    return path


def remove_stale_tmp_files(path_prefix: str) -> list[str]:
    """Delete leftover ``<path_prefix>*.tmp`` files from crashed saves.

    Tmp files are never authoritative — either the rename happened (the
    final file is current) or the save never committed (the old final
    file is current) — so removing them on open is always safe.
    """
    removed = []
    for stale in glob.glob(glob.escape(path_prefix) + "*" + _TMP_SUFFIX):
        os.remove(stale)
        removed.append(stale)
    return removed


def _fsync_directory(dir_path: str) -> None:
    """Make a rename durable by syncing its directory (best effort)."""
    try:
        fd = os.open(dir_path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
