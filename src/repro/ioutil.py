"""Durable file-write primitives shared by every on-disk store.

Three writers persist state that other processes read back — the
content-addressed characterization cache
(:class:`repro.core.characterize.CharacterizationCache`), the JSONL
trace files (:mod:`repro.obs.io`) and saved runs
(:func:`repro.core.reporting.save_run`).  All of them need the same
discipline: a reader racing a writer (or a writer killed mid-write)
must never observe a half-written file.  :func:`atomic_write_text` is
that discipline in one place — write to a temp file in the destination
directory, flush (and by default fsync) it, then ``os.replace`` onto
the final name.  ``os.replace`` is atomic on POSIX and Windows, so the
destination always holds either the previous complete content or the
new complete content, never a mixture or a prefix.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(
    path: str | Path,
    text: str,
    *,
    fsync: bool = True,
    encoding: str = "utf-8",
) -> Path:
    """Atomically replace ``path``'s content with ``text``.

    The bytes land in a temp file next to the destination (same
    directory, so the final rename cannot cross filesystems) and are
    flushed — with ``fsync=True`` (the default) all the way to disk —
    *before* the rename.  A crash at any point leaves either the old
    file or the new one; the temp file is unlinked on failure.  Parent
    directories are created as needed.

    Args:
        path: destination file.
        text: full new content.
        fsync: force the data to stable storage before the rename.
            Without it a power loss shortly after the rename can leave
            an empty (but never half-written) file on some filesystems.
        encoding: text encoding of the file.

    Returns:
        The destination path.

    Raises:
        OSError: when the directory cannot be created or the write /
            rename fails; callers that must not fail on persistence
            errors (caches) catch this and degrade.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
