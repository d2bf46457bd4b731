"""Durable file replacement shared by every on-disk store.

Checkpoints, the result store's repair pass and the persistent layer
cache's index all publish a file the same way: stage the complete
contents in a temporary file, write every byte, ``fsync``, then
``os.replace`` it over the target.  A reader (or a crash) therefore sees
either the complete old file or the complete new one, never a torn one.
"""

from __future__ import annotations

import itertools
import os
import threading
from pathlib import Path

#: Per-process sequence number of staging files.  Together with the
#: process and thread ids it gives every write its own staging name, even a
#: write started re-entrantly on the same thread while another is open.
_STAGING_SEQUENCE = itertools.count()


def replace_atomically(path: Path, data: bytes) -> None:
    """Atomically replace ``path`` with ``data`` (temp + fsync + replace).

    Concurrent writers of the same target (worker processes, or a timed-out
    search thread still saving beside its retry) each stage in a file of
    their own, created with ``O_EXCL`` so no two writers ever share one;
    the last ``os.replace`` wins and every published file is complete.
    The staging file is removed when the write fails.
    """
    while True:
        staging = path.with_name(
            f"{path.name}.{os.getpid()}-{threading.get_ident():x}-"
            f"{next(_STAGING_SEQUENCE)}.tmp"
        )
        try:
            descriptor = os.open(
                staging, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
            )
            break
        except FileExistsError:
            continue  # a crashed writer's leftover: take the next name
    try:
        try:
            view = memoryview(data)
            while view:  # short writes must not tear the staging file
                view = view[os.write(descriptor, view) :]
            os.fsync(descriptor)
        finally:
            os.close(descriptor)
        os.replace(staging, path)
    except BaseException:
        try:
            os.unlink(staging)
        except OSError:
            pass
        raise
