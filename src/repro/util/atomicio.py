"""Crash-safe atomic file writes (``tmp + fsync + os.replace``).

Every on-disk artifact this library produces — snapshots, telemetry
reports, traces, scenario verdicts — is consumed by a validator or a
restore path that treats the file as authoritative. A process killed
mid-``write()`` must therefore never leave a *truncated* file behind:
a half-written ``state.json`` that still parses, or a ``report.json``
cut off inside a string, is worse than no file at all because the
validator may half-accept it.

The discipline is the standard one:

1. write the full payload to a sibling temporary file in the *same*
   directory (same filesystem, so the final rename cannot fall back to
   a copy);
2. flush and ``fsync`` the temporary file so the data is durable before
   the rename makes it visible;
3. ``os.replace`` the temporary file over the destination — atomic on
   POSIX and Windows: readers see either the old bytes or the new
   bytes, never a mixture;
4. best-effort ``fsync`` of the containing directory so the rename
   itself survives a power cut (skipped on platforms where directories
   cannot be opened).

OS-level failures surface as :class:`~repro.util.exceptions.SnapshotIOError`
(retryable — the previous artifact is guaranteed intact); the temporary
file is removed on any failure path.
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.util.exceptions import SnapshotIOError

__all__ = [
    "atomic_write_text",
    "atomic_write_pieces",
    "atomic_write_lines",
    "atomic_write_json",
    "read_jsonl",
    "fsync_dir",
]


def fsync_dir(directory: str) -> None:
    """Best-effort fsync of a directory (persists a completed rename)."""
    try:
        fd = os.open(directory if directory else ".", os.O_RDONLY)
    except OSError:
        return  # platform/filesystem does not support opening directories
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: str, data: str, encoding: str = "utf-8") -> str:
    """Atomically replace ``path`` with ``data``; returns ``path``.

    The destination either keeps its previous content or holds all of
    ``data`` — a crash at any instant cannot produce a truncated file.
    """
    return atomic_write_pieces(path, lambda write: write(data), encoding=encoding)


def atomic_write_pieces(path: str, fill, encoding: str = "utf-8") -> str:
    """:func:`atomic_write_text` of what ``fill(write)`` writes, piece by piece."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp_fd = tmp_path = None
    try:
        tmp_fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        with os.fdopen(tmp_fd, "w", encoding=encoding) as fh:
            tmp_fd = None  # fdopen now owns the descriptor
            fill(fh.write)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        tmp_path = None
        fsync_dir(directory)
    except OSError as exc:
        raise SnapshotIOError(f"atomic write to {path} failed: {exc}") from exc
    finally:
        if tmp_fd is not None:
            os.close(tmp_fd)
        if tmp_path is not None and os.path.exists(tmp_path):
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
    return path


def atomic_write_lines(path: str, lines, encoding: str = "utf-8") -> str:
    """Atomically write an iterable of lines (newline appended to each)."""
    return atomic_write_text(
        path, "".join(f"{line}\n" for line in lines), encoding=encoding
    )


def read_jsonl(path: str, errors: "list[str] | None" = None) -> "list[tuple[int, dict]]":
    """Read a JSON-lines file back as ``(line number, object)`` pairs.

    The inverse of :func:`atomic_write_lines` over ``json.dumps``-ed
    objects; blank lines are skipped. With an ``errors`` list (the
    validator's way) an unreadable file and every line that is not a
    JSON object are appended to it as ``name:line: ...`` and skipped;
    without one the first of them raises (``OSError`` / ``ValueError``).
    """
    name = os.path.basename(path)
    rows: "list[tuple[int, dict]]" = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        if errors is None:
            raise
        errors.append(f"{name}: unreadable ({exc})")
        return rows
    for i, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"expected an object, got {type(obj).__name__}")
        except ValueError as exc:  # JSONDecodeError is one
            if errors is None:
                raise ValueError(f"{name}:{i}: {exc}") from exc
            errors.append(f"{name}:{i}: invalid JSON line ({exc})")
            continue
        rows.append((i, obj))
    return rows


def atomic_write_json(path: str, obj, **json_kwargs) -> str:
    """Atomically write ``obj`` as JSON (trailing newline included).

    ``json_kwargs`` pass through to :func:`json.dumps` (``indent``,
    ``sort_keys``, ``separators``, ``default``, ...).
    """
    return atomic_write_text(path, json.dumps(obj, **json_kwargs) + "\n")
