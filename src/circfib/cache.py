"""Line-oriented on-disk cache for computed tables.

Entries are UTF-8 text files: a header line ``circfib-cache <version> <key>``
followed by tab-separated records under a field-name header row.  Files are
written atomically (temp file then rename).  A missing, stale, or corrupt
entry is reported as absent so callers recompute; corruption additionally
prints a warning to stderr, and so does a directory that cannot be written.
"""

from __future__ import annotations

import os
import sys
import tempfile

CACHE_VERSION = "1"
ENV_VAR = "CIRCFIB_CACHE"

Record = dict[str, str]


def _path_for(directory: str, key: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in key)
    return os.path.join(directory, f"{safe}.tsv")


def cache_store(directory: str, key: str, records: list[Record]) -> str | None:
    """Write records under the key; returns the file path, or None after a
    warning when the directory cannot be written."""
    path = _path_for(directory, key)
    fields = list(records[0].keys()) if records else []
    lines = [f"circfib-cache {CACHE_VERSION} {key}", "\t".join(fields)]
    for record in records:
        lines.append("\t".join(record[f] for f in fields))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cache-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError as exc:
        print(f"warning: cannot write cache entry {path}: {exc}", file=sys.stderr)
        return None
    return path


def cache_load(directory: str, key: str) -> list[Record] | None:
    """Read records stored under the key, or None if absent/stale/corrupt."""
    path = _path_for(directory, key)
    if not os.path.exists(path):
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        header = lines[0].split(" ", 2)
        if header[0] != "circfib-cache" or len(header) != 3:
            raise ValueError(f"bad header: {lines[0]!r}")
        if header[1] != CACHE_VERSION or header[2] != key:
            return None  # stale version or foreign key: recompute silently
        fields = lines[1].split("\t") if len(lines) > 1 and lines[1] else []
        records = []
        for line in lines[2:]:
            values = line.split("\t")
            if len(values) != len(fields):
                raise ValueError(f"field count mismatch in {path}")
            records.append(dict(zip(fields, values)))
        return records
    except (OSError, ValueError, IndexError) as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
        return None
