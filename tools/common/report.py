"""Shared JSON-report writing for the repo's offline tools.

The semantic analyzer (tools/analyze/analyze.py) emits machine-readable
JSON reports that other stages (check_all.sh, benches, CI diffing)
consume. A half-written report is worse than none — a crashed tool must
never leave a truncated findings.json that a later stage parses as
"clean" — so every report is written to a temp file in the destination
directory and atomically renamed over the target, mirroring the
tmp+rename discipline of the C++ postmortem writer
(src/obs/postmortem.cpp).
"""

from __future__ import annotations

import json
import os
import tempfile


def write_json_atomic(path: str, obj, indent: int = 2) -> None:
    """Serialize `obj` as JSON to `path` via tmp+rename (atomic on POSIX).

    The temp file lives in the destination directory so os.replace never
    crosses a filesystem boundary. Parent directories are created on demand.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".",
                               suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(obj, f, indent=indent, sort_keys=False)
            f.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)
