"""Canonical machine-readable output: stable-order JSON and atomic writes."""

from __future__ import annotations

import json
import os
import tempfile


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed indentation, trailing newline.

    Floats serialize via repr (shortest round-trip), so re-parsing recovers
    every value exactly and identical inputs give identical bytes.
    """
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def tsv_table(rows) -> str:
    """Tab-separated table with full-precision floats."""
    return "\n".join("\t".join(repr(float(v)) for v in row) for row in rows) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the target directory plus rename.

    A failed run never leaves a partial output file behind.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
