"""Crash-safe JSONL checkpoint shared by the grid drivers.

Layout: one meta header line pinning a settings digest, then one flushed
line per completed row.  A killed run loses at most the row being
written; a torn final line is skipped (and truncated) on load.  Resuming
against a checkpoint written under different settings raises rather
than mixing incompatible rows.

Callers supply the row codec (``encode``/``decode``), the key a row is
stored under, and optionally a ``validate`` hook that sees every loaded
row and raises ``ValueError`` to refuse the resume (the chaos grid uses
it to re-derive each cell's fault seed).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Optional

from repro.utils import timing

__all__ = ["CHECKPOINT_VERSION", "JsonlCheckpoint"]

#: Checkpoint file format version (bump on layout changes).
CHECKPOINT_VERSION = 1


class JsonlCheckpoint:
    """Meta header + one JSON line per completed row.

    ``prefix`` names the timing counters (``<prefix>.checkpoint_*``) and
    ``what`` the run in the refusal message ("written by a different
    <what> configuration").
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        digest: str,
        *,
        prefix: str,
        what: str,
        encode: Callable[[Any], dict],
        decode: Callable[[dict], Any],
        key: Callable[[Any], Any],
        validate: Optional[Callable[[Any, Any], None]] = None,
    ):
        self.path = Path(path)
        self.digest = digest
        self.prefix = prefix
        self.what = what
        self.encode = encode
        self.decode = decode
        self.key = key
        self.validate = validate

    def _meta_line(self) -> str:
        return json.dumps({"kind": "meta", "version": CHECKPOINT_VERSION, "digest": self.digest})

    def load(self, resume: bool) -> dict:
        """Completed rows by key from a previous run (empty unless resuming)."""
        if not resume or not self.path.is_file():
            # Fresh run: truncate any stale file and write the header.
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(self._meta_line() + "\n", encoding="utf-8")
            return {}
        done: dict = {}
        meta = None
        valid_end = 0
        with open(self.path, "rb") as fh:
            while True:
                line = fh.readline()
                if not line:
                    break
                # A torn trailing line (crash mid-write) fails to parse or
                # lacks its newline; the rows before it are intact, the torn
                # row just gets recomputed.
                try:
                    doc = json.loads(line.decode("utf-8"))
                except (json.JSONDecodeError, UnicodeDecodeError):
                    timing.count(f"{self.prefix}.checkpoint_torn_line")
                    break
                if not line.endswith(b"\n"):
                    timing.count(f"{self.prefix}.checkpoint_torn_line")
                    break
                if doc.get("kind") == "meta":
                    meta = doc
                elif doc.get("kind") == "row":
                    row = self.decode(doc)
                    key = self.key(row)
                    if self.validate is not None:
                        self.validate(key, row)
                    done[key] = row
                valid_end = fh.tell()
        if valid_end < self.path.stat().st_size:
            # Drop the torn tail so appended rows start on a clean line.
            with open(self.path, "rb+") as fh:
                fh.truncate(valid_end)
        if meta is None:
            raise ValueError(f"checkpoint {self.path} has no meta header")
        if meta.get("version") != CHECKPOINT_VERSION or meta.get("digest") != self.digest:
            raise ValueError(
                f"checkpoint {self.path} was written by a different {self.what} "
                "configuration; refusing to resume (delete it or drop --resume)"
            )
        timing.count(f"{self.prefix}.checkpoint_resumed_rows", len(done))
        return done

    def append(self, row: Any) -> None:
        """Persist one completed row immediately."""
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.encode(row)) + "\n")
            fh.flush()
