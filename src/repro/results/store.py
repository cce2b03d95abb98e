"""The on-disk artifact store for experiment runs.

Layout (rooted at ``REPRO_RESULTS_DIR``, default ``./results``)::

    <root>/
      runs/
        <run_id>/
          record.json     # the serialized ResultRecord (with fingerprint)
          table.txt       # the experiment's rendered table, for quick reading
      cache/
        evaluation-cache-v<N>.pkl   # persisted reward/compile/baseline caches

Everything in the store is plain files: records are JSON, tables are text,
and the cache snapshot is one pickled, versioned snapshot, replaced whole
(tmp file and rename) by :meth:`repro.runtime.RuntimeContext.save_caches`.
The store never deletes or rewrites a run directory — each run gets a fresh
id — so it doubles as an append-only experiment log that ``repro report``
renders into summary tables.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

from repro.results.records import ResultRecord
from repro.runtime.caches import cache_snapshot_filename

log = logging.getLogger(__name__)

#: Environment knob naming the store root at the process edge; inside the
#: process the root travels as ``RuntimeConfig.results_dir``.
RESULTS_DIR_ENV = "REPRO_RESULTS_DIR"
DEFAULT_RESULTS_DIR = "results"


def default_results_dir() -> Path:
    """The ambient context's store root (default ``./results``).

    Resolved through :func:`repro.runtime.current`: ``REPRO_RESULTS_DIR``
    is read once at the process edge, and explicit contexts carry their own
    ``results_dir``.
    """
    from repro.runtime import current  # lazy: repro.runtime loads this module

    return Path(current().config.results_dir)


def _write_text_atomic(path: Path, text: str) -> None:
    """All-or-nothing text write: unique temp file, then an atomic rename."""
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def append_bench_entry(path: Path, entry: dict, name: str | None = None) -> None:
    """Append one entry to a ``repro bench`` perf trajectory file (``BENCH_*.json``).

    An unreadable file starts a fresh trajectory; the rewrite is atomic, so
    a reader (or a crash) never sees a half-written one.
    """
    history: list = []
    if path.exists():
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(payload, dict) and isinstance(payload.get("entries"), list):
                history = payload["entries"]
        except (OSError, ValueError) as exc:
            log.warning("starting a fresh bench record (unreadable %s: %s)", path, exc)
    history.append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"experiment": name or entry["experiment"], "entries": history}
    _write_text_atomic(path, json.dumps(payload, indent=2) + "\n")


class ArtifactStore:
    """Persistent store of :class:`ResultRecord` artifacts and cache snapshots."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_results_dir()

    # -- paths --------------------------------------------------------------

    @property
    def runs_dir(self) -> Path:
        return self.root / "runs"

    @property
    def cache_dir(self) -> Path:
        return self.root / "cache"

    @property
    def cache_path(self) -> Path:
        """Where the persisted evaluation-cache snapshot lives for this store."""
        return self.cache_dir / cache_snapshot_filename()

    def run_dir(self, run_id: str) -> Path:
        return self.runs_dir / run_id

    def record_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "record.json"

    # -- writing ------------------------------------------------------------

    def save(self, record: ResultRecord) -> Path:
        """Write ``record.json`` and ``table.txt`` for the run; returns the dir.

        Both files are written atomically (pid-suffixed temp file +
        ``os.replace``), so a reader — or a second process writing into the
        same store — never observes a half-written record and two writers
        never interleave within one file.
        """
        directory = self.run_dir(record.run_id)
        directory.mkdir(parents=True, exist_ok=True)
        path = self.record_path(record.run_id)
        _write_text_atomic(path, record.to_json() + "\n")
        if record.table:
            _write_text_atomic(directory / "table.txt", record.table + "\n")
        return directory

    # -- reading ------------------------------------------------------------

    def load(self, run_id: str) -> ResultRecord:
        return ResultRecord.from_json(self.record_path(run_id).read_text(encoding="utf-8"))

    def list_runs(self, experiment: str | None = None) -> list[ResultRecord]:
        """Stored records, oldest first; optionally filtered by experiment name.

        Unreadable record files are skipped with a warning rather than
        poisoning every report.
        """
        records: list[ResultRecord] = []
        if not self.runs_dir.is_dir():
            return records
        for path in sorted(self.runs_dir.glob("*/record.json")):
            try:
                record = ResultRecord.from_json(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError, TypeError) as exc:
                log.warning("skipping unreadable record %s: %s", path, exc)
                continue
            if experiment is None or record.experiment == experiment:
                records.append(record)
        records.sort(key=lambda record: (record.started_at, record.run_id))
        return records

    def latest(self, experiment: str | None = None) -> ResultRecord | None:
        records = self.list_runs(experiment)
        return records[-1] if records else None
