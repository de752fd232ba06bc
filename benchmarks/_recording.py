"""Machine-readable benchmark recording shared by the conftest and the tests.

This lives outside ``conftest.py`` on purpose: pytest registers the conftest
as its own plugin module while the benchmark files import it as
``benchmarks.conftest``, which yields *two* module objects.  Keeping the
result list here -- a module both sides import normally -- guarantees exactly
one list exists no matter how the conftest was loaded.

Results are merged into the file the ``BENCH_RESULTS_PATH`` environment
variable names, keyed by (workload, size, system, method); without the
variable a session writes nothing, so running the suite never rewrites the
committed ``BENCH_results.json`` baseline.  Re-record that baseline on
purpose with ``BENCH_RESULTS_PATH=BENCH_results.json python -m pytest
benchmarks`` from the repository root.  A partial run
(``pytest benchmarks/test_xyz.py`` or a ``-k`` selection) updates only the
entries it actually measured and preserves the rest of the tracked
trajectory.  ``method`` distinguishes single-run shape-test timings from
pytest-benchmark round means so methodologically different numbers never
overwrite each other.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

#: Entries recorded during this session.
_RESULTS: list[dict[str, Any]] = []


def results_path() -> Path | None:
    """Where this session's results are merged; None when nothing is written.

    Only the ``BENCH_RESULTS_PATH`` environment variable names the file --
    the perf-regression gate uses it to collect a fresh run, the nightly job
    to upload scaled-size results as an artifact.
    """
    override = os.environ.get("BENCH_RESULTS_PATH")
    return Path(override) if override else None


def record_entry(entry: dict[str, Any]) -> None:
    """Queue one benchmark entry for the results file."""
    _RESULTS.append(entry)


def _key(entry: dict[str, Any]) -> tuple:
    return (entry["workload"], entry["size"], entry["system"], entry.get("method", ""))


def write_results(path: Path | None = None) -> None:
    """Merge this session's entries into the results file (no-op when empty
    or when no file is named)."""
    target = path or results_path()
    if not _RESULTS or target is None:
        return
    merged: dict[tuple, dict[str, Any]] = {}
    if target.exists():
        try:
            previous = json.loads(target.read_text())
            for entry in previous.get("entries", []):
                merged[_key(entry)] = entry
        except (json.JSONDecodeError, KeyError, TypeError):
            # A corrupt results file is replaced rather than crashing the run.
            merged = {}
    for entry in _RESULTS:
        merged[_key(entry)] = entry
    payload = {
        "schema": 1,
        "tier": "laptop-scale benchmark suite",
        "entries": sorted(merged.values(), key=_key),
    }
    target.write_text(json.dumps(payload, indent=2) + "\n")
