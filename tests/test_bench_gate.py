"""Tests for the CI perf-regression gate (benchmarks/check_regression.py).

The gate compares a fresh benchmark results file against the committed
``BENCH_results.json`` baseline; these tests drive its compare logic (and the
full CLI on synthetic files) to pin down the acceptance criterion: green on a
clean run, red when fed an artificially slowed result.  The recording tests
run a real benchmark session to check that only ``BENCH_RESULTS_PATH`` names
the file results are written to, so running the suite never rewrites the
committed baseline.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent
_GATE_PATH = _REPO_ROOT / "benchmarks" / "check_regression.py"
_SPEC = importlib.util.spec_from_file_location("check_regression", _GATE_PATH)
gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(gate)


def _entries(walls: dict[str, float]) -> dict[tuple, dict]:
    table = {}
    for workload, wall in walls.items():
        entry = {
            "workload": workload,
            "size": 1000,
            "system": "diablo",
            "method": "benchmark-mean",
            "wall_seconds": wall,
        }
        table[gate.entry_key(entry)] = entry
    return table


BASE = {"word_count": 1.0, "group_by": 0.8, "pagerank": 1.2, "kmeans": 2.0}


class TestCompare:
    def test_identical_results_pass(self):
        comparisons, factor = gate.compare(_entries(BASE), _entries(BASE))
        assert factor == pytest.approx(1.0)
        assert not any(c.regressed for c in comparisons)

    def test_single_slowed_workload_fails(self):
        slowed = dict(BASE, word_count=BASE["word_count"] * 2.0)
        comparisons, _ = gate.compare(_entries(BASE), _entries(slowed))
        regressed = [c for c in comparisons if c.regressed]
        assert [c.key[0] for c in regressed] == ["word_count"]

    def test_uniform_machine_slowdown_is_normalized_away(self):
        """A 2x-slower CI runner must not fail the gate: the median ratio is
        divided out, so only *relative* regressions count."""
        slower_machine = {name: wall * 2.0 for name, wall in BASE.items()}
        comparisons, factor = gate.compare(_entries(BASE), _entries(slower_machine))
        assert factor == pytest.approx(2.0)
        assert not any(c.regressed for c in comparisons)

    def test_no_normalize_flags_the_uniform_slowdown(self):
        slower_machine = {name: wall * 2.0 for name, wall in BASE.items()}
        comparisons, factor = gate.compare(
            _entries(BASE), _entries(slower_machine), normalize=False
        )
        assert factor == 1.0
        assert all(c.regressed for c in comparisons)

    def test_grace_floor_ignores_micro_benchmark_jitter(self):
        """A 0.2ms entry tripling is timer noise, not a regression."""
        base = dict(BASE, tiny=0.0002)
        jittery = dict(BASE, tiny=0.0006)
        comparisons, _ = gate.compare(_entries(base), _entries(jittery))
        assert not any(c.regressed for c in comparisons)

    def test_within_tolerance_passes(self):
        slightly_slower = {name: wall * 1.05 for name, wall in BASE.items()}
        comparisons, _ = gate.compare(
            _entries(BASE), _entries(slightly_slower), normalize=False
        )
        assert not any(c.regressed for c in comparisons)

    def test_extra_and_missing_entries_are_ignored(self):
        fresh = dict(BASE, brand_new_workload=9.9)
        fresh.pop("kmeans")
        comparisons, _ = gate.compare(_entries(BASE), _entries(fresh))
        compared = {c.key[0] for c in comparisons}
        assert compared == {"word_count", "group_by", "pagerank"}

    def test_disjoint_entries_raise(self):
        with pytest.raises(ValueError):
            gate.compare(_entries(BASE), _entries({"other": 1.0}))


def _write_results(path: Path, walls: dict[str, float]) -> None:
    path.write_text(
        json.dumps({"schema": 1, "entries": list(_entries(walls).values())})
    )


class TestCli:
    def test_cli_green_on_matching_results(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        fresh = tmp_path / "fresh.json"
        _write_results(baseline, BASE)
        _write_results(fresh, BASE)
        code = gate.main(["--baseline", str(baseline), "--results", str(fresh)])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_cli_fails_on_artificially_slowed_results(self, tmp_path, capsys):
        """The acceptance criterion: feeding a slowed result file turns the
        gate red."""
        baseline = tmp_path / "baseline.json"
        slowed = tmp_path / "slowed.json"
        _write_results(baseline, BASE)
        _write_results(slowed, dict(BASE, pagerank=BASE["pagerank"] * 3.0))
        code = gate.main(["--baseline", str(baseline), "--results", str(slowed)])
        assert code == 1
        output = capsys.readouterr()
        assert "REGRESSED" in output.out and "pagerank" in output.out

    def test_cli_reports_unusable_baseline(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert gate.main(["--baseline", str(missing), "--results", str(missing)]) == 2

    def test_gate_accepts_the_committed_baseline_against_itself(self):
        """The committed BENCH_results.json must always pass against itself
        (sanity for the CI wiring)."""
        committed = gate.DEFAULT_BASELINE
        assert committed.exists(), "committed baseline missing"
        code = gate.main(["--results", str(committed)])
        assert code == 0


_TINY_BENCHMARK = """
from benchmarks.conftest import record_run


def test_records_one_entry():
    record_run("tiny", 1, "diablo", 0.001)
"""


def _benchmark_session(root: Path, results_path: Path | None) -> None:
    """One pytest session over a copy of the benchmark conftest under ``root``.

    The copied conftest resolves every repository-relative path against
    ``root``, so ``root / "BENCH_results.json"`` stands in for the committed
    baseline.
    """
    package = root / "benchmarks"
    package.mkdir()
    for name in ("conftest.py", "_recording.py"):
        shutil.copy(_REPO_ROOT / "benchmarks" / name, package / name)
    (package / "test_tiny.py").write_text(_TINY_BENCHMARK)
    environment = {k: v for k, v in os.environ.items() if k != "BENCH_RESULTS_PATH"}
    environment["PYTHONPATH"] = str(_REPO_ROOT / "src")
    if results_path is not None:
        environment["BENCH_RESULTS_PATH"] = str(results_path)
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks"],
        cwd=root,
        env=environment,
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr


class TestRecording:
    def test_session_without_results_path_leaves_the_default_file_untouched(self, tmp_path):
        default = tmp_path / "BENCH_results.json"
        default.write_text('{"schema": 1, "entries": []}\n')
        _benchmark_session(tmp_path, None)
        assert default.read_text() == '{"schema": 1, "entries": []}\n'
        assert sorted(path.name for path in tmp_path.glob("*.json")) == ["BENCH_results.json"]

    def test_session_with_results_path_writes_only_there(self, tmp_path):
        default = tmp_path / "BENCH_results.json"
        default.write_text('{"schema": 1, "entries": []}\n')
        fresh = tmp_path / "fresh.json"
        _benchmark_session(tmp_path, fresh)
        assert default.read_text() == '{"schema": 1, "entries": []}\n'
        entries = json.loads(fresh.read_text())["entries"]
        assert [(e["workload"], e["system"]) for e in entries] == [("tiny", "diablo")]
