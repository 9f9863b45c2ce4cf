"""Acceptance suite: one test per criterion, printing a pass/fail line each.

One criterion fails by design of the underlying material and is left red on
purpose (see the README section on known reproduction limits and the run
report emitted by `wagedyn reproduce-all`):

* criterion 3: the published late-period bracket masses are not reachable
  from the stated parameters under any evaluated dynamic program.

Criterion 7's one-period rules are a saddle of the profit, so its grid search
clause looks for the stationary point rather than the profit argmax; the
degenerate corner that the argmax finds is reported as a warning.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import wagedyn
from wagedyn import checks
from wagedyn.report import RUNNERS


def _assert_criterion(result):
    print(f"criterion {result.number} [{'PASS' if result.passed else 'FAIL'}] "
          f"{result.title}")
    failures = [f"{item.name}: {item.detail}" for item in result.items
                if not item.passed]
    notes = "\n".join(f"  note: {w}" for w in result.warnings)
    assert not failures, (
        f"criterion {result.number} ({result.title}) failed clauses:\n  "
        + "\n  ".join(failures) + ("\n" + notes if notes else ""))


def test_criterion_01_policy_table():
    _assert_criterion(checks.check_policy_table())


def test_criterion_02_sampled_path():
    _assert_criterion(checks.check_sampled_path())


def test_criterion_03_distribution_table():
    _assert_criterion(checks.check_distribution_table())


def test_criterion_03_warnings_independent_of_hash_seed():
    # reproduce-all writes these warnings into report.txt/report.json, which
    # must be byte-identical across interpreter runs
    src = str(Path(wagedyn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import json; from wagedyn import checks; "
            "print(json.dumps(checks.check_distribution_table().warnings))")
    runs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=300)
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]


def test_criterion_04_additive_oracle():
    _assert_criterion(checks.check_additive_oracle())


def test_criterion_05_single_period_formulas():
    _assert_criterion(checks.check_single_period())


def test_criterion_06_distribution_engine():
    _assert_criterion(checks.check_distribution_engine())


def test_criterion_07_employer_optimum():
    _assert_criterion(checks.check_employer_optimum())


def test_criterion_08_technology_properties():
    _assert_criterion(checks.check_technology())


def test_criterion_09_comparative_statics():
    _assert_criterion(checks.check_statics())


def test_criterion_10_determinism(tmp_path):
    _assert_criterion(checks.check_determinism(RUNNERS, tmp_path / "runners"))


def test_criterion_10_removes_its_temporary_directory(tmp_path, monkeypatch):
    # without a workdir the reruns go to a temporary directory, which must go
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    _assert_criterion(checks.check_determinism(RUNNERS))
    assert list(tmp_path.iterdir()) == []


def test_criterion_10_reproduce_all_byte_identical(tmp_path, capsys):
    from wagedyn.cli import main

    codes = [main(["reproduce-all", "--out", str(tmp_path / d)]) for d in ("a", "b")]
    capsys.readouterr()
    assert codes[0] == codes[1]
    files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files_a, "reproduce-all wrote no files"
    for fa in files_a:
        fb = tmp_path / "b" / fa.relative_to(tmp_path / "a")
        assert fb.is_file(), f"missing {fb}"
        assert fa.read_bytes() == fb.read_bytes(), f"rerun differs: {fa.name}"
    print("criterion 10 [PASS] reproduce-all reruns byte-identical "
          f"({len(files_a)} files)")
