#!/usr/bin/env python3
"""Rebuild bench/reference from the current sources.

    python3 bench/make_reference.py

Runs ``wagedyn reproduce-all`` once and stores what the reproduce workload
gates against: the CSV and JSON scenario artifacts, the sha256 of every
scenario artifact, and the structure of report.json (criterion titles and
which items pass). The committed reference was made at the commit that added
the benchmark; rebuild it only in a change that says why outputs moved.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from wagedyn import cli

    out = ROOT / "bench_out" / "reference-build"
    shutil.rmtree(out, ignore_errors=True)
    tmp = ROOT / "bench_out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["reproduce-all", "--out", str(out)])
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    shutil.rmtree(REFERENCE / "artifacts", ignore_errors=True)
    sha256 = {}
    for path in sorted(out.rglob("*")):
        if not path.is_file() or path.parent == out:
            continue  # report.txt / report.json are compared by structure
        rel = path.relative_to(out).as_posix()
        sha256[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix in (".csv", ".json"):
            dest = REFERENCE / "artifacts" / rel
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, dest)
    manifest = {
        "exit_code": code,
        "report": {str(r["criterion"]): {"title": r["title"],
                                         "items": {i["name"]: i["passed"]
                                                   for i in r["items"]}}
                   for r in report},
        "sha256": sha256,
    }
    (REFERENCE / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True)
                                             + "\n", encoding="utf-8")
    shutil.rmtree(out)
    shutil.rmtree(tmp)
    print(f"{len(sha256)} artifacts, exit code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
