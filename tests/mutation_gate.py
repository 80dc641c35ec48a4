"""Mutation gate: every mutant in mutants.json must make each of its tests fail.

    python3 tests/mutation_gate.py

A mutant names a file under src/, an exact old string, its replacement and the
test ids that must fail.  For each mutant the gate copies src/ to a temporary
directory, checks that the old string occurs exactly once (so a refactor that
moves the code breaks the mutant loudly), applies it, and runs the named tests
with PYTHONPATH on the copy.  pytest must report each named test as failed;
a collection error does not count.  First the unmutated copy must pass every
named test, and must be the package those runs import.

Stdlib only, so it runs wherever the tier-1 suite does.  Exit 0 when every
mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def _copy_src(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _failed(src: Path, tests: list[str]) -> tuple[int, set[str]]:
    """pytest's exit code and the ids it reports as failed."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    run = subprocess.run(cmd, cwd=ROOT, env=_env(src), capture_output=True, text=True)
    failed = {line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")}
    return run.returncode, failed


def main() -> int:
    mutants = json.loads(MUTANTS.read_text())
    named = sorted({t for m in mutants for t in m["tests"]})
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        probe = [sys.executable, "-c", "import superchar; print(superchar.__file__)"]
        imported = subprocess.run(probe, env=_env(src), capture_output=True, text=True).stdout.strip()
        if not imported.startswith(str(src)):
            print(f"the tests import {imported or 'nothing'}, not the copy under {src}")
            return 1
        code, failed = _failed(src, named)
        if code != 0:
            print(f"unmutated source fails named tests (exit {code}): {sorted(failed)}")
            return 1
    survivors = 0
    for m in mutants:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(Path(tmp))
            path = src.parent / m["file"]
            text = path.read_text()
            count = text.count(m["old"])
            if count != 1:
                print(f"BROKEN   {m['name']}: old string occurs {count} times in {m['file']}")
                survivors += 1
                continue
            path.write_text(text.replace(m["old"], m["new"]))
            code, failed = _failed(src, m["tests"])
            missed = [t for t in m["tests"] if t not in failed]
            if code == 1 and not missed:
                print(f"killed   {m['name']}")
            else:
                print(f"SURVIVED {m['name']}: exit {code}, not failed: {missed}")
                survivors += 1
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
