"""Mutation gate: every mutant in mutants.json must make each of its tests fail.

    python3 tests/mutation_gate.py

A mutant names a file under src/, an exact old string, its replacement and the
test ids that must fail.  For each mutant the gate copies src/ to a temporary
directory, checks that the old string occurs exactly once (so a refactor that
moves the code breaks the mutant loudly), applies it, and runs the named tests
with PYTHONPATH on the copy, in the temporary directory.  pytest must report
each named test as failed; a collection error does not count.  First the
unmutated copy must pass every named test, and must be the package those runs
import.

Every run uses the Hypothesis profile "mutation" of tests/conftest.py, which
skips shrinking: a mutant only has to fail a test, not yield a minimal
example.  pytest prints no tracebacks (`--tb=no`): the gate reads only the
FAILED lines, and rendering a deep RecursionError took 20 s.  A mutant's run
gets TIMEOUT_S seconds; one that runs longer prints TIMEOUT and fails the
gate, since a hang is not a kill.  Each mutant's line gives its seconds.

The mutants run on min(os.cpu_count(), number of mutants) worker threads,
each waiting on its own pytest process; the lines come out in the order of
mutants.json, and the last one gives the gate's wall time.

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
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
TIMEOUT_S = 60


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")


def _copy_src(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def _failed(src: Path, tests: list[str], timeout: float | None = None) -> tuple[int, set[str]]:
    """pytest's exit code and the ids it reports as failed; subprocess.TimeoutExpired past timeout.

    pytest runs in the directory that holds src, so Hypothesis keeps its
    example database there and no run replays examples another one saved.
    """
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider",
           "--hypothesis-profile=mutation", *(str(ROOT / t) for t in tests)]
    run = subprocess.run(cmd, cwd=src.parent, env=_env(src), capture_output=True, text=True, timeout=timeout)
    failed = set()
    for line in run.stdout.splitlines():
        if line.startswith("FAILED "):
            # pytest shows the id relative to its working directory; read it back relative to ROOT
            path, sep, rest = line.split()[1].partition("::")
            failed.add((src.parent / path).resolve().relative_to(ROOT).as_posix() + sep + rest)
    return run.returncode, failed


def _verdict(m: dict) -> tuple[bool, str]:
    """(killed, the mutant's line) of one mutant on its own copy of src/."""
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(Path(tmp))
        path = src.parent / m["file"]
        text = path.read_text()
        count = text.count(m["old"])
        if count != 1:
            return False, f"BROKEN   {m['name']}: old string occurs {count} times in {m['file']}"
        path.write_text(text.replace(m["old"], m["new"]))
        start = time.perf_counter()
        try:
            code, failed = _failed(src, m["tests"], TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False, f"TIMEOUT  {m['name']}: still running after {TIMEOUT_S} s"
        seconds = time.perf_counter() - start
    missed = [t for t in m["tests"] if t not in failed]
    if code == 1 and not missed:
        return True, f"killed   {m['name']} ({seconds:.1f} s)"
    return False, f"SURVIVED {m['name']} ({seconds:.1f} s): exit {code}, not failed: {missed}"


def main() -> int:
    started = time.perf_counter()
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
    workers = min(os.cpu_count() or 1, len(mutants))
    survivors = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for killed, line in pool.map(_verdict, mutants):  # in mutants.json order
            print(line, flush=True)
            survivors += not killed
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed "
          f"in {time.perf_counter() - started:.0f} s on {workers} workers")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
