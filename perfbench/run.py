"""The superchar benchmark: one command, one workload, checked results.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the source under `src/`.
The run launches one fresh interpreter per pass (perfbench/passrun.py), one
pass at a time, until a pass of median length would overrun S seconds; it
always makes at least one pass.  It first launches the interpreter SETUP_PROBES times to
time set-up alone.  With `--trace 0` the last stdout line carries the
end-to-end metrics (medians over passes); with `--trace 1` traced and
untraced passes alternate and it carries the per-layer metrics.  Every check
of every pass is compared with the digest recorded at the seed commit
(perfbench/digests.json); the exit code is 0 only when none failed.  Full
records, with run metadata, go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("verify-grid", "hook-identities", "fock-duality", "fock-gram")
SETUP_PROBES = 8


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def score_checks(observed: dict, expected: dict) -> tuple[int, list[str]]:
    """(attempted, failed ids) of one pass against the recorded digests.

    A check fails when the program's own verdict is negative, when its digest
    differs from the recorded one, or when it is missing or unexpected.
    """
    failed = []
    for check_id in sorted(set(observed) | set(expected)):
        verdict, digest = observed.get(check_id, (False, None))
        if not verdict or digest != expected.get(check_id):
            failed.append(check_id)
    return len(set(observed) | set(expected)), failed


def _now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def launch(args: list[str], env: dict) -> dict:
    """Start passrun.py in a fresh interpreter, wait for it, return its JSON line."""
    argv = [sys.executable, str(HERE / "passrun.py"), str(_now_ns()), *args]
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)}: pass process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pass(workload: str, seed: int, traced: bool, env: dict, spans_path: Path) -> dict:
    args = [workload, str(seed), "1" if traced else "0"]
    return launch(args + [str(spans_path)] if traced else args, env)


def pass_env() -> dict:
    # a fixed hash seed keeps set and dict orders, and so the call counts,
    # the same from pass to pass
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def metadata(seed: int, trace: bool) -> dict:
    try:
        # null unless the checkout itself is a git work tree (not one it sits in)
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.split()
        commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None
    except OSError:
        commit = None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "superchar").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": src_hash.hexdigest(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "trace": trace,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "superchar" / "cli.py").is_file():
        print(f"error: no superchar sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "digests.json").read_text()).get(args.workload, {})
    trace = bool(args.trace)
    env = pass_env()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS / f"{args.workload}-spans.json"  # latest traced pass only; it is large

    started = time.monotonic()
    launch(["--setup-only"], env)  # compiles the bytecode; not a sample
    setups = [launch(["--setup-only"], env)["setup_s"] for _ in range(SETUP_PROBES)]
    passes = []  # (traced, result)
    durations = []
    while not passes or time.monotonic() - started + statistics.median(durations) <= args.seconds or (
        trace and len({t for t, _ in passes}) < 2
    ):
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append((traced, run_pass(args.workload, args.seed, traced, env, spans_path)))
        durations.append(time.monotonic() - t0)

    attempted = 0
    failed_ids: dict[str, int] = {}
    for _traced, res in passes:
        n, bad = score_checks(res["checks"], expected)
        attempted += n
        for check_id in bad:
            failed_ids[check_id] = failed_ids.get(check_id, 0) + 1
    failed = sum(failed_ids.values())
    plain = [res for traced, res in passes if not traced]
    traced_runs = [res for traced, res in passes if traced]
    setups += [res["setup_s"] for _traced, res in passes]

    summary = {
        "wall_s": quartiles([r["wall_s"] for r in plain]),
        "setup_s": quartiles(setups),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in plain]),
    }
    units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    counts = {"wall_s": len(plain), "setup_s": len(setups), "peak_rss_mb": len(plain)}
    meta = metadata(args.seed, trace)
    meta["passes"] = len(plain)
    meta["traced_passes"] = len(traced_runs)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(plain)} untraced + {len(traced_runs)} traced passes")
    for name, (q1, med, q3) in summary.items():
        print(f"  {name:12s} median {med:.6g} {units[name]}  q1 {q1:.6g}  q3 {q3:.6g}  (n={counts[name]})")
    print(f"  checks       {attempted} attempted, {failed} failed, failed_frac {failed / attempted:.6g}")
    for check_id, n in sorted(failed_ids.items()):
        print(f"  FAILED       {check_id}  ({n} of {len(passes)} passes)")
    for traced, res in passes:
        for case, err in res["errors"].items():
            print(f"  ERROR        {case}: {err.strip().splitlines()[-1]}")

    record = {"meta": meta, "summary": summary, "attempted": attempted, "failed": failed,
              "failed_checks": failed_ids, "passes": [dict(res, traced=t) for t, res in passes]}
    if trace:
        metrics = layer_summary(traced_runs, plain, record)
    else:
        metrics = {name: {"value": q[1], "unit": units[name]} for name, q in summary.items()}
    print("meta " + json.dumps(meta))
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def layer_summary(traced_runs: list[dict], plain: list[dict], record: dict) -> dict:
    """Per-layer metrics: exact counts from the traced passes, median times."""
    layers = [r["layers"] for r in traced_runs]
    names = sorted(set().union(*layers))
    metrics = {}
    unsteady = []
    for name in names:
        values = [lay[name] for lay in layers if name in lay]
        timed = name.endswith("_s")
        if not timed and len(set(values)) > 1:
            unsteady.append(name)
        unit = "s" if timed else ("ratio" if name.endswith("ratio") else "count")
        metrics[name] = {"value": statistics.median(values) if timed else values[0], "unit": unit}
    overhead = metrics["trace.wall_s"]["value"] - statistics.median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    absent = sorted(set().union(*(r.get("absent", []) for r in traced_runs)))
    print(f"  tracing overhead {overhead:.4g} s on a traced pass of {metrics['trace.wall_s']['value']:.4g} s")
    gap = max(abs(r["trace_gap_s"]) for r in traced_runs)
    print(f"  per-layer self times + harness self time = traced pass time, to within {gap:.3g} s")
    if absent:
        print("  absent (not measured: no such function in this version): " + ", ".join(absent))
    if unsteady:
        print("  counts that differed between traced passes: " + ", ".join(unsteady))
    record["layers"] = metrics
    record["absent"] = absent
    return metrics


if __name__ == "__main__":
    sys.exit(main())
