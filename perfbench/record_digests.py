"""Record the digests of every check, one pass per workload, into digests.json.

    python3 perfbench/record_digests.py

Run it from the root of a checkout of the commit whose results are the
reference.  It refuses to record when any check's own verdict is negative or
a case raised.
"""

import json
import sys

import run


def main() -> int:
    env = run.pass_env()
    digests = {}
    for workload in run.WORKLOADS:
        res = run.launch([workload, "0", "0"], env)
        bad = [k for k, (verdict, _) in res["checks"].items() if not verdict] + list(res["errors"])
        if bad:
            print(f"{workload}: not recording, failed: {bad}", file=sys.stderr)
            return 1
        digests[workload] = {k: digest for k, (_, digest) in sorted(res["checks"].items())}
        print(f"{workload}: {len(digests[workload])} checks")
    (run.HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
