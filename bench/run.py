"""The ordersketch benchmark.

    python3 bench/run.py --workload {ingest,deep,mine,study} --seed N --seconds S --trace {0,1}

Runs one workload in a child process (``bench/workloads.py``), prints a
detail record (environment, workload-specific metrics, problems found) and
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they are its
per-layer metrics from a separate traced pass.  Exits 2 without a result
when the ordersketch sources are missing, 1 when the child fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
WORKLOADS = ("ingest", "deep", "mine", "study")


def git_commit(root: Path) -> str:
    """The checked-out commit read from ``.git``, or "unknown" outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ordersketch" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no ordersketch sources under {ROOT / 'src'}\n")
        return 2
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        child = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"bench: {args.workload} did not finish in {CHILD_TIMEOUT_S}s\n")
        return 1
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(f"bench: {args.workload} child exited {child.returncode}\n")
        return 1
    result = json.loads(lines[-1])

    detail = result.pop("detail")
    detail["environment"]["git_commit"] = git_commit(ROOT)
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, attempted=result["attempted"], failed=result["failed"])
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
