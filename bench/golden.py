"""Record the golden report digests in bench/golden.json.

Usage: python3 bench/golden.py

Run this only at a commit whose reports are known to be right: every
benchmark run compares each report's sha256 with these digests and
counts a mismatch as a failed op.  No report depends on the benchmark
seed: it only orders cli_oneshot's command mix and picks where
predict_bigmc starts in its fixed stream.  So one digest per CLI
command and one per stream position check every seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "bench" / "golden.json"


def record(plan, count: int) -> dict[str, str]:
    """Digests of the warm-up and the first ``count - 1`` timed units."""
    digests = {}
    for unit in [plan.warmup, *(plan.unit(i) for i in range(count - 1))]:
        digest, problems = unit.check(unit.call())
        if problems:
            raise SystemExit(f"{unit.key}: {problems}")
        digests[unit.key] = digest
    return dict(sorted(digests.items()))


def main() -> int:
    if len(sys.argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    GOLDEN.write_text("{}\n")  # plans built below must not check against stale digests
    try:
        # The warm-up and the first units of one run cover every command
        # and, as the stream wraps, every position.
        table = {
            "cli_oneshot": record(workloads.cli_oneshot(ROOT, 0, "full"), len(workloads.CLI_COMMANDS) + 1),
            "predict_bigmc": record(workloads.predict_bigmc(ROOT, 0, "full"), workloads.GOLDEN_STREAM),
        }
    except BaseException:
        GOLDEN.write_text(json.dumps(old, indent=1, sort_keys=True) + "\n")
        raise
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    for workload, digests in table.items():
        print(f"{workload}: {len(digests)} digests, {'unchanged' if old.get(workload) == digests else 'CHANGED'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
