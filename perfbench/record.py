"""Record the correctness gate's expected outputs into ``expected.json``.

    python3 perfbench/record.py [--workload NAME ...] [--seed N ...]

For each workload and fixture seed (default: all workloads, seeds
0..FIXTURE_SEEDS-1 and the held-out seed) it runs the workload once, untimed,
and stores the run-file digests, the ledger call totals and ``ndcg10_mean``.
Entries already in the file for other workloads or seeds are kept.

Re-record only when a change is meant to alter outputs, and say so: the gate
exists to catch changes that alter them by accident. The recording refuses
call totals that break the complexity formulas.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import gate  # noqa: E402
from perfbench.run import ROOT, execute  # noqa: E402
from perfbench.workload import in_flight_limit  # noqa: E402
from perfbench.workloads import FIXTURE_SEEDS, HOLDOUT_SEED, WORKLOADS  # noqa: E402

EXPECTED = ROOT / "perfbench" / "expected.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, action="append")
    args = parser.parse_args(argv)
    seeds = args.seed or [*range(FIXTURE_SEEDS), HOLDOUT_SEED]
    expected = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.exists() else {}
    for name in args.workload or WORKLOADS:
        workload = WORKLOADS[name]
        for seed in seeds:
            passes = execute(name, seed, 0.0, trace=False, probes=0)["run"]["passes"]
            entry = gate.observed_record(workload, passes)
            problems = gate.check(workload, passes, entry, in_flight_limit())
            if problems:
                print("\n".join(problems), file=sys.stderr)
                return 1
            expected.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {entry['calls']} ndcg10_mean {entry['ndcg10_mean']!r}", flush=True)
            EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
