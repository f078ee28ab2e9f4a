"""Regenerate reference.json: the pinned outputs of every workload at the
default seed (event logs, final front positions, CLI verdicts, sampled sums).

Usage (from the repository root): python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known to be right; the gate then
holds every later commit to them.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, ROOT, SCRATCH_PREFIX, Session
from inputs import DEFAULT_SEED, WORKLOADS


def main():
    tmp = tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=ROOT)
    pinned = {}
    try:
        for workload in WORKLOADS:
            record = Path(tmp) / f"{workload}.json"
            session = Session(workload, DEFAULT_SEED, False, None, Path(tmp))
            if session.rep("run", record=str(record)) is None:
                print(f"{workload}: {session.failures[-1]}", file=sys.stderr)
                return 1
            pinned[workload] = json.loads(record.read_text())
            print(f"{workload}: {sum(len(s['events']) for s in pinned[workload]['solves'])} events")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
