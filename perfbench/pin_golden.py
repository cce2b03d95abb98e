"""Pin every op's expected output into ``golden.json``.

Run once per deliberate change of the measured work (never to make a failing
run pass)::

    python3 perfbench/pin_golden.py

Each op key of every workload, in full and tiny size, is run once in a fresh
process-local context and its output recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import BENCH_DIR, ROOT, process_edge


def main() -> int:
    process_edge()
    from workloads import WORKLOADS

    golden: dict[str, dict] = {}
    work_root = os.path.join(ROOT, ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    for name, workload_type in WORKLOADS.items():
        for tiny in (False, True):
            scratch = tempfile.mkdtemp(prefix="golden-", dir=work_root)
            try:
                workload = workload_type(scratch, seed=0, tiny=tiny)
                outputs = {key: workload.output(workload.run(key)) for key in workload.keys()}
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            golden[name + (":tiny" if tiny else "")] = outputs
            print(f"{name}{' (tiny)' if tiny else ''}: {len(outputs)} ops pinned", file=sys.stderr)
    with open(os.path.join(BENCH_DIR, "golden.json"), "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
