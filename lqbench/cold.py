"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 lqbench/cold.py <workload> <seed>

Times ``import lqcat`` and then the workload's first operation, cold, and
prints {"import_s": ..., "op_s": ...} as one JSON line.  Nothing heavier
than the standard library is imported before the clock starts.
"""

import json
import sys
from pathlib import Path
from time import perf_counter


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = perf_counter()
    import lqcat  # noqa: F401
    import_s = perf_counter() - t0

    import workloads
    op = workloads.WORKLOADS[workload](seed).round(0)[0]
    t1 = perf_counter()
    try:
        op.run()
    except Exception:   # the timed rounds count it as failed
        pass
    op_s = perf_counter() - t1
    print(json.dumps({"import_s": import_s, "op_s": op_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
