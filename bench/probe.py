"""Child-process probes, run in a fresh interpreter with the checkout's src on PYTHONPATH.

    python3 bench/probe.py import          prints the seconds `import dpbudget` took
    python3 bench/probe.py setup DIR       imports dpbudget, loads DIR/workload.json and
                                           every DIR/alloc*.json, prints what it loaded
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import dpbudget

    imported = time.perf_counter() - start
    if argv[:1] == ["import"]:
        print(json.dumps({"import_s": imported}))
        return 0
    if argv[:1] == ["setup"] and len(argv) == 2:
        directory = Path(argv[1])
        workload = dpbudget.load_workload((directory / "workload.json").read_text(encoding="utf-8"))
        allocations = [
            dpbudget.load_allocation(path.read_text(encoding="utf-8"), workload)
            for path in sorted(directory.glob("alloc*.json"))
        ]
        print(
            json.dumps(
                {
                    "statistics": len(workload.statistics),
                    "equations": len(workload.equations),
                    "allocations": len(allocations),
                }
            )
        )
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
