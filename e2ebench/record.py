#!/usr/bin/env python3
"""Record the expected outputs of every workload at the default seed.

Writes ``expected.json`` next to this file from one pass of each workload.
Run it only when a change is meant to alter the program's outputs, and
say so in the change's description::

    python3 e2ebench/record.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from run import EXPECTED, OUT, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, WORKLOADS

    OUT.mkdir(exist_ok=True)
    expected = {}
    for name, cls in WORKLOADS.items():
        cache = tempfile.mkdtemp(prefix="cache-", dir=OUT)
        try:
            wl = cls(DEFAULT_SEED, cache)
            wl.setup()
            res = wl.run_pass()
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        errors = {k: v for k, v in res.outputs.items() if "error" in v}
        if errors:
            print(f"{name}: items raised, nothing recorded: {errors}")
            return 1
        expected[name] = res.outputs
        print(f"{name}: {len(res.outputs)} items in {res.seconds:.2f}s")
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
