"""Store the report sha256 of every argv any seed can produce, in digests.json.

    python3 perfbench/record_digests.py

Run it from the root of a checkout whose reports are known to be right; it
refuses to store a digest for an invocation that fails. The benchmark then
counts any report that differs from its stored digest as a failure.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, judge, run_worker
from workloads import all_argvs, argv_key


def main() -> int:
    digests, bad = {}, 0
    for argv in all_argvs():
        result = run_worker(argv, False, None, timeout=600.0)
        why = judge(result, argv, {}, {})
        if why is not None:
            print(f"FAILED {argv_key(argv)}: {why}", file=sys.stderr)
            bad += 1
            continue
        digests[argv_key(argv)] = result["sha256"]
        print(f"{result['wall_s']:7.2f} s  {argv_key(argv)}", file=sys.stderr)
    if bad:
        return 1
    with open(DIGESTS, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
