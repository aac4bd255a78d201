"""Record the stdout digests that perfbench/run.py checks answers against.

Usage, from the root of a checkout: python3 perfbench/capture_digests.py

Runs every request of every workload once in each output format and writes
the SHA-256 of its stdout to perfbench/digests.json.  A request whose exit
code or independent expected answer is wrong stops the capture.  Capture
again only when an output change is intended.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import run


def main() -> int:
    env = run.child_env()
    digests = {}
    for requests in run.WORKLOADS.values():
        for request in requests:
            for fmt in ("text", "json"):
                item = run.Planned(request, fmt)
                outcome = run.spawn(run.cli_argv(item), env)
                digest = hashlib.sha256(outcome.stdout).hexdigest()
                reason = run.verdict(item, outcome, {item.key: digest})
                if reason != "ok":
                    print("%s: %s" % (item.key, reason), file=sys.stderr)
                    return 1
                digests[item.key] = digest
                print("%.2fs %s" % (outcome.wall_s, item.key))
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(run.ROOT),
                         capture_output=True, text=True).stdout.strip()
    with open(run.DIGESTS, "w") as f:
        json.dump({"captured_at_rev": rev or None, "python": sys.version.split()[0],
                   "sha256": digests}, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
