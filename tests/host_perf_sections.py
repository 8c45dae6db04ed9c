#!/usr/bin/env python3
"""Every host_perf section must be written and hold real rates.

Usage: host_perf_sections.py TCPNI_BENCH OUT_JSON

Runs `host_perf --events 4096 --out OUT_JSON` on a fresh file and
requires each section host_perf owns to be present with every listed
rate a positive, finite number.  A timing loop that stops running (or
a section that stops being written) fails here instead of rotting
unseen.

Exit status 0 on success; prints each problem and exits 1 otherwise.
"""

import json
import math
import os
import subprocess
import sys

# section -> rates that must be positive and finite.  A path segment
# "*" stands for every element of a list.
RATES = {
    "host": ["hardwareConcurrency", "jobs"],
    "table1Sweep": ["serialSec", "parallelSec", "speedup"],
    "setup": ["eventQueueUs", "assembleHandlerUs", "loadProgramUs",
              "processingCostReadUs"],
    "sweepRunner": ["workers", "tasks", "wallSec"],
    "selfProfile": ["events", "processSec", "eventsPerSec"],
    "eventKernel": ["populations/*/calendarEventsPerSec",
                    "scheduleDrain/eventsPerSec"],
    "hotPath": ["cpuLoopInstsPerSec", "niSendReceiveNs", "msgIpReadNs",
                "serverLoopMsgsPerSec"],
}


def values(node, path):
    """(path, value) for every leaf @p path names under @p node."""
    head, _, rest = path.partition("/")
    if head == "*":
        if not isinstance(node, list) or not node:
            return [(path, None)]
        children = list(enumerate(node))
    elif isinstance(node, dict) and head in node:
        children = [(head, node[head])]
    else:
        return [(path, None)]
    out = []
    for key, child in children:
        if rest:
            out += [(f"{key}/{p}", v) for p, v in values(child, rest)]
        else:
            out.append((str(key), child))
    return out


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    bench, out = sys.argv[1], sys.argv[2]
    # host_perf splices into an existing file: start from none, so a
    # section only passes if this run wrote it.
    if os.path.exists(out):
        os.remove(out)
    subprocess.run([bench, "host_perf", "--events", "4096", "--out", out],
                   check=True, stdout=subprocess.DEVNULL)
    with open(out) as f:
        doc = json.load(f)

    problems = []
    for section, paths in RATES.items():
        if section not in doc:
            problems.append(f"section '{section}' is missing")
            continue
        for path in paths:
            for where, v in values(doc[section], path):
                ok = (isinstance(v, (int, float)) and
                      not isinstance(v, bool) and
                      math.isfinite(v) and v > 0)
                if not ok:
                    problems.append(f"{section}/{where} = {v!r} is not "
                                    "a positive finite number")
    for p in problems:
        print(p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
