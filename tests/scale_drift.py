#!/usr/bin/env python3
"""The checked-in scale numbers must reproduce from the source tree.

Usage: scale_drift.py TCPNI_BENCH BENCH_host.json WORKDIR

Re-runs the 64-node points of the "scale" section of BENCH_host.json
with the section's recorded workload config and fails if any of the
deterministic fields -- events, ticks, sent, drained -- drifted from
the checked-in values.  Host-time fields are not compared.

Exit status 0 on success; prints every drifted field and exits 1
otherwise.
"""

import json
import os
import subprocess
import sys

FIELDS = ("events", "ticks", "sent", "drained")


def main():
    if len(sys.argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    bench, recorded_path, work = sys.argv[1:]
    with open(recorded_path) as f:
        recorded = json.load(f)["scale"]
    cfg = recorded["config"]
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "scale_drift.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [bench, "scale", "--sizes", "64",
           "--msgs", str(cfg["msgsPerNode"]),
           "--gap", str(cfg["meanGap"]),
           "--hotspot-permille", str(cfg["hotspotPermille"]),
           "--seed", str(cfg["seed"]), "--out", out]
    r = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        print(f"scale_drift: FAIL: {' '.join(cmd)} exited "
              f"{r.returncode}\n{r.stderr}", file=sys.stderr)
        return 1
    with open(out) as f:
        fresh = {(p["nodes"], p["pattern"]): p
                 for p in json.load(f)["scale"]["points"]}

    drift = []
    checked = 0
    for p in recorded["points"]:
        if p["nodes"] != 64:
            continue
        key = (p["nodes"], p["pattern"])
        if key not in fresh:
            drift.append(f"{key}: point missing from the re-run")
            continue
        for k in FIELDS:
            if p[k] != fresh[key][k]:
                drift.append(f"{key} {k}: recorded {p[k]}, "
                             f"re-run {fresh[key][k]}")
        checked += 1
    if checked == 0:
        drift.append("no 64-node points recorded")
    if drift:
        print("scale_drift: FAIL: BENCH_host.json scale section is "
              "stale (regenerate with `tcpni_bench scale`):\n  " +
              "\n  ".join(drift), file=sys.stderr)
        return 1
    print(f"scale_drift: OK: {checked} points match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
