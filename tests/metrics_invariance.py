#!/usr/bin/env python3
"""Turning telemetry on must not change any simulated result.

Usage: metrics_invariance.py TCPNI_BENCH WORKDIR

Runs `scale --sizes 64`, a small `serve` and `collective` once
without and once with --metrics, and requires identical result JSON.
Only host-side fields (wall time, throughput, peak RSS and the run's
provenance) are dropped before comparing.  The sampler is a
passive queue observer that fires no events, so even the `events`
counts must match exactly.

Exit status 0 on success; prints the first difference and exits 1
otherwise.
"""

import json
import os
import subprocess
import sys

# Fields of a scale point that measure the host, not the model.
HOST_FIELDS = {"wallSec", "eventsPerSec", "msgsPerSec", "peakRssBytes",
               "bytesPerEvent"}

CASES = [
    # (name, args, result flag, sample interval)
    ("scale", ["scale", "--sizes", "64"], "--out", 16),
    ("serve", ["serve", "--width", "4", "--height", "4", "--msgs", "8",
               "--gap", "16", "--jobs", "2"], "--json", 16),
    ("collective", ["collective", "--jobs", "2"],
     "--json", 1024),
]


def model_view(doc):
    """The result JSON with host-side fields removed."""
    if "scale" in doc:
        scale = doc["scale"]
        scale.pop("provenance", None)
        for p in scale["points"]:
            for k in HOST_FIELDS:
                p.pop(k, None)
    return doc


def run(bench, args, flag, out, metrics_base=None, interval=0):
    cmd = [bench] + args + [flag, out]
    if metrics_base:
        cmd += ["--metrics-out", metrics_base,
                "--sample-interval", str(interval)]
    r = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        print(f"metrics_invariance: FAIL: {' '.join(cmd)} exited "
              f"{r.returncode}\n{r.stderr}", file=sys.stderr)
        sys.exit(1)
    with open(out) as f:
        return model_view(json.load(f))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench, work = sys.argv[1], sys.argv[2]
    os.makedirs(work, exist_ok=True)
    for name, args, flag, interval in CASES:
        base = os.path.join(work, name)
        off = run(bench, args, flag, base + "_off.json")
        on = run(bench, args, flag, base + "_on.json",
                 base + "_metrics", interval)
        if off != on:
            print(f"metrics_invariance: FAIL: {name}: results differ "
                  f"with --metrics\n--- off ---\n{json.dumps(off)}\n"
                  f"--- on ---\n{json.dumps(on)}", file=sys.stderr)
            return 1
        for ext in (".json", ".csv"):
            os.remove(base + "_metrics" + ext)
        print(f"metrics_invariance: {name}: identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
