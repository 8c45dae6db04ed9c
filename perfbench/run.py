#!/usr/bin/env python3
"""The repository benchmark: host time of the simulator, end to end and
per layer, on the workloads listed in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/run.py --workload paper_models --seed 1 \\
        --seconds 20 --trace 0

It validates its arguments, builds the simulator and the benchmark
program (perfbench.cc) from source into .bench_build/perfbench, runs one
workload, checks the paper_models results against tests/golden, and
prints a summary, a provenance line and, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 its per_layer list (perfbench/layers.json says what each
per-layer metric is expected to move).  `--workload all` runs every
workload in turn.  The exit code is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["paper_models", "mesh_hotspot", "serve_incast"]
GOLDEN = {
    "table1": ROOT / "tests" / "golden" / "table1.json",
    "figure12": ROOT / "tests" / "golden" / "figure12.json",
}
# Extra end-to-end figures printed in the summary but kept out of the
# result line: they apply to one workload each, are 0 when healthy, or
# (the pass-time tail) measure the host's interference more than the
# program.
SUMMARY_ONLY = [("run_s_tail", "s"),
                ("sojourn_p99_ticks", "ticks"),
                ("table1_cells_off", "count"),
                ("failed_ratio", "ratio")]


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    ap.add_argument("--spans", default=None,
                    help="traced runs: Chrome trace JSON of the spans "
                         "(default .bench_build/perfbench/"
                         "spans-WORKLOAD-seedN.json)")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**63:
        ap.error("--seed must be in [0, 2^63)")
    if not 1 <= args.seconds <= 3600:
        ap.error("--seconds must be in [1, 3600]")
    return args


def check_inputs():
    """Everything the run needs must exist before the first build."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"no simulator sources under {ROOT / 'src'}")
    for path in GOLDEN.values():
        if not path.is_file():
            fail(2, f"missing golden {path}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        layers = json.loads((BENCH_DIR / "layers.json").read_text())
    except (OSError, ValueError) as e:
        fail(2, f"cannot read the benchmark definition: {e}")
    per_layer = [m["name"] for m in spec["per_layer"]]
    if sorted(per_layer) != sorted(layers):
        fail(2, "BENCHMARK.json per_layer and perfbench/layers.json "
                "name different metrics")
    return spec


def spans_path(arg, workload, seed, several):
    if arg:
        path = Path(arg)
        if several:
            path = path.with_name(f"{path.stem}-{workload}{path.suffix}")
    else:
        path = BUILD_DIR / f"spans-{workload}-seed{seed}.json"
    path = (ROOT / path).resolve()
    if ROOT not in path.parents:
        fail(2, f"--spans must lie inside {ROOT}")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a"):
            pass
    except OSError as e:
        fail(2, f"cannot write --spans file {path}: {e}")
    return path


def build():
    """Configure once, then bring the perfbench binary up to date."""
    out = sys.stderr
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        r = subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B",
                            str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=out)
        if r.returncode:
            fail(3, "cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                        "perfbench", "-j", jobs], stdout=out, stderr=out)
    if r.returncode:
        fail(3, "build failed")
    return BUILD_DIR / "perfbench"


def golden_mismatches(golden):
    """Compare the reference pass with tests/golden (Table 1 cells and
    Figure 12 model costs and bars).  Returns a list of problems."""
    if golden is None:
        return []
    table1 = json.loads(GOLDEN["table1"].read_text())["measured"]
    fig12 = json.loads(GOLDEN["figure12"].read_text())
    bad = []
    want_cells = {row: v["cells"] for row, v in table1.items()}
    if golden["table1"] != want_cells:
        bad += [f"table1 row {row}" for row in want_cells
                if golden["table1"].get(row) != want_cells[row]]
        bad = bad or ["table1 rows"]
    for section in ("models", "programs"):
        if golden["figure12"].get(section) != fig12[section]:
            bad.append(f"figure12 {section}")
    return bad


def source_digest():
    """sha256 over the simulator and benchmark sources: identifies the
    code measured when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for p in sorted((ROOT / base).rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".hh", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_describe():
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                            "--dirty", "--tags"], capture_output=True,
                           text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return r.stdout.strip() if r.returncode == 0 else "unavailable"


def run_workload(binary, workload, args, spec):
    """Run one workload; returns (correct, attempted, failed, metrics)
    where metrics maps each BENCHMARK.json name to {value, unit}."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", str(spans_path(args.spans, workload, args.seed,
                                          args.workload == "all"))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail(4, f"{workload}: perfbench timed out")
    try:
        out = json.loads(r.stdout)
    except ValueError:
        fail(4, f"{workload}: perfbench exited {r.returncode} without a "
                f"result")

    problems = list(out["failures"])
    if not out["guard_ok"]:
        problems.append("instrumented passes changed simulated results")
    mismatches = golden_mismatches(out["golden"])
    failed = out["failed"]
    if mismatches:
        problems += [f"golden mismatch: {m}" for m in mismatches]
        failed = out["attempted"]   # every pass repeats the reference
    correct = r.returncode == 0 and not problems

    listed = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(out["metrics"]):
        fail(4, f"{workload}: perfbench metrics differ from BENCHMARK.json")
    metrics = {k: {"value": out["metrics"][k], "unit": u}
               for k, u in units.items()}

    summary = out["summary"]
    print(f"== {workload} (seed {args.seed}, {args.seconds} s, trace "
          f"{args.trace}): {out['attempted']} passes, {failed} failed")
    for name, m in metrics.items():
        note = ""
        if name == "run_s":
            note = (f"  ({summary['laps']} segments, fastest of each over "
                    f"{summary['passes']} passes; whole pass fastest "
                    f"{summary['run_s_fastest_pass']:.6g} s, median "
                    f"{summary['run_s_median_pass']:.6g} s)")
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}{note}")
    if not args.trace:
        summary["failed_ratio"] = failed / out["attempted"]
        for name, unit in SUMMARY_ONLY:
            value = summary.get(name)
            text = "n/a" if value is None else f"{value:.6g} {unit}"
            if name == "run_s_tail":
                text = (f"{text}  (p{summary['run_s_tail_percentile']:.1f}"
                        f" of {summary['passes']} passes)"
                        if value is not None else
                        f"n/a  (needs 11 passes, ran {summary['passes']})")
            print(f"  {name:32s} {text}")
    for p in problems:
        print(f"  FAILED: {p}")
    print("provenance: " + json.dumps({
        "git": git_describe(), "source_sha256": source_digest(),
        "build_type": out["build_type"], "compiler": out["compiler"],
        "hardware_threads": out["hardware_threads"],
        "argv": sys.argv, "seed": args.seed}))
    return correct, out["attempted"], failed, metrics


def main():
    args = parse_args()
    spec = check_inputs()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if args.trace:
        for w in names:
            spans_path(args.spans, w, args.seed, len(names) > 1)
    binary = build()

    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in names:
        c, a, f, m = run_workload(binary, w, args, spec)
        correct, attempted, failed = correct and c, attempted + a, failed + f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({f"{w}.{k}": v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
