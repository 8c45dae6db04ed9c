#!/usr/bin/env python3
"""Validate a tcpni --metrics JSON file against the tcpni-metrics-1 schema.

Usage: validate_metrics.py METRICS.json [METRICS.csv]

Checks (stdlib only, no third-party dependencies):
  - top level: schema tag, sampleInterval, tasks list
  - each task: label, sims, groups, samples
  - each group: counters {name: int}, gauges {name: {last, peak}},
    histograms {name: {count, min, max, mean, p50, p90, p99, p999}}
  - histogram invariants: min <= p50 <= p90 <= p99 <= p999 <= max,
    min <= mean <= max, count > 0
  - gauge invariant: last <= peak
  - sample rows: [sim, tick, series, value] with sim < sims, tick a
    multiple of sampleInterval (except a sim's final sample, taken at
    the end of its run: a tick off the interval must be the sim's
    last), series naming an emitted group series, counter series
    monotone non-decreasing per (sim, series)
  - optional CSV: header line and row-count consistency with the JSON

Exit status 0 on success; prints the first failure and exits 1 otherwise.
"""

import json
import sys

HIST_KEYS = {"count", "min", "max", "mean", "p50", "p90", "p99", "p999"}


def fail(msg):
    print(f"validate_metrics: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def is_uint(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def validate_histogram(where, h):
    expect(set(h.keys()) == HIST_KEYS,
           f"{where}: histogram keys {sorted(h.keys())} != "
           f"{sorted(HIST_KEYS)}")
    for k in HIST_KEYS - {"mean"}:
        expect(is_uint(h[k]), f"{where}.{k}: not a non-negative integer")
    expect(isinstance(h["mean"], (int, float)), f"{where}.mean: not a number")
    expect(h["count"] > 0, f"{where}: empty histogram was emitted")
    expect(h["min"] <= h["p50"] <= h["p90"] <= h["p99"] <= h["p999"]
           <= h["max"],
           f"{where}: percentiles not monotone: {h}")
    expect(h["min"] <= h["mean"] <= h["max"],
           f"{where}: mean {h['mean']} outside [min, max]")


def validate_group(where, g):
    expect(set(g.keys()) == {"name", "counters", "gauges", "histograms"},
           f"{where}: unexpected group keys {sorted(g.keys())}")
    expect(isinstance(g["name"], str) and g["name"],
           f"{where}: missing group name")
    series = set()
    for name, v in g["counters"].items():
        expect(is_uint(v), f"{where}.counters.{name}: not an integer")
        series.add(f"{g['name']}.{name}")
    for name, v in g["gauges"].items():
        expect(set(v.keys()) == {"last", "peak"},
               f"{where}.gauges.{name}: keys {sorted(v.keys())}")
        expect(is_uint(v["last"]) and is_uint(v["peak"]),
               f"{where}.gauges.{name}: not integers")
        expect(v["last"] <= v["peak"],
               f"{where}.gauges.{name}: last {v['last']} > peak "
               f"{v['peak']}")
        series.add(f"{g['name']}.{name}")
    for name, v in g["histograms"].items():
        validate_histogram(f"{where}.histograms.{name}", v)
    return series


def validate_task(where, t, interval):
    expect(set(t.keys()) == {"label", "sims", "groups", "samples"},
           f"{where}: unexpected task keys {sorted(t.keys())}")
    expect(isinstance(t["label"], str) and t["label"],
           f"{where}: missing label")
    expect(is_uint(t["sims"]), f"{where}: bad sims count")
    # A task that ran no event-driven simulation (e.g. a TAM abstract-
    # machine interpretation) legitimately observed nothing.
    if t["sims"] == 0:
        expect(not t["groups"] and not t["samples"]["rows"],
               f"{where}: groups/rows without a simulation")
    series = set()
    counter_series = set()
    for gi, g in enumerate(t["groups"]):
        series |= validate_group(f"{where}.groups[{gi}]", g)
        for name in g["counters"]:
            counter_series.add(f"{g['name']}.{name}")

    samples = t["samples"]
    expect(set(samples.keys()) == {"dropped", "rows"},
           f"{where}.samples: keys {sorted(samples.keys())}")
    expect(is_uint(samples["dropped"]), f"{where}.samples.dropped")
    last_counter = {}
    final_tick = {}
    for row in samples["rows"]:
        if isinstance(row, list) and len(row) == 4:
            final_tick[row[0]] = max(final_tick.get(row[0], 0), row[1])
    n_rows = 0
    for row in samples["rows"]:
        expect(isinstance(row, list) and len(row) == 4,
               f"{where}.samples.rows[{n_rows}]: not [sim,tick,"
               f"series,value]")
        sim, tick, name, value = row
        expect(is_uint(sim) and sim < t["sims"],
               f"{where}.samples.rows[{n_rows}]: sim {sim} out of "
               f"range")
        expect(is_uint(tick) and is_uint(value),
               f"{where}.samples.rows[{n_rows}]: non-integer "
               f"tick/value")
        expect(interval == 0 or tick % interval == 0 or
               tick == final_tick[sim],
               f"{where}.samples.rows[{n_rows}]: tick {tick} neither "
               f"a multiple of the sample interval {interval} nor "
               f"the final sample of sim {sim}")
        expect(name in series,
               f"{where}.samples.rows[{n_rows}]: unknown series "
               f"'{name}'")
        if name in counter_series:
            key = (sim, name)
            expect(value >= last_counter.get(key, 0),
                   f"{where}.samples.rows[{n_rows}]: counter "
                   f"'{name}' went backwards")
            last_counter[key] = value
        n_rows += 1
    return n_rows


def validate_json(path):
    with open(path) as f:
        doc = json.load(f)
    expect(set(doc.keys()) == {"schema", "sampleInterval", "tasks"},
           f"top level keys {sorted(doc.keys())}")
    expect(doc["schema"] == "tcpni-metrics-1",
           f"schema tag '{doc.get('schema')}' != 'tcpni-metrics-1'")
    expect(is_uint(doc["sampleInterval"]), "sampleInterval")
    interval = doc["sampleInterval"]
    expect(isinstance(doc["tasks"], list) and doc["tasks"],
           "tasks missing or empty")
    labels = [t.get("label") for t in doc["tasks"]]
    expect(len(labels) == len(set(labels)),
           f"duplicate task labels: {labels}")
    total_rows = 0
    for ti, t in enumerate(doc["tasks"]):
        total_rows += validate_task(f"tasks[{ti}]", t, interval)
    return len(doc["tasks"]), total_rows


def validate_csv(path, json_rows):
    with open(path) as f:
        lines = f.read().splitlines()
    expect(lines, "CSV is empty")
    expect(lines[0] == "label,sim,tick,metric,value",
           f"CSV header '{lines[0]}'")
    expect(len(lines) - 1 == json_rows,
           f"CSV has {len(lines) - 1} rows, JSON has {json_rows}")
    for i, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        expect(len(cols) == 5, f"CSV line {i}: {len(cols)} columns")
        expect(cols[1].isdigit() and cols[2].isdigit()
               and cols[4].isdigit(),
               f"CSV line {i}: non-numeric sim/tick/value")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    tasks, rows = validate_json(sys.argv[1])
    if len(sys.argv) == 3:
        validate_csv(sys.argv[2], rows)
    print(f"validate_metrics: OK: {sys.argv[1]}: {tasks} tasks, "
          f"{rows} sample rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
