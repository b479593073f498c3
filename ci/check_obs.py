#!/usr/bin/env python3
"""Cross-check relperf's observability outputs against each other.

Usage: check_obs.py TRACE_JSON METRICS_PROM SAMPLES_CSV

Asserts that
  * the trace file is valid JSON of the Chrome trace-event object form,
    every event is a complete ("ph": "X") event with the fields the format
    requires, nothing was dropped, and the provenance record is attached;
  * the Prometheus dump parses and carries the relperf counters plus the
    relperf_build_info info metric;
  * relperf_samples_total equals the sum of the per-algorithm counts in the
    samples CSV — the metrics side and the measurement side of the run must
    tell the same story;
  * the engine's round records agree (the run is an adaptive campaign): the
    trace holds one engine.round span per relperf_adaptive_rounds, and the
    last round's `stopped` arg equals the algorithm count of the samples
    CSV (the final round stops every algorithm).

Exits non-zero with a message naming the first violated invariant.
"""

import csv
import json
import sys


def fail(message: str) -> None:
    print(f"check_obs: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str) -> list:
    """Validates the trace and returns its engine.round events in order."""
    with open(path, encoding="utf-8") as handle:
        try:
            trace = json.load(handle)
        except json.JSONDecodeError as err:
            fail(f"{path} is not valid JSON: {err}")

    if not isinstance(trace, dict):
        fail(f"{path}: expected the object trace form, got {type(trace)}")
    events = trace.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: traceEvents missing or empty")

    required = {"name", "cat", "ph", "pid", "tid", "ts", "dur", "args"}
    names = set()
    for i, event in enumerate(events):
        missing = required - event.keys()
        if missing:
            fail(f"{path}: event {i} lacks {sorted(missing)}")
        if event["ph"] != "X":
            fail(f"{path}: event {i} has ph={event['ph']!r}, expected 'X'")
        if not isinstance(event["ts"], int) or not isinstance(event["dur"], int):
            fail(f"{path}: event {i} has non-integer ts/dur")
        names.add(event["name"])

    for expected in ("engine.run", "measure_all", "clusterer.cluster",
                     "engine.round"):
        if expected not in names:
            fail(f"{path}: no {expected!r} span recorded (saw {sorted(names)})")

    other = trace.get("otherData")
    if not isinstance(other, dict):
        fail(f"{path}: otherData missing")
    provenance = other.get("provenance")
    if not isinstance(provenance, dict) or "host" not in provenance:
        fail(f"{path}: provenance record missing or lacks 'host'")
    if other.get("droppedEvents") != 0:
        fail(f"{path}: droppedEvents = {other.get('droppedEvents')}")
    print(f"check_obs: {path}: {len(events)} events OK, "
          f"provenance keys: {sorted(provenance)}")
    rounds = [e for e in events if e["name"] == "engine.round"]
    rounds.sort(key=lambda e: e["args"].get("round", 0))
    return rounds


def parse_metrics(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            if not name:
                fail(f"{path}: malformed sample line {line!r}")
            values[name] = value
    return values


def check_metrics(path: str) -> dict:
    values = parse_metrics(path)
    for counter in ("relperf_samples_total", "relperf_samples_fixed_n_total",
                    "relperf_adaptive_rounds",
                    "relperf_bootstrap_resamples_total"):
        if counter not in values:
            fail(f"{path}: {counter} missing")
    if not any(name.startswith("relperf_build_info{") for name in values):
        fail(f"{path}: relperf_build_info info metric missing")

    samples_total = int(values["relperf_samples_total"])
    fixed_n_total = int(values["relperf_samples_fixed_n_total"])
    if samples_total <= 0:
        fail(f"{path}: relperf_samples_total = {samples_total}")
    if samples_total > fixed_n_total:
        fail(f"{path}: samples_total {samples_total} exceeds the fixed-N "
             f"plan cost {fixed_n_total}")

    print(f"check_obs: {path}: {len(values)} samples OK, "
          f"samples_total={samples_total}")
    return values


def csv_sample_counts(path: str) -> list:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != ["algorithm", "samples"]:
            fail(f"{path}: unexpected header {reader.fieldnames}")
        counts = [int(row["samples"]) for row in reader]
    if not counts:
        fail(f"{path}: no data rows")
    print(f"check_obs: {path}: {len(counts)} algorithms, {sum(counts)} "
          f"samples")
    return counts


def main() -> None:
    if len(sys.argv) != 4:
        fail(f"usage: {sys.argv[0]} TRACE_JSON METRICS_PROM SAMPLES_CSV")
    trace_path, metrics_path, samples_path = sys.argv[1:]

    rounds = check_trace(trace_path)
    values = check_metrics(metrics_path)
    counts = csv_sample_counts(samples_path)

    samples_total = int(values["relperf_samples_total"])
    if samples_total != sum(counts):
        fail(f"relperf_samples_total ({samples_total}) != samples CSV sum "
             f"({sum(counts)}) — the counters and the measurements disagree")
    adaptive_rounds = int(values["relperf_adaptive_rounds"])
    if len(rounds) != adaptive_rounds:
        fail(f"{trace_path}: {len(rounds)} engine.round spans, "
             f"relperf_adaptive_rounds = {adaptive_rounds} — the trace and "
             f"the counter disagree on the engine's rounds")
    stopped = rounds[-1]["args"].get("stopped")
    if stopped != len(counts):
        fail(f"{trace_path}: the last engine.round stopped {stopped} "
             f"algorithms, the samples CSV has {len(counts)} — the final "
             f"round must stop every algorithm")
    print(f"check_obs: OK — metrics agree with the samples CSV and the "
          f"trace's {len(rounds)} engine rounds")


if __name__ == "__main__":
    main()
