#!/usr/bin/env python3
"""Observability liveness guard for the CI metrics job.

Reads one or more `repro --metrics-out` JSON snapshots and fails when any
of the named counters is zero or missing — a zero here means an
optimization path (steady-state fast-forward, settled-ops cache,
characterization/load memo) silently stopped engaging even though the
code still produces correct numbers.

Usage: check_metrics.py <snapshot.json> <counter>[,<counter>...]

Every comma-separated name must be present and nonzero. Integer counters
("counters"), float counters ("float_counters", e.g.
facility.wasted_node_hours) and histograms ("histograms", e.g. the
runtime.iter.*.secs stage spans) are searched; a histogram is live when its
observation count ("total") is above zero.

Absent and zero are distinct failures (mirroring the registry API, where
`Snapshot::counter` returns an Option): MISSING means the counter was
never registered — the instrumented code path no longer runs at all or
the counter was renamed — while ZERO means the path ran but the guarded
branch inside it never engaged.
"""

import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    path, names = sys.argv[1], sys.argv[2].split(",")

    with open(path) as f:
        snap = json.load(f)
    counters = dict(snap.get("counters", {}))
    counters.update(snap.get("float_counters", {}))
    counters.update(
        (name, hist["total"]) for name, hist in snap.get("histograms", {}).items()
    )

    failed = False
    for name in names:
        value = counters.get(name)
        if value is None:
            print(f"{name:32s} {'—':>12}  MISSING (never registered)")
            failed = True
        elif value <= 0:
            print(f"{name:32s} {value:>12}  ZERO (path ran, never engaged)")
            failed = True
        else:
            print(f"{name:32s} {value:>12}  ok")

    if failed:
        print(f"FAIL: dead counter(s) in {path} — an optimization path "
              "stopped engaging")
        return 1
    print(f"ok: all {len(names)} counters live in {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
