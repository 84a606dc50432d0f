#!/usr/bin/env python3
"""Perf-regression gate over the BENCH_*.json trajectory records.

Runs `bench_<name> --json` for every bench in BENCHES from a build tree
and compares the fresh records against the committed baselines in
bench/baselines/. Each record declares which of its fields are gated, and
how, in a "gates" object:

    "gates": {"exact": [paths...], "wall": [paths...], "floor": [paths...]}

A path is dotted object keys ("summary.queue_wait_steps.p95"). A leading
"points[]." applies the rest of the path to every baseline point that
carries the field, matching fresh points on (workload, threads); every
baseline point must still exist. Three rules:

* exact: deterministic fields (scheduler step counts, determinism
  verdicts, ordering booleans) are machine-independent by the repo's
  determinism contract and must match the baseline EXACTLY. A drift here
  is a behavior change smuggled in as a perf delta.
* wall: wall-clock fields track machine speed; the fresh value must stay
  under baseline * --slack (default 3.0 — CI runners are noisy; the gate
  is for order-of-magnitude regressions, the archived artifacts are for
  trend analysis).
* floor: throughput fields regress downward; the fresh value must stay
  above baseline / --slack.

The gates are read from the committed baseline, and one extra exact row
per bench requires the fresh record's gates to equal them, so a bench
edit cannot quietly un-gate a field. A gated field missing from either
record fails.

Usage:
  check_bench.py [--build-dir build] [--baseline-dir bench/baselines]
                 [--slack 3.0] [--out-dir .] [--update]

--update rewrites the baselines from the fresh run (commit the result).
Fresh records are always written to --out-dir as BENCH_<name>.json so CI
can archive them per commit.

Exit codes: 0 pass, 1 regression, 2 bad usage / missing binaries.
"""

import argparse
import json
import os
import subprocess
import sys

BENCHES = ["kernels", "fleet", "scenarios", "quant"]
RULES = ["exact", "wall", "floor"]
POINTS = "points[]."


def dig(record, path):
    cur = record
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


class Gate:
    def __init__(self, slack):
        self.slack = slack
        self.labels = {"exact": "exact", "wall": f"<= {slack:g}x",
                       "floor": f">= /{slack:g}"}
        self.rows = []  # (bench, field, baseline, fresh, rule, ok)
        self.failed = False

    def check(self, rule, bench, field, baseline, fresh):
        if baseline is None or fresh is None:
            ok = False  # a missing gated field is a visible FAIL, not a skip
        elif rule == "exact":
            ok = baseline == fresh
        elif rule == "wall":
            ok = fresh <= baseline * self.slack
        else:
            ok = fresh >= baseline / self.slack
        self.rows.append((bench, field, baseline, fresh, self.labels[rule],
                          ok))
        self.failed |= not ok

    def report(self):
        wb = max((len(r[0]) for r in self.rows), default=6)
        wf = max((len(r[1]) for r in self.rows), default=10)
        print(f"{'bench':<{wb}} {'field':<{wf}} {'baseline':>14} "
              f"{'fresh':>14} {'rule':>8}  verdict")
        for bench, field, baseline, fresh, rule, ok in self.rows:
            print(f"{bench:<{wb}} {field:<{wf}} {str(baseline):>14} "
                  f"{str(fresh):>14} {rule:>8}  "
                  f"{'PASS' if ok else 'FAIL'}")
        print()
        if self.failed:
            print("check_bench: REGRESSION — see FAIL rows above")
        else:
            print(f"check_bench: PASS ({len(self.rows)} checks)")


def show_gates(gates, same):
    """Table cell for a gates object: a path count when both records agree,
    the whole object when they differ, None (a FAIL) when it is missing."""
    if not isinstance(gates, dict):
        return None
    if same:
        return f"{sum(len(paths) for paths in gates.values())} paths"
    return json.dumps(gates, separators=(",", ":"))


def compare(gate, bench, baseline, fresh):
    """Apply the baseline's declared gates to one fresh record."""
    gates, fresh_gates = baseline.get("gates"), fresh.get("gates")
    same = gates == fresh_gates
    gate.check("exact", bench, "gates", show_gates(gates, same),
               show_gates(fresh_gates, same))
    if not isinstance(gates, dict):
        return
    top = {rule: [p for p in gates.get(rule, []) if not p.startswith(POINTS)]
           for rule in RULES}
    per_point = [(rule, p[len(POINTS):]) for rule in RULES
                 for p in gates.get(rule, []) if p.startswith(POINTS)]

    for path in top["exact"]:
        gate.check("exact", bench, path, dig(baseline, path),
                   dig(fresh, path))
    if per_point:
        base_points = {(p["workload"], p["threads"]): p
                       for p in baseline.get("points", [])}
        fresh_points = {(p["workload"], p["threads"]): p
                        for p in fresh.get("points", [])}
        # A silently dropped workload is not a pass.
        for key, bp in sorted(base_points.items()):
            fp = fresh_points.get(key)
            label = f"points[{key[0]},t{key[1]}]"
            if fp is None:
                gate.check("exact", bench, label, "present", "missing")
                continue
            # Points mix timing and accuracy workloads: a point path binds
            # only where the baseline point carries the field.
            for rule, path in per_point:
                if dig(bp, path) is not None:
                    gate.check(rule, bench, f"{label}.{path}", dig(bp, path),
                               dig(fp, path))
    for rule in ("wall", "floor"):
        for path in top[rule]:
            gate.check(rule, bench, path, dig(baseline, path),
                       dig(fresh, path))


def run_bench(binary, out_path):
    if not os.path.exists(binary):
        sys.exit(f"check_bench: missing bench binary {binary} "
                 f"(build the repo first) [exit 2]")
    res = subprocess.run([binary, "--json", out_path],
                         stdout=subprocess.DEVNULL)
    if res.returncode != 0:
        sys.exit(f"check_bench: {binary} exited {res.returncode} [exit 2]")
    with open(out_path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--out-dir", default=".")
    ap.add_argument("--slack", type=float, default=3.0,
                    help="wall-clock tolerance multiplier (default 3.0)")
    ap.add_argument("--update", action="store_true",
                    help="rewrite baselines from the fresh run")
    args = ap.parse_args()

    gate = Gate(args.slack)
    for name in BENCHES:
        binary = os.path.join(args.build_dir, "bench", f"bench_{name}")
        fresh = run_bench(binary,
                          os.path.join(args.out_dir, f"BENCH_{name}.json"))
        baseline_path = os.path.join(args.baseline_dir,
                                     f"BENCH_{name}.json")
        if args.update:
            with open(baseline_path, "w") as f:
                json.dump(fresh, f)
                f.write("\n")
            print(f"check_bench: rewrote {baseline_path}")
            continue
        if not os.path.exists(baseline_path):
            sys.exit(f"check_bench: no baseline {baseline_path} "
                     f"(run with --update to create) [exit 2]")
        with open(baseline_path) as f:
            baseline = json.load(f)
        compare(gate, name, baseline, fresh)

    if args.update:
        return 0
    gate.report()
    return 1 if gate.failed else 0


if __name__ == "__main__":
    sys.exit(main())
