#!/usr/bin/env python3
"""Check that BENCHMARK.json lists exactly what the benchmark prints.

    python3 perfbench/tests/test_names.py PERFBENCH_RUN BENCHMARK_JSON

PERFBENCH_RUN --list-metrics prints the end-to-end and per-layer metric
tables the result line is built from, and the workload names. Every
name must also follow the metric-name grammar.
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def main(binary, bench_json):
    listed = subprocess.run([binary, "--list-metrics"], check=True,
                            capture_output=True, text=True).stdout
    printed = {"end_to_end": [], "per_layer": [], "workload": []}
    for line in listed.splitlines():
        kind, *rest = line.split()
        printed[kind].append(tuple(rest))
    with open(bench_json) as f:
        bench = json.load(f)

    errors = []

    def same(what, got, want):
        if got != want:
            errors.append("%s: benchmark prints %s, BENCHMARK.json has %s"
                          % (what, got, want))

    for kind in ("end_to_end", "per_layer"):
        same(kind, printed[kind],
             [(m["name"], m["unit"]) for m in bench[kind]])
    same("workloads", [w[0] for w in printed["workload"]],
         [w["name"] for w in bench["workloads"]])

    names = [n for kind in printed.values() for n, *_ in kind]
    if len(names) != len(set(names)):
        errors.append("a name is used twice")
    for kind in ("end_to_end", "per_layer"):
        for name, unit in printed[kind]:
            if not NAME.match(name):
                errors.append("bad metric name " + name)
            if not UNIT.match(unit):
                errors.append("bad unit %s of %s" % (unit, name))
    if "setup_s" not in [n for n, _ in printed["end_to_end"]]:
        errors.append("setup_s is not an end-to-end metric")

    for e in errors:
        print("FAIL:", e)
    print("OK" if not errors else "FAILED")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
