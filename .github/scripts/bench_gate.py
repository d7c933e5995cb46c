#!/usr/bin/env python3
"""Gate fresh benchmark runs against a committed BENCH_*.json baseline.

Usage: bench_gate.py BENCH_FILE OUTPUT_FILE BENCHMARK [BENCHMARK ...]

OUTPUT_FILE is `go test -bench ... -count=3 -benchmem` output. For every
named benchmark (a key of BENCH_FILE's "benchmarks" object, e.g.
BenchmarkLadderSimpleSort/n=16) the gate requires exactly three runs,
each at 0 allocs/op, and fails when the fastest run's ns/step is more
than 20% above the baseline's "after" ns_per_step. The minimum filters
scheduler noise; a real regression slows every run.
"""
import json
import re
import sys

RUNS = 3
TOLERANCE = 1.20


def main(bench_file, output_file, names):
    base = json.load(open(bench_file))['benchmarks']
    runs = {name: [] for name in names}
    for line in open(output_file):
        for name in names:
            # The name, an optional -GOMAXPROCS suffix, then the columns.
            if not re.match(re.escape(name) + r'(-\d+)?\s', line):
                continue
            m = re.search(r'([\d.e+]+) ns/step', line)
            a = re.search(r'(\d+) allocs/op', line)
            if not (m and a):
                sys.exit(f'could not parse benchmark line: {line!r}')
            if int(a.group(1)) != 0:
                sys.exit(f'warm path allocated: {line!r}')
            runs[name].append(float(m.group(1)))
    for name, vals in runs.items():
        if len(vals) != RUNS:
            sys.exit(f'expected {RUNS} runs of {name}, parsed {len(vals)}')
        baseline = base[name]['after']['ns_per_step']
        best, limit = min(vals), baseline * TOLERANCE
        print(f'{name} ns/step: best {best:.0f} of {vals}, baseline {baseline}, limit {limit:.0f}')
        if best > limit:
            sys.exit(f'{name} regression: {best:.0f} ns/step is more than 20% above the {baseline} baseline')


if __name__ == '__main__':
    if len(sys.argv) < 4:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2], sys.argv[3:])
