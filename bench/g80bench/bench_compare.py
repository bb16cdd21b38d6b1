#!/usr/bin/env python3
"""Compare two sets of g80bench runs, metric by metric.

    python3 bench/g80bench/bench_compare.py base.jsonl new.jsonl

Each side is a file (or a directory of *.jsonl files) of lines written by
`run.py --out`.  For every workload and metric it prints each side's
median and quartiles.  An end-to-end metric whose new median is worse than
the base median by more than its BENCHMARK.json bound is flagged WORSE; one
whose run-to-run spread (quartile distance over median, on either side)
exceeds the bound is UNRESOLVED, unless every new run beats every base run.
Per-layer metrics have no bound and are only listed.  Exits 1 when any
metric is worse or unresolved, or any run's outputs were incorrect.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(path):
    p = Path(path)
    files = sorted(p.glob("*.jsonl")) if p.is_dir() else [p]
    rows = []
    for f in files:
        with open(f) as fh:
            rows += [json.loads(line) for line in fh if line.strip()]
    return rows


def group(rows):
    """{(workload, traced, metric): [values]} and the incorrect runs."""
    out, bad = {}, []
    for r in rows:
        res = r["result"]
        if not res["correct"] or res["failed"]:
            bad.append(f"{r['workload']} seed {r['seed']} trace {r['trace']}")
        for name, m in res["metrics"].items():
            out.setdefault((r["workload"], r["trace"], name), []).append(
                m["value"])
    return out, bad


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(vals):
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(spec, base, new):
    if spec is None:
        return "-"
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    b, n = statistics.median(base), statistics.median(new)
    if lower:
        all_better = max(new) < min(base)
        worse = n > b * (1 + bound)
    else:
        all_better = min(new) > max(base)
        worse = n < b * (1 - bound)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "UNRESOLVED"
    return "WORSE" if worse else "ok"


def main():
    here = Path(__file__).resolve().parent
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base")
    p.add_argument("new")
    p.add_argument("--benchmark", default=str(here.parent.parent /
                                              "BENCHMARK.json"))
    args = p.parse_args()

    with open(args.benchmark) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    base, bad_base = group(load(args.base))
    new, bad_new = group(load(args.new))

    failed = False
    for label, bad in (("base", bad_base), ("new", bad_new)):
        for run in bad:
            print(f"INCORRECT {label} run: {run}")
            failed = True

    fmt = "{:<13} {:<31} {:>26} {:>26} {:>8} {:>6} {}"
    print(fmt.format("workload", "metric", "base median [q1, q3]",
                     "new median [q1, q3]", "change", "bound", "verdict"))
    for key in sorted(set(base) & set(new)):
        workload, traced, name = key
        spec = None if traced else specs.get(name)
        v = verdict(spec, base[key], new[key])
        failed = failed or v in ("WORSE", "UNRESOLVED")
        bq, nq = quartiles(base[key]), quartiles(new[key])
        change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
        side = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(fmt.format(workload, ("layer " if traced else "") + name,
                         side(bq), side(nq), f"{100 * change:+.1f}%",
                         f"{spec['bound']:.2f}" if spec else "-", v))
    for key in sorted(set(base) ^ set(new)):
        print(f"only on one side: {key[0]} {key[2]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
