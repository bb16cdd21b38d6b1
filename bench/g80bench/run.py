#!/usr/bin/env python3
"""Build and run g80bench from a source checkout.

    python3 bench/g80bench/run.py --workload serve_tcp --seed 3 \
        --seconds 20 --trace 0

configures and builds bench/g80bench (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs the one workload, and passes its output through: the
last line is the JSON result.  With --workload all (the default) every
workload runs in a process of its own; with --trace 1 each also runs
untraced so the tracing overhead can be printed.  --out FILE appends one
JSON line per run, the input bench_compare.py reads.

Exits nonzero, without printing a result, when the sources are missing or
the build fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["paper_small", "search_large", "serve_tcp", "fleet_sad"]
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(build_root):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no g80tune sources under {ROOT / 'src'}; cannot build")
        sys.exit(2)
    build_dir = build_root / "g80bench"
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "g80bench"])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("build failed: " + " ".join(cmd))
            sys.exit(2)
    return build_dir / "g80bench"


def run_one(binary, build_root, args, workload, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--work", str(build_root / "work"),
           "--expected", str(HERE / "expected.json")]
    if args.smoke:
        cmd.append("--smoke")
    if args.spans and trace:
        cmd += ["--spans", args.spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if args.out and result is not None:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": workload, "seed": args.seed,
                                "trace": trace, "result": result}) + "\n")
    return proc.returncode, lines, result


def traced_e2e(lines):
    """The end-to-end numbers a traced run prints as 'traced-e2e' lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 5 and parts[1] == "traced-e2e" and parts[3] == "=":
            out[parts[2]] = float(parts[4])
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="a few operations per workload")
    p.add_argument("--spans", help="write a traced run's spans here (JSONL)")
    p.add_argument("--out", help="append one JSON line per run here")
    args = p.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    binary = build(build_root)

    if args.workload != "all":
        code, lines, _ = run_one(binary, build_root, args, args.workload,
                                 args.trace)
        for line in lines:
            print(line)
        return code

    ok = True
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        modes = [0, 1] if args.trace else [0]
        untraced = {}
        for trace in modes:
            code, lines, result = run_one(binary, build_root, args, w, trace)
            for line in lines[:-1]:
                print(line)
            if result is None:
                log(f"{w} printed no result (exit {code})")
                return 1
            ok = ok and code == 0 and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                key = f"{w}.{'layer.' if trace else ''}{name}"
                summary["metrics"][key] = m
            if trace == 0:
                untraced = {k: v["value"] for k, v in
                            result["metrics"].items()}
            else:
                for name, value in traced_e2e(lines).items():
                    base = untraced.get(name)
                    if base:
                        print(f"{w} tracing overhead {name}: "
                              f"{100 * (value - base) / base:+.1f}%")
    summary["correct"] = ok
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
