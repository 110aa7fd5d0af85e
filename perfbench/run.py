#!/usr/bin/env python3
"""Attack-campaign benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `perfbench` harness (a Cargo
package of its own, built against the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs one workload, writes a
results file with the machine record under `.bench_results/`, prints every
metric by name with its unit, and prints as its last line one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics; `--trace 1` reports the
per-layer metrics of a traced replay of the same cells.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("iscas-exact", "superblue-cone", "stochastic-sweep")
# Each run must end within 180 s; leave room for the build check and I/O.
RUN_TIMEOUT_S = 170


def build(target_dir):
    """Builds the harness; returns the executable's path."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=True)
    return os.path.join(target_dir, "release", "perfbench")


def command_output(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_record(nproc):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_commit": command_output(["git", "rev-parse", "HEAD"])
        or "unknown (not a git checkout)",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    try:
        exe = build(target_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: cannot build the benchmark harness: {e}", file=sys.stderr)
        return 1

    out_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: harness exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    detail = result.pop("detail")
    finite = all(math.isfinite(m["value"]) for m in result["metrics"].values())
    result["correct"] = bool(result["correct"] and finite)

    record = dict(machine_record(detail["nproc"]), workload=args.workload,
                  seed=args.seed, seconds=args.seconds, trace=args.trace)
    path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"machine": record, "result": result, "detail": detail}, f,
                  indent=1)

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if "fail_frac" in detail:
        print(f"{args.workload} fail_frac = {detail['fail_frac']:.6g} "
              f"({result['failed']} of {result['attempted']} cells)")
    for key in ("verdicts", "untraced_verdicts", "traced_verdicts"):
        if key in detail:
            v = detail[key]
            print(f"{args.workload} {key} digest {v['digest']}: "
                  + " ".join(v["cells"]))
    print(f"{args.workload} results file: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
