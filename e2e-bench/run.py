#!/usr/bin/env python3
"""Builds and runs the DC-MBQC end-to-end benchmark.

Run one workload (from the repository root):

    python3 e2e-bench/run.py --workload qft_ladder --seed 1 --seconds 20 --trace 0

The last line of standard output is the run's JSON result. The crate is
built from source first (release profile, offline) into
$CARGO_TARGET_DIR, or `.bench_build` when that is unset.

Check run-to-run stability:

    python3 e2e-bench/run.py stability [--seeds 1,2,3,4,5] [--gap 600]
                                       [--seconds 20] [--workloads a,b]

runs every workload once per seed in two sessions `--gap` seconds apart
and prints, for each end-to-end metric, each session's median and
quartiles, its spread (interquartile range over median), and whether the
two sessions agree within the metric's bound in BENCHMARK.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        proc = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("build failed", file=sys.stderr)
        return None
    return os.path.join(os.path.abspath(target), "release", "mbqc-e2e-bench")


def run_once(binary, args):
    """Runs the binary with `args`; returns (exit code, stdout text)."""
    with subprocess.Popen([binary, *args], stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1, ""
    return proc.returncode, out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def session(binary, workloads, seeds, seconds):
    """{workload: {metric: [values]}} over one run per seed; workloads
    alternate, so slow drift in machine speed reaches each of them alike."""
    results = {w: {} for w in workloads}
    for seed in seeds:
        for w in workloads:
            per_metric = results[w]
            args = ["--workload", w, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            code, out = run_once(binary, args)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                sys.exit(f"{w} seed {seed} failed (exit {code})")
            result = json.loads(lines[-1])
            if result["failed"] or not result["correct"]:
                print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"  {w} seed {seed}: {json.dumps(result)}", file=sys.stderr)
    return results


def stability(argv):
    opts = {"--seeds": "1,2,3,4,5", "--gap": "600", "--seconds": None, "--workloads": None}
    it = iter(argv)
    for flag in it:
        if flag not in opts:
            sys.exit(f"unknown flag {flag}")
        opts[flag] = next(it)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = opts["--workloads"].split(",") if opts["--workloads"] else [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in opts["--seeds"].split(",")]
    seconds = opts["--seconds"] or str(spec["run_seconds"])
    binary = build()
    if binary is None:
        sys.exit(1)
    first = session(binary, workloads, seeds, seconds)
    print(f"session A done; waiting {opts['--gap']} s", file=sys.stderr)
    time.sleep(float(opts["--gap"]))
    second = session(binary, workloads, seeds, seconds)
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    all_ok = True
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<20} {'A q1':>10} {'A med':>10} {'A q3':>10} {'B q1':>10} {'B med':>10} {'B q3':>10} "
              f"{'sprA':>6} {'sprB':>6} {'drift':>7} {'bound':>6} ok")
        for name, bound in bounds.items():
            a, b = quartiles(first[w][name]), quartiles(second[w][name])
            spread_a = (a[2] - a[0]) / a[1] if a[1] else 0.0
            spread_b = (b[2] - b[0]) / b[1] if b[1] else 0.0
            # Worsening of B against A, as a share of A's median.
            drift = (b[1] - a[1]) / a[1] if a[1] else 0.0
            if not lower_better[name]:
                drift = -drift
            spreads_ok = spread_a <= bound and spread_b <= bound
            ok = spreads_ok and drift <= bound
            all_ok &= ok
            print(f"  {name:<20} {a[0]:>10.4g} {a[1]:>10.4g} {a[2]:>10.4g} {b[0]:>10.4g} {b[1]:>10.4g} {b[2]:>10.4g} "
                  f"{spread_a:>6.3f} {spread_b:>6.3f} {drift:>+7.3f} {bound:>6.2f} {'yes' if ok else 'NO'}")
    print("\nall metrics agree within their bounds" if all_ok else "\nsome metrics disagree")
    return 0 if all_ok else 1


def main(argv):
    if argv and argv[0] == "stability":
        return stability(argv[1:])
    binary = build()
    if binary is None:
        return 1
    code, out = run_once(binary, argv)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main(sys.argv[1:]))
