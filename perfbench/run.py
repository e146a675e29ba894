#!/usr/bin/env python3
"""Build and run the FT-Linda benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <pingpong|bag_of_tasks> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root) and
then run once; its standard output is passed through, so the last line
is the JSON result. With --trace 1 the benchmark's spans are written to
<target dir>/perfbench-spans-<workload>-<seed>.tsv. The exit code is the
benchmark's: non-zero when the build fails or a correctness check fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run measures at most 120 s plus set-up and replays; anything longer
# is a hang.
RUN_TIMEOUT_S = 175


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, cwd=ROOT,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(
            target, "perfbench-spans-%s-%d.tsv" % (args.workload, args.seed))]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    except BaseException:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main())
