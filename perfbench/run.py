#!/usr/bin/env python3
"""Build perfbench from source and run it with this script's arguments.

    python3 perfbench/run.py --workload combined_ooo --seed 42 --seconds 30 --trace 0

The benchmark runs as a child of this script rather than through
`cargo run`, which replaces itself with the program: the program would
then inherit the build's compiler processes as waited-for children, and
its `getrusage(RUSAGE_CHILDREN)` peak memory would report the linker
instead of the sweep's worker processes. The build honours
CARGO_TARGET_DIR.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    child = subprocess.Popen([os.path.join(target, "release", "perfbench"), *sys.argv[1:]])
    # Pass a termination request on, so the benchmark stops its workers.
    signal.signal(signal.SIGTERM, lambda *_: child.terminate())
    signal.signal(signal.SIGINT, lambda *_: child.terminate())
    return child.wait()


if __name__ == "__main__":
    sys.exit(main())
