#!/usr/bin/env python3
"""Build the GekkoFS benchmark from source and run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mdtest_tcp --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (with the library
targets of the enclosing tree) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
rebuild what changed. Build output goes to stderr, so the benchmark's
own stdout ends with its JSON result line. Data lives under .bench_data/
and is removed by the benchmark when it ends.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets=("gkfs_perfbench",)):
    """Configure once, then build `targets`; returns the build directory."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"no GekkoFS source tree around {HERE}")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 8))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out


def commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "none"


def source_digest():
    """SHA-1 over the library sources, identifying the code under test
    when the checkout is not a git repository."""
    h = hashlib.sha1()
    for top in ("src", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    out = build()
    cmd = [os.path.join(out, "gkfs_perfbench"), *sys.argv[1:],
           "--root", os.path.join(ROOT, ".bench_data"),
           "--commit", commit(), "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait()
    except KeyboardInterrupt:
        proc.terminate()
        return proc.wait()


if __name__ == "__main__":
    sys.exit(main())
