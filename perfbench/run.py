#!/usr/bin/env python3
"""Build and run monocle's end-to-end benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload steady_sim --seed 1 --seconds 20 --trace 0

The benchmark is a Go program of its own (this directory's module) that
uses the monocle module one directory up through a replace directive.
Every file it builds or writes goes under .bench_build in the checkout
(or under $CARGO_TARGET_DIR when set): the Go build cache and temporary
files, the binary, the WAL directories of the run and the span dumps of
traced runs.

The last line of standard output is the result as one JSON object. The
exit code is not 0 when the program cannot be built or the run fails.
"""

import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def revision():
    """Return the git revision, when there is one, and a digest of the Go sources measured."""
    head = "no-git"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                head = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return head + " src-sha256:" + h.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("perfbench: no monocle module next to the benchmark (missing ../go.mod)", file=sys.stderr)
        return 2
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.abspath(os.path.join(ROOT, build))
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "TMPDIR": tmp,
        "GOTMPDIR": tmp,
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOWORK": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary, "--out", build, "--commit", revision()] + sys.argv[1:]
    # A SIGTERM must not orphan the benchmark process: turn it into an
    # exception so the finally clause below stops and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    child = subprocess.Popen(cmd, cwd=ROOT, env=env)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
