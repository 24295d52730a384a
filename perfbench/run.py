#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload pager|unix|cluster --seed N \
        --seconds S --trace 0|1

The OCaml sources of the simulator (dune-project, lib/) must sit next to
this directory; the benchmark executable is built from them with dune into
.bench_build/ and run with the same arguments.  Its last stdout line is the
JSON result.  With --trace 1 the traced run's spans are also written as
Chrome trace-event JSON to .bench_build/perfbench/<workload>.trace.json.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "default", "perfbench", "main.exe")


def arg(name):
    argv = sys.argv[1:]
    return argv[argv.index(name) + 1] if name in argv[:-1] else None


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: the simulator sources (dune-project, lib/) are missing",
              file=sys.stderr)
        return 2
    # the shared dune cache lives outside the checkout: keep the build in it
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
         "./perfbench/main.exe"],
        cwd=ROOT, env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    out = os.path.join(BUILD, "perfbench")
    events = os.path.join(out, "runtime_events")
    os.makedirs(events, exist_ok=True)
    extra = []
    if arg("--trace") == "1" and arg("--workload"):
        extra = ["--trace-out",
                 os.path.join(out, arg("--workload") + ".trace.json")]
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=events)
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    run = subprocess.run([EXE] + sys.argv[1:] + extra, cwd=ROOT, env=env,
                         timeout=175)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
