#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload kv-txn --seed 1 --seconds 10 --trace 0

Run it from the repository root. It builds perfbench/ (a Go module of its
own that imports the repository's packages) into .bench_build/, runs the
binary, and passes its report through; the last line of standard output is
the JSON result. With --trace 1 it also attributes the live phase's CPU
profile to the repository's modules and adds one <module>.cpu_share metric
per module. Everything the build and the run write stays under
.bench_build/. The exit code is the benchmark's: 0 when every correctness
check passed, nonzero otherwise (including a failed build).
"""

import argparse
import json
import os
import re
import subprocess
import sys

RUN_TIMEOUT_S = 170

# Self time is attributed to the module whose package a sample's leaf
# function belongs to. Packages of the repository map by name; the load
# generator is this benchmark's own main package; the rest map as below.
REPO_MODULES = {
    "serve", "stm", "vtags", "txmap", "skiplist", "vacation", "reclaim",
    "telemetry", "machine", "cachemodel",
}
# internal/runtime/syscall is where socket reads, writes and epoll waits
# enter the kernel.
NET_PACKAGES = {"net", "internal/poll", "syscall", "bufio", "internal/runtime/syscall"}
RUNTIME_PREFIXES = ("runtime", "internal/runtime", "sync", "internal/sync")
SHARE_MODULES = sorted(REPO_MODULES | {"net", "runtime", "load", "other"})


def go_env(build):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
    })
    return env


def package_of(func):
    """The import path of a pprof function name such as
    repro/internal/vtags.(*Thread).Validate or main.(*client).exchange."""
    slash = func.rfind("/")
    dot = func.find(".", slash + 1)
    return func if dot < 0 else func[:dot]


def module_of(pkg):
    if pkg == "main":
        return "load"
    if pkg.startswith("repro/internal/"):
        name = pkg[len("repro/internal/"):]
        return name if name in REPO_MODULES else "other"
    if pkg in NET_PACKAGES:
        return "net"
    if pkg.startswith(RUNTIME_PREFIXES):
        return "runtime"
    return "other"


def cpu_shares(profile, env):
    """Self-time share of each module in a CPU profile."""
    out = subprocess.run(
        ["go", "tool", "pprof", "-top", "-nodecount=1000000",
         "-nodefraction=0", "-edgefraction=0", "-unit=ns", profile],
        env=env, capture_output=True, text=True, timeout=60, check=True).stdout
    shares = dict.fromkeys(SHARE_MODULES, 0.0)
    total = 0.0
    for line in out.splitlines():
        m = re.match(r"\s*([\d.]+)ns\s+[\d.]+%\s+[\d.]+%\s+[\d.]+ns\s+[\d.]+%\s+(.+)$", line)
        if m:
            flat = float(m.group(1))
            shares[module_of(package_of(m.group(2).strip()))] += flat
            total += flat
    if total == 0:
        raise RuntimeError("empty CPU profile")
    return {k: v / total for k, v in shares.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(".bench_build")
    os.makedirs(build, exist_ok=True)
    env = go_env(build)
    binary = os.path.join(build, "perfbench")
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                       capture_output=True, text=True)
    if b.returncode != 0:
        sys.stderr.write("perfbench: build failed\n" + b.stdout + b.stderr)
        return 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-scratch", build]
    profile = os.path.join(build, "cpu-%s.pprof" % args.workload)
    if args.trace:
        cmd += ["-profile", profile]
    try:
        run = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %ds\n" % RUN_TIMEOUT_S)
        return 1
    sys.stderr.write(run.stderr)
    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(run.stdout)
        sys.stderr.write("perfbench: no result (exit %d)\n" % run.returncode)
        return run.returncode or 1
    for line in lines[:-1]:
        print(line)
    if args.trace:
        for mod, share in cpu_shares(profile, env).items():
            name = mod + ".cpu_share"
            result["metrics"][name] = {"value": share, "unit": "ratio"}
            print("%-34s %16.6g %-8s lower is better" % (name, share, "ratio"))
    print(json.dumps(result))
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
