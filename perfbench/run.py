#!/usr/bin/env python3
"""Build and run the jmb repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mac_saturated --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-check

The first run configures and builds perfbench/ (the jmb library from this
checkout's src/ plus the benchmark program) into .bench_build/perfbench, or
under $CARGO_TARGET_DIR when it names a directory inside the checkout. The
program's log goes to stdout; its last line is the JSON result.

Exit codes: 0 ran (the result line says whether outputs were correct);
1 internal error; 2 usage error (unknown flag, missing or malformed value,
bad seed); 3 unknown workload; 4 no jmb sources next to perfbench/;
5 build failed or the trace file could not be written; 6 self-check failed.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("mac_saturated", "mac_overload", "phy_samples")
EXIT_INTERNAL, EXIT_USAGE, EXIT_WORKLOAD, EXIT_NO_SOURCES = 1, 2, 3, 4
EXIT_BUILD, EXIT_SELF_CHECK = 5, 6

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
USAGE = ("usage: run.py --workload {%s} --seed N --seconds S --trace 0|1 "
         "[--workers K] [--size full|tiny] [--trace-out PATH]\n"
         "       run.py --self-check" % "|".join(WORKLOADS))


def die(code, message):
    print("run.py: " + message, file=sys.stderr)
    if code == EXIT_USAGE:
        print(USAGE, file=sys.stderr)
    sys.exit(code)


def parse_args(argv):
    """Strict flag parsing, the same rules the program applies."""
    opts = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "--self-check":
            opts["self-check"] = True
            i += 1
            continue
        if arg.startswith("--") and "=" in arg:
            arg, value = arg.split("=", 1)
            i += 1
        elif i + 1 < len(argv):
            value = argv[i + 1]
            i += 2
        else:
            die(EXIT_USAGE, "'%s' needs a value" % arg)
        name = arg[2:] if arg.startswith("--") else None
        if name not in ("workload", "seed", "seconds", "trace", "workers",
                        "size", "trace-out"):
            die(EXIT_USAGE, "unknown flag '%s'" % arg)
        ok = True
        if name == "seed":
            ok = re.fullmatch(r"[0-9]{1,20}", value) is not None and \
                int(value) < 2 ** 64
        elif name == "seconds":
            try:
                v = float(value)
                ok = math.isfinite(v) and 0 < v <= 3600
            except ValueError:
                ok = False
        elif name == "trace":
            ok = value in ("0", "1")
        elif name == "workers":
            ok = re.fullmatch(r"[0-9]{1,2}", value) is not None and \
                1 <= int(value) <= 64
        elif name == "size":
            ok = value in ("full", "tiny")
        elif name == "trace-out":
            ok = value != ""
        if not ok:
            die(EXIT_USAGE, "bad value '%s' for --%s" % (value, name))
        opts[name] = value
    if opts.get("self-check"):
        return opts
    missing = [f for f in ("workload", "seed", "seconds", "trace")
               if f not in opts]
    if missing:
        die(EXIT_USAGE, "missing --" + ", --".join(missing))
    if opts["workload"] not in WORKLOADS:
        die(EXIT_WORKLOAD, "unknown workload '%s'" % opts["workload"])
    return opts


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    base = base.resolve()
    if base != ROOT and ROOT not in base.parents:
        base = ROOT / ".bench_build"  # never write outside the checkout
    return base / "perfbench"


def build():
    """Configure once, then an incremental build; returns the build dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(EXIT_NO_SOURCES, "no jmb sources (CMakeLists.txt, src/) next to "
            "%s; run from the root of a full checkout" % BENCH_DIR.name)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        cfg = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", str(out), "-j", jobs, "--target",
                  "jmb_perfbench", "jmb_perfbench_traced", "trace_stats"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                f.flush()
                tail = log.read_text(errors="replace").splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                if (out / "CMakeCache.txt").is_file() and cmd[1] == "-S":
                    (out / "CMakeCache.txt").unlink()
                die(EXIT_BUILD, "build failed; see %s" % log)
    os.sync()  # flush the build's writes before anything is timed
    return out


def binary(out, traced):
    return str(out / ("jmb_perfbench_traced" if traced else "jmb_perfbench"))


def program_args(opts, out):
    args = ["--workload", opts["workload"], "--seed", opts["seed"],
            "--seconds", opts["seconds"], "--trace", opts["trace"]]
    for flag in ("workers", "size"):
        if flag in opts:
            args += ["--" + flag, opts[flag]]
    if opts["trace"] == "1":
        trace_out = opts.get("trace-out")
        if trace_out is None:
            (out / "traces").mkdir(exist_ok=True)
            trace_out = str(out / "traces" / ("%s-seed%s.json" % (
                opts["workload"], opts["seed"])))
        args += ["--trace-out", trace_out]
    return args


def exit_code(rc):
    """A program killed by a signal is reported as an internal error."""
    if rc < 0:
        print("run.py: benchmark program died from signal %d" % -rc,
              file=sys.stderr)
        return EXIT_INTERNAL
    return rc


# --- self-check -------------------------------------------------------------

def run_capture(cmd):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, cwd=ROOT, timeout=170)
    return p.returncode, p.stdout


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def digest_of(stdout):
    m = re.search(r"^digest: ([0-9a-f]{16})", stdout, re.M)
    return m.group(1) if m else None


def self_check():
    out = build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    pinned = json.loads((BENCH_DIR / "pinned_digests.json").read_text())
    problems = []
    workers = str(max(1, min(4, len(os.sched_getaffinity(0)))))

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    # Hostile inputs: documented nonzero codes, never a signal.
    prog = binary(out, False)
    base = ["--workload", "mac_saturated", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--size", "tiny"]
    hostile = [
        (["--seed", "banana"], EXIT_USAGE), (["--seed", "-1"], EXIT_USAGE),
        (["--seed", "18446744073709551616"], EXIT_USAGE),
        (["--workload", "nope"], EXIT_WORKLOAD), (["--bogus", "1"], EXIT_USAGE),
        (["--trace", "2"], EXIT_USAGE), (["--seconds", "nan"], EXIT_USAGE),
        (["--seconds", "0"], EXIT_USAGE), (["--workers", "0"], EXIT_USAGE),
        (["--seed"], EXIT_USAGE),
    ]
    for extra, want in hostile:
        args = base + extra
        rc, _ = run_capture([prog] + args)
        check(rc == want, "program %s -> exit %d (want %d)" %
              (" ".join(extra), rc, want))
        rc, _ = run_capture([sys.executable, __file__] + args)
        check(rc == want, "run.py %s -> exit %d (want %d)" %
              (" ".join(extra), rc, want))

    for w in WORKLOADS:
        runs = {}
        for k in ("1", workers):
            rc, stdout = run_capture([prog, "--workload", w, "--seed", "1",
                                      "--seconds", "1", "--trace", "0",
                                      "--size", "tiny", "--workers", k])
            res = result_of(stdout) if rc == 0 else None
            check(res is not None and set(res) ==
                  {"correct", "attempted", "failed", "metrics"},
                  "%s workers=%s: result line has the four keys" % (w, k))
            if res is None:
                continue
            check(res["correct"] is True and res["failed"] == 0 and
                  res["attempted"] >= 1,
                  "%s workers=%s: outputs correct, none failed" % (w, k))
            m = res["metrics"]
            check(set(m) == set(e2e) and all(
                m[n]["unit"] == e2e[n] and
                isinstance(m[n]["value"], (int, float)) and
                math.isfinite(m[n]["value"]) for n in m),
                "%s workers=%s: every end-to-end metric with its unit" % (w, k))
            # sim_frames_per_s is a host rate despite its prefix.
            runs[k] = (digest_of(stdout), {
                n: v["value"] for n, v in m.items()
                if n.startswith("sim_") and not n.endswith("_per_s")})
        if len(runs) == 2:
            check(runs["1"] == runs[workers],
                  "%s: digest and sim_* identical at 1 and %s workers" %
                  (w, workers))
            d = runs["1"][0]
            if d != pinned.get(w):
                print("note  %s: digest %s differs from the pinned %s; the "
                      "simulated outputs changed (a declared rebaseline "
                      "updates pinned_digests.json)" % (w, d, pinned.get(w)))
        trace = out / "traces" / ("selfcheck-%s.json" % w)
        trace.parent.mkdir(exist_ok=True)
        rc, stdout = run_capture([binary(out, True), "--workload", w, "--seed",
                                  "1", "--seconds", "1", "--trace", "1",
                                  "--size", "tiny", "--trace-out", str(trace)])
        res = result_of(stdout) if rc == 0 else None
        check(res is not None and res.get("correct") is True and
              set(res.get("metrics", {})) == set(layers),
              "%s traced: every per-layer metric, outputs correct" % w)
        rc, _ = run_capture([str(out / "jmb" / "tools" / "trace_stats"),
                             str(trace)])
        check(rc == 0, "%s traced: span file loads in tools/trace_stats" % w)
    if problems:
        print("self-check: %d problem(s)" % len(problems))
        return EXIT_SELF_CHECK
    print("self-check: all passed")
    return 0


def main():
    opts = parse_args(sys.argv[1:])
    if opts.get("self-check"):
        return self_check()
    out = build()
    prog = binary(out, opts["trace"] == "1")
    sys.stdout.flush()
    return exit_code(subprocess.run([prog] + program_args(opts, out),
                                    cwd=ROOT).returncode)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KeyboardInterrupt:
        sys.exit(EXIT_INTERNAL)
