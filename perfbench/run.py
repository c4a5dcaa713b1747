#!/usr/bin/env python3
"""Build and run the CMS benchmark from the repository root.

    python3 perfbench/run.py --workload steady --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --check-refs

Workloads: steady, coldstart, storm, fleet.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1.  The benchmark program itself lives in perfbench/*.ml; this
script builds it with dune, runs it, and adds peak_rss_mb, the peak
resident memory of the benchmark process, taken from wait4().
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "cmsbench.exe")
REFS = os.path.join("perfbench", "refs.txt")
WORKLOADS = ["steady", "coldstart", "storm", "fleet"]


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("no dune-project and lib/ here: run from the repository root")
    dune = shutil.which("dune")
    if dune is None:
        die("dune not found on PATH")
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        [dune, "build", "--root", ".", "-j", "2", "./perfbench/cmsbench.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if r.returncode != 0 or not os.path.isfile(EXE):
        die("build failed")


def run_exe(args):
    """Run the benchmark program; return (exit code, stdout, peak RSS MB)."""
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE)
    out = p.stdout.read().decode()
    p.stdout.close()
    _, status, usage = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, usage.ru_maxrss / 1024.0


def bench(workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    code, out, rss = run_exe(args)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if code != 0 or not isinstance(result, dict):
        sys.stdout.write(out)
        die("benchmark program failed (exit %d)" % code)
    if trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return lines[:-1], result


def selftest():
    """Quick mode: every named metric is emitted with its unit, the
    reference file regenerates identically, and a corrupted reference
    is counted as a failure."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    code, out, _ = run_exe(["--check-refs"])
    if code != 0:
        problems.append("reference regeneration differs:\n" + out)
    for w in WORKLOADS:
        for trace in (0, 1):
            _, r = bench(w, 1, 0, trace, ["--quick"])
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            if got != want[trace]:
                problems.append("%s trace %d: metrics %s, expected %s"
                                % (w, trace, got, want[trace]))
            if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                problems.append("%s trace %d: not correct: %s"
                                % (w, trace, {k: r[k] for k in
                                              ("correct", "attempted",
                                               "failed")}))
            print("selftest: %s trace %d: %d metrics, %d/%d failed"
                  % (w, trace, len(got), r["failed"], r["attempted"]))
    _, r = bench("steady", 1, 0, 0, ["--quick", "--corrupt-ref"])
    if r["failed"] < 1 or r["correct"]:
        problems.append("a corrupted reference was not counted as failed")
    print("selftest: corrupted reference: %d/%d failed"
          % (r["failed"], r["attempted"]))
    for p in problems:
        print("selftest: FAIL: " + p, file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "OK"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--check-refs", action="store_true",
                    help="regenerate the reference outputs and compare")
    ap.add_argument("--gen-refs", action="store_true",
                    help="rewrite perfbench/refs.txt")
    a = ap.parse_args()
    build()
    if a.selftest:
        sys.exit(selftest())
    if a.check_refs:
        code, out, _ = run_exe(["--check-refs"])
        sys.stdout.write(out)
        sys.exit(code)
    if a.gen_refs:
        code, out, _ = run_exe(["--gen-refs"])
        if code != 0:
            die("reference generation failed")
        with open(REFS, "w") as f:
            f.write(out)
        sys.exit(0)
    if a.workload is None:
        die("--workload is required")
    lines, result = bench(a.workload, a.seed, a.seconds, a.trace)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
