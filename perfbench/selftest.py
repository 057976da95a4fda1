#!/usr/bin/env python3
"""Self-test of the benchmark: tiny swarms, every metric, planted faults.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py at a tiny
size (10^3 devices, 3 rounds, 1 second) with --trace 0 and --trace 1 and
checks that the run is correct and that the result line carries exactly
the end-to-end (resp. per-layer) metrics with their units. It then plants
a forged token (--inject-fault: a compromised device in the simulations,
a tampered agent device on the wire) and checks that the run reports it
as a failed operation and exits non-zero. Last, it checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--seconds", "1", "--devices", "1000", "--rounds", "3"]


def run(root, workload, trace, extra=()):
    cmd = ["python3", os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--trace", str(trace)]
    cmd += TINY + list(extra)
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, res, err = run(ROOT, wl, trace)
            what = "%s --trace %d" % (wl, trace)
            expect(rc == 0 and res is not None, what + " exits 0 with a result")
            if res is None:
                sys.stderr.write(err[-2000:])
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                   what + " result has exactly the four keys")
            expect(res["correct"] is True and res["failed"] == 0 and
                   res["attempted"] >= 1, what + " is correct")
            units = {m["name"]: m["unit"] for m in listed}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            expect(got == units, what + " reports every listed metric with "
                   "its unit, and no other")
            expect(all(sorted(v) == ["unit", "value"] and
                       isinstance(v["value"], (int, float))
                       for v in res["metrics"].values()),
                   what + " metric entries are {value, unit}")
            if trace == 0:
                expect(all(v["value"] > 0 for v in res["metrics"].values()),
                       what + " end-to-end metrics are non-zero")

        rc, res, _ = run(ROOT, wl, 0, ["--inject-fault"])
        expect(rc == 1 and res is not None and res["correct"] is False and
               res["failed"] >= 1,
               wl + " --inject-fault: forged token reported as failed, exit 1")

    # A directory with only BENCHMARK.json and the benchmark's files.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    rc, res, _ = run(bare, spec["workloads"][0]["name"], 0)
    expect(rc != 0 and res is None,
           "bare directory: non-zero exit and no result line")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest: %s" % ("FAILED: %d problem(s)" % len(problems)
                            if problems else "all checks passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
