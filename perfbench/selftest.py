#!/usr/bin/env python3
"""Test the benchmark itself at a tiny size (about a minute).

    python3 perfbench/selftest.py

Run from the repository root. Checks that:
- every workload in BENCHMARK.json runs, replies check out, and every
  end-to-end metric (--trace 0) and per-layer metric (--trace 1) is in
  the result line and in the printed report, with its unit;
- a deliberately corrupted reply is caught (static digest and corpus
  body): the result says correct=false, failed >= 1, exit code != 0;
- in a directory holding only BENCHMARK.json and the benchmark's files,
  the command exits non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

TINY = {"static-fresh": "4000", "static-hot": "4000", "corpus-churn": "8000"}


def run(workload, trace, *extra, cwd="."):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--n", TINY[workload], *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    return p


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main():
    spec = json.load(open("BENCHMARK.json"))
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run(w, trace)
            r = last_json(p.stdout)
            label = f"{w} --trace {trace}"
            expect(p.returncode == 0 and r is not None and r["correct"]
                   and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{label}: runs clean (exit {p.returncode})")
            if r is None:
                sys.stderr.write(p.stderr[-2000:])
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = r["metrics"]
            expect(set(got) == set(want), f"{label}: exactly the {key} metrics")
            for name, unit in want.items():
                m = got.get(name)
                expect(m is not None and m.get("unit") == unit
                       and isinstance(m.get("value"), (int, float)),
                       f"{label}: {name} [{unit}] in the result")
                report = [ln.split() for ln in p.stdout.splitlines()[:-1]]
                expect(any(len(t) >= 3 and t[0] == name and t[-1] == unit
                           for t in report),
                       f"{label}: {name} [{unit}] in the report")

    for w in ("static-fresh", "corpus-churn"):
        p = run(w, 0, "--corrupt-reply")
        r = last_json(p.stdout)
        expect(p.returncode != 0 and r is not None and not r["correct"]
               and r["failed"] >= 1,
               f"{w}: a corrupted reply is caught (exit {p.returncode})")

    bare = os.path.join(".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(path, os.path.join(bare, path))
    p = subprocess.run(spec["command"] + ["--workload", "static-hot",
                                          "--seed", "1", "--seconds", "1",
                                          "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    expect(p.returncode != 0 and last_json(p.stdout) is None,
           "bare directory: exits non-zero without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
