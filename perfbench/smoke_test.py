#!/usr/bin/env python3
"""Tiny-scale smoke test of the DSLog benchmark.

    python3 perfbench/smoke_test.py

Runs every workload once untraced and once traced on small inputs and
checks that each metric BENCHMARK.json names is emitted with its unit and
that every output check passed. Exits non-zero on the first problem.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--scale", "0.1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit("%s trace=%d: exit code %d" % (workload, trace, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(w["name"], trace)
            tag = "%s trace=%d" % (w["name"], trace)
            if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                problems.append("%s: checks failed (%d of %d)" % (tag, res["failed"], res["attempted"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = res["metrics"]
            for name, unit in want.items():
                if name not in got:
                    problems.append("%s: metric %s missing" % (tag, name))
                elif got[name]["unit"] != unit:
                    problems.append("%s: %s has unit %s, want %s" % (tag, name, got[name]["unit"], unit))
                elif not isinstance(got[name]["value"], (int, float)):
                    problems.append("%s: %s is not a number" % (tag, name))
            extra = set(got) - set(want)
            if extra:
                problems.append("%s: metrics not in BENCHMARK.json: %s" % (tag, sorted(extra)))
            print("%s: %d checks passed, %d metrics" % (tag, res["attempted"], len(got)))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        raise SystemExit(1)
    print("smoke test passed")


if __name__ == "__main__":
    main()
