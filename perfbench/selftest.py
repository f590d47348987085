#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload, at tiny scale:
  * untraced and traced runs exit 0, are correct, and emit exactly the
    end-to-end / per-layer metrics BENCHMARK.json names, with their units;
  * a planted wrong vertex value (--plant) makes the run exit 1 with at least
    one failed operation, so the correctness checks cannot pass silently.
Then a directory holding only BENCHMARK.json and perfbench/ must make the
benchmark exit non-zero without printing a result.
Exits 0 when every assertion holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return p.returncode, result, p


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    lists = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            rc, r, p = run(w, trace, "--tiny")
            label = f"{w} --trace {trace}"
            check(rc == 0, f"{label}: exit 0" + ("" if rc == 0 else
                                                     f" (got {rc}): {p.stderr.strip()[-300:]}"))
            if r is None:
                check(False, f"{label}: last line is a JSON result")
                continue
            check(sorted(r) == ["attempted", "correct", "failed", "metrics"],
                  f"{label}: result keys")
            check(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
                  f"{label}: correct, 0 failed of {r['attempted']}")
            want = {m["name"]: m["unit"] for m in lists[trace]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == want, f"{label}: every named metric emitted with its unit "
                  f"(missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))})")
            check(all(isinstance(v["value"], (int, float)) for v in r["metrics"].values()),
                  f"{label}: numeric values")
            if trace == 0:
                check(all(r["metrics"][m["name"]]["value"] != 0 for m in lists[0]),
                      f"{label}: no end-to-end metric reads 0")
        rc, r, p = run(w, 0, "--tiny", "--plant")
        check(rc == 1 and r is not None and r["correct"] is False and r["failed"] > 0
              and r["metrics"]["ok_ratio"]["value"] < 1,
              f"{w} --plant: planted wrong value fails the run (exit {rc}, "
              f"failed {None if r is None else r['failed']})")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    p = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                        "pr-web", "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, env=env, timeout=180)
    last = p.stdout.strip().splitlines()[-1:] or [""]
    check(p.returncode != 0 and not last[0].startswith("{"),
          f"bare directory: non-zero exit without a result (exit {p.returncode})")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
