"""Self-test of the benchmark: tiny sizes, a minute or so in all.

    python3 bench/selftest.py

Checks, on every workload:

* every metric named in BENCHMARK.json is emitted with its unit:
  end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``;
* a deliberately wrong expected value is counted as a failure (class
  ``WrongResult``) and makes the run incorrect, instead of passing;

and that in a directory holding only BENCHMARK.json and ``bench/`` (no
library source) the benchmark exits non-zero without printing a result.
Exits 1 on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# large is not gated in BENCHMARK.json (see README.md) but is checked too
WORKLOADS = ["campaign", "large", "dense"]


def run(*extra, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "1",
           "--profile", "tiny", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd,
                          timeout=300)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(ln[len("record "):] for ln in lines
                             if ln.startswith("record ")))
    return json.loads(lines[-1]), record


def check_names(workload, trace, key):
    res, _ = result_of(run("--workload", workload, "--trace", str(trace)))
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        raise AssertionError(f"{workload} trace={trace}: metrics differ: "
                             f"missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}, units "
                             f"{ {k: (want[k], got[k]) for k in want if k in got and want[k] != got[k]} }")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise AssertionError(f"{workload}: {k} is not a number")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"]:
        raise AssertionError(f"{workload} trace={trace}: tiny run failed")


def check_wrong_expected(workload):
    res, record = result_of(run("--workload", workload, "--trace", "0",
                                "--corrupt-op", "1"))
    if res["correct"] or res["failed"] < 1:
        raise AssertionError(f"{workload}: a wrong expected value passed")
    if record["failures_by_class"].get("WrongResult", 0) < 1:
        raise AssertionError(f"{workload}: failure not classed WrongResult: "
                             f"{record['failures_by_class']}")


def check_bare_directory():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.glob("*.py"):
        shutil.copy(f, bare / "bench")
    try:
        proc = run("--workload", WORKLOADS[0], "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("benchmark without library source did not "
                                 "fail cleanly")
    finally:
        shutil.rmtree(bare)


def main():
    try:
        for w in WORKLOADS:
            check_names(w, 0, "end_to_end")
            check_names(w, 1, "per_layer")
            check_wrong_expected(w)
            print(f"ok {w}")
        check_bare_directory()
        print("ok bare directory")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
