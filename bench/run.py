"""Seeded, layered benchmark of planevals.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {campaign,large,dense} --seed N \
        --seconds S --trace {0,1}

The library is imported from the checkout's ``src/``; nothing is
installed.  One run builds its corpus once, in a set-up child process
where needed, then makes timed passes until ``--seconds`` have passed (at
least ``MIN_PASSES``).  Each pass is a fresh process that sets up
(imports, parses the corpus, warms up on inputs outside it) and issues
every op of the corpus one after another (a closed loop with one client),
so every pass does the same work.  Every output of every pass is checked.
After each op, outside its timed interval, the pass runs a fixed
pure-Python reference loop in proportion to the op's time; op times are
reported in ``ref_ms``, a unit of that loop's time, so that the host's
changing speed cancels out (see README.md).  Each timing reported is the
median over the passes; the record describes the median pass in detail
and also gives the wall-clock figures.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` one pass runs in this process
with spans around the library's public functions, an untraced pass of the
same operations runs in a child process to measure the tracing overhead,
cold CLI processes are timed, and the last line holds the per-layer
metrics.
Lines before it are a readable report and a ``record`` line with sizes,
hashes and versions; the record and, in a traced run, the spans are also
written under ``bench/out/``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
CHILD_TIMEOUT_S = 170
# The machine's speed drifts by up to a third over seconds to minutes, so
# a run makes many passes over its --seconds and reports their medians;
# see README.md.
MIN_PASSES = 3
# corpus builds per run; setup_s takes their median
BUILDS = 3


def die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library() -> None:
    """Import planevals from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import planevals
    except ImportError as exc:
        die(f"cannot import planevals from {SRC}: {exc}")
    got = Path(planevals.__file__).resolve().parent.parent
    if got != SRC.resolve():
        die(f"planevals was imported from {got}, not from {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args, stdin_text="") -> str:
    proc = subprocess.run([sys.executable, *args], input=stdin_text,
                          capture_output=True, text=True, cwd=ROOT,
                          env=child_env(), timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        die(f"child {args[:3]} failed ({proc.returncode}): "
            f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout


# -- set-up -------------------------------------------------------------------


def build_corpus(args):
    """(corpus JSON text, median wall seconds to build it) of BUILDS set-up
    child processes, which must agree; (None, 0) for campaign, whose
    items are just seeds."""
    if args.workload == "campaign":
        return None, 0.0
    texts, times = set(), []
    for _ in range(BUILDS):
        t = time.perf_counter()
        texts.add(run_child([str(BENCH / "run.py"), "--build-corpus",
                             "--workload", args.workload,
                             "--seed", str(args.seed),
                             "--profile", args.profile]))
        times.append(time.perf_counter() - t)
    if len(texts) != 1:
        die("the corpus builds of one seed differ")
    return texts.pop(), statistics.median(times)


def load_corpus(wl, args, text):
    """(item iterator, warm-up items) of a built corpus, or of the first
    ops of the seed stream for campaign."""
    if args.workload == "campaign":
        warm = list(itertools.islice(
            wl.campaign_items(args.seed, wl.WARMUP), 4))
        count = wl.PROFILES[args.profile]["campaign_ops"]
        return itertools.islice(wl.campaign_items(args.seed), count), warm
    data = json.loads(text)
    return iter(data["items"]), data["warmup"]


def item_key(item) -> str:
    return json.dumps(item, sort_keys=True)


# -- the machine-speed reference ----------------------------------------------

# One ref_ms is the time the reference loop takes for REF_CHUNKS_PER_MS
# chunks; a chunk is about 0.25 ms on an unloaded 2-core x86_64 VM.
REF_CHUNKS_PER_MS = 4
# chunks run after an op: one per REF_EVERY_S of op time, at most
# REF_MAX_CHUNKS, so the reference samples the machine in step with the ops
REF_EVERY_S = 0.002
REF_MAX_CHUNKS = 400
_REF_KEYS = tuple(range(0, 7 * 600, 7))
_REF_TABLE = {k: (k * k) % 1009 for k in _REF_KEYS}
_REF_LIST = list(range(1024))


def _ref_mix(a, b):
    return (a * 31 + b) % 1000003


def ref_chunk() -> int:
    """A fixed amount of interpreter work: calls, dict and list lookups and
    integer arithmetic.  It allocates no container, so the garbage
    collector never runs inside it, and it touches nothing of planevals."""
    acc = 0
    for _ in range(2):
        for k in _REF_KEYS:
            acc = _ref_mix(acc, _REF_TABLE[k] + _REF_LIST[k & 1023])
    return acc


def reference(op_s: float):
    """(seconds, chunks) of the reference run after an op of op_s."""
    chunks = min(REF_MAX_CHUNKS, max(1, round(op_s / REF_EVERY_S)))
    t = time.perf_counter()
    for _ in range(chunks):
        ref_chunk()
    return time.perf_counter() - t, chunks


# -- the timed loop -------------------------------------------------------------


def op_loop(wl, workload, items, tracer=None, corrupt_op=None):
    """Issue one op per item, one after another, each followed by its
    share of the reference loop.  Returns (ops, work hash, reference
    seconds, reference chunks)."""
    ops = []
    work = hashlib.sha256()
    ref_s = ref_chunks = 0
    for i, item in enumerate(items):
        if i == corrupt_op:
            wl.corrupt(item)
        work.update(item_key(item).encode())
        prepared = wl.prepare(item)
        outcome, sizes = "ok", None
        t = time.perf_counter()
        try:
            if tracer is None:
                sizes = wl.run_op(prepared)
            else:
                sizes = tracer.op(i, wl.run_op, prepared)
        except wl.WrongResult:
            outcome = "WrongResult"
        except Exception as exc:  # every op failure is counted, by class
            outcome = type(exc).__name__
            known = wl.known_failure(workload, exc)
            if known:
                outcome += f" (known: {known})"
        lat = time.perf_counter() - t
        if sizes is None:
            sizes = item.get("sizes", {})
        ops.append({"i": i, "kind": item["kind"], "lat": lat,
                    "outcome": outcome, "sizes": sizes})
        s, n = reference(lat)
        ref_s += s
        ref_chunks += n
    return ops, work.hexdigest(), ref_s, ref_chunks


def warm_up(wl, warm):
    for item in warm:
        try:
            wl.run_op(wl.prepare(item))
        except Exception as exc:  # a broken program fails before timing
            die(f"warm-up op failed: {type(exc).__name__}: {exc}")


# -- cold CLI calls --------------------------------------------------------------


def cli_cold(wl, seed, count):
    """Wall times of fresh `python -m planevals.cli` processes.

    Alternates `series` and `reconstruct` on campaign-sized graphs; every
    output is checked.  Returns ({subcommand: latencies in s}, failures
    by class)."""
    from planevals import dualgraph
    fails = Counter()
    by_sub = {"series": [], "reconstruct": []}
    mode_flag = {"divisorial": "div", "curve": "curve"}
    for mode, g, gjson, ptext in wl.cli_inputs(seed, count // 2):
        for sub in ("series", "reconstruct"):
            if sub == "series":
                argv, stdin = ["series", "-"], gjson
            else:
                argv = ["reconstruct", "-", "--mode", mode_flag[mode]]
                stdin = ptext
            t = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "planevals.cli", *argv],
                input=stdin, capture_output=True, text=True, cwd=ROOT,
                env=child_env(), timeout=CHILD_TIMEOUT_S)
            by_sub[sub].append(time.perf_counter() - t)
            if proc.returncode != 0:
                fails[f"cli {sub} exit {proc.returncode}"] += 1
            elif sub == "series" and proc.stdout != ptext:
                fails["cli series WrongResult"] += 1
            elif sub == "reconstruct" and not dualgraph.equivalent(
                    dualgraph.graph_from_json(proc.stdout), g):
                fails["cli reconstruct WrongResult"] += 1
    return by_sub, fails


def cli_import_s(repeats=5) -> float:
    code = ("import time; t = time.perf_counter(); import planevals.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(run_child(["-c", code])) for _ in range(repeats))


# -- reporting ---------------------------------------------------------------------


def quantile(values, q):
    """Inclusive linear-interpolation quantile of a non-empty list."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def size_summary(ops):
    """Exact size counts of the attempted ops."""
    out = {"ops_by_kind": dict(Counter(o["kind"] for o in ops))}
    for key in ("n", "r", "max_exp", "factors", "cells"):
        vals = [o["sizes"][key] for o in ops if key in o["sizes"]]
        if vals:
            out[key] = {"min": min(vals), "median": statistics.median(vals),
                        "max": max(vals), "sum": sum(vals)}
    for key in ("r", "factors"):
        hist = Counter(o["sizes"][key] for o in ops if key in o["sizes"])
        if hist:
            out[key + "_hist"] = {str(k): v for k, v in sorted(hist.items())}
    return out


def latency_by_kind(ops):
    out = {}
    for kind in sorted({o["kind"] for o in ops}):
        lats = [1000 * o["lat"] for o in ops if o["kind"] == kind]
        out[kind] = {"count": len(lats), "p10": quantile(lats, 0.1),
                     "p50": quantile(lats, 0.5), "p90": quantile(lats, 0.9)}
    return out


def environment():
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def emit(record, ops, result, name):
    """Print the report and the result line; the record file also holds
    every op's kind, latency and outcome."""
    OUT.mkdir(exist_ok=True)
    per_op = [[o["kind"], 1000 * o["lat"], o["outcome"]] for o in ops]
    with open(OUT / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(record, ops_ms=per_op), fh, indent=1, sort_keys=True)
    for k, v in result["metrics"].items():
        print(f"metric {k} = {v['value']:.6g} {v['unit']}")
    for k, v in record.get("wall_median", {}).items():
        print(f"wall-clock {k} = {v:.6g} (median over the passes)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


# -- modes -------------------------------------------------------------------------


def build_corpus_mode(args):
    import workloads as wl
    data = wl.build_corpus(args.workload, args.seed, wl.PROFILES[args.profile])
    sys.stdout.write(json.dumps(data))


def timed_pass(wl, args, corpus_text, tracer=None):
    """Set up from the corpus text, then run the op loop over the whole
    corpus.

    Returns (set-up seconds since this process started, ops, work hash,
    mean seconds of a reference chunk)."""
    items, warm = load_corpus(wl, args, corpus_text)
    warm_up(wl, warm)
    setup_s = time.perf_counter() - T0
    if tracer is not None:
        tracer.install()
    try:
        ops, work_hash, ref_s, ref_chunks = op_loop(
            wl, args.workload, items, tracer=tracer,
            corrupt_op=args.corrupt_op)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return setup_s, ops, work_hash, ref_s / ref_chunks


def pass_mode(args):
    """One untraced timed pass in this fresh process, printed as JSON."""
    import workloads as wl
    setup_s, ops, work_hash, chunk_s = timed_pass(
        wl, args, sys.stdin.read() or None)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"setup_s": setup_s, "ops": ops, "peak_rss_mb": peak,
                      "work_hash": work_hash, "ref_chunk_s": chunk_s}))


def op_metrics(ops, chunk_s) -> dict:
    """Op metrics of one pass, by name: in ref_ms (see reference) and in
    wall-clock ms."""
    lats_ms = [1000 * o["lat"] for o in ops]
    ok = sum(o["outcome"] == "ok" for o in ops)
    wall = {"ops_per_s": ok / sum(o["lat"] for o in ops),
            "op_p50_ms": quantile(lats_ms, 0.5),
            "op_p90_ms": quantile(lats_ms, 0.9)}
    # wall-clock ms per ref_ms
    ms_per_ref_ms = 1000 * REF_CHUNKS_PER_MS * chunk_s
    return {"ops_per_ref_s": wall["ops_per_s"] * ms_per_ref_ms,
            "op_p50_ref_ms": wall["op_p50_ms"] / ms_per_ref_ms,
            "op_p90_ref_ms": wall["op_p90_ms"] / ms_per_ref_ms,
            "ok_ratio": ok / len(ops),
            "wall": wall, "ref_chunk_ms": 1000 * chunk_s}


def run_pass(args, corpus_text):
    argv = [str(BENCH / "run.py"), "--pass", "--workload", args.workload,
            "--seed", str(args.seed), "--profile", args.profile]
    if args.corrupt_op is not None:
        argv += ["--corrupt-op", str(args.corrupt_op)]
    return json.loads(run_child(argv, stdin_text=corpus_text or ""))


def timed_passes(args, corpus_text):
    """Passes in fresh processes, at least MIN_PASSES, and then as many
    more as fit in --seconds, judged by the median pass's wall time."""
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(run_pass(args, corpus_text))
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed + statistics.median(walls) > args.seconds):
            return passes


def measure(args):
    import tracing
    import workloads as wl
    prof = wl.PROFILES[args.profile]
    corpus_text, build_s = build_corpus(args)

    tracer = passes = None
    if args.trace:
        tracer = tracing.Tracer()
        _, ops, work_hash, _ = timed_pass(wl, args, corpus_text,
                                          tracer=tracer)
        untraced = run_pass(args, corpus_text)
        all_ops = ops + untraced["ops"]
    else:
        passes = timed_passes(args, corpus_text)
        # the pass of median total op time stands for the run in the record
        by_time = sorted(passes, key=lambda p: sum(o["lat"] for o in p["ops"]))
        middle = by_time[(len(by_time) - 1) // 2]
        ops, work_hash = middle["ops"], middle["work_hash"]
        all_ops = [o for p in passes for o in p["ops"]]
        setups = [p["setup_s"] for p in passes]

    # failures are counted over every op of every pass
    failures = Counter(o["outcome"] for o in all_ops if o["outcome"] != "ok")
    lats_ms = [1000 * o["lat"] for o in ops]
    p90_ms = quantile(lats_ms, 0.9)
    op_total_s = sum(o["lat"] for o in ops)
    ok = sum(o["outcome"] == "ok" for o in ops)

    cli_lats = {}
    if args.trace:
        cli_lats, cli_fails = cli_cold(wl, args.seed, prof["cli_calls"])
        failures.update(cli_fails)
    failures = dict(failures)
    unknown = {k: v for k, v in failures.items() if "(known:" not in k}
    cli_calls = sum(len(v) for v in cli_lats.values())

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # the two subcommands differ in cost: a median over both would
        # sit between them and jump; average their medians
        cold_ms = 1000 * statistics.mean(
            statistics.median(v) for v in cli_lats.values())
        metrics = tracing.per_layer_metrics(
            tracer, sum(o["lat"] for o in untraced["ops"]), cli_import_s(),
            cold_ms)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{name}.spans.jsonl")
    else:
        # each timing, set-up too, is the median over the passes; the
        # failure share and the memory are the worst
        per_pass = [op_metrics(p["ops"], p["ref_chunk_s"]) for p in passes]
        values = {k: statistics.median(m[k] for m in per_pass)
                  for k in ("ops_per_ref_s", "op_p50_ref_ms",
                            "op_p90_ref_ms")}
        values.update({
            "ok_ratio": min(m["ok_ratio"] for m in per_pass),
            "setup_s": build_s + statistics.median(setups),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        })
        units = {"ops_per_ref_s": "1/ref_s", "op_p50_ref_ms": "ref_ms",
                 "op_p90_ref_ms": "ref_ms", "ok_ratio": "ratio",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in values.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "profile": args.profile, "seconds": args.seconds,
        "ops": len(ops), "ok": ok, "op_total_s": op_total_s,
        "fail_ratio": (len(ops) - ok) / len(ops),
        "failures_by_class": failures,
        "unknown_failures": unknown,
        "samples_above_p90": sum(1 for x in lats_ms if x > p90_ms),
        "corpus_build_s": build_s,
        "cli_calls": cli_calls,
        "cli_median_ms": {k: 1000 * statistics.median(v)
                          for k, v in cli_lats.items() if v},
        "op_ms_by_kind": latency_by_kind(ops),
        "work_hash": work_hash,
        "corpus_hash": (hashlib.sha256(corpus_text.encode()).hexdigest()
                        if corpus_text else "seed-stream"),
        "sizes": size_summary(ops),
        "env": environment(),
    }
    if passes is not None:
        record["passes"] = len(passes)
        record["pass_work_hashes_agree"] = len(
            {p["work_hash"] for p in passes}) == 1
        record["pass_metrics"] = per_pass
        record["wall_median"] = {
            k: statistics.median(m["wall"][k] for m in per_pass)
            for k in per_pass[0]["wall"]}
        record["pass_setup_s"] = setups
    result = {"correct": not unknown,
              "attempted": len(all_ops) + cli_calls,
              "failed": sum(failures.values()), "metrics": metrics}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} ops, {ok} ok, failures {failures or 'none'}")
    emit(record, ops, result, name)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("campaign", "large", "dense"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=("full", "tiny"), default="full",
                    help="tiny: a few seconds, for bench/selftest.py")
    ap.add_argument("--corrupt-op", type=int, default=None,
                    help="make this op's expected value wrong (self-test)")
    ap.add_argument("--build-corpus", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--pass", dest="timed_pass", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    import_library()
    if args.build_corpus:
        build_corpus_mode(args)
    elif args.timed_pass:
        pass_mode(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
