"""Seeded workloads of the planevals benchmark.

A workload is a corpus of items plus one operation per item.

* ``build_corpus`` makes the items from the seed.  For ``large`` and
  ``dense`` it runs in a separate set-up process and returns plain JSON,
  because building the inputs calls ``poincare_series`` and
  ``multiplicity_matrix``, and the LRU cache of multiplicity matrices
  that this fills dies with the set-up process instead of reaching the
  timing process.  ``campaign`` items are
  just seeds; generation is part of its operation.
* ``prepare`` turns one item into call arguments.  It runs in the timing
  process outside the timed interval and only parses.
* ``run_op`` is the timed operation.  It calls the library through module
  attributes (``dualgraph.graph_from_json`` and so on) so that the traced
  run can wrap them, checks the output and returns the op's sizes.  A
  wrong output raises ``WrongResult``; an exception from the library
  propagates.

Every workload also has warm-up items drawn from seeds and sizes outside
its corpus, so the timed run never sees an input twice.
"""

from __future__ import annotations

import itertools
import random
import traceback

from planevals import dualgraph, oracle, poincare, reconstruct, series

# Failures this commit is known to produce: (workload, exception class,
# a function on the traceback) -> label.  Any other exception, or a wrong
# result, makes the run incorrect.
KNOWN_FAILURES = {
    ("large", "RecursionError", "_vertex_code"): "canonical_code recursion",
}

CAMPAIGN_MAX_VERTICES = 30
WIDE_MAX_VERTICES = 60
# Every run holds the same mix of classes below; the seed picks the graphs.
# With classes drawn at random the medians jumped from run to run.
# expand grids (r, B), visited in turn; B=40 twice so that many ops of
# similar cost (these and the r=2 oracle ops) lie around the median
DENSE_GRIDS = ((3, 40), (3, 40), (3, 60), (4, 25))
# bins of the number of in-grid factors of an expanded series, which sets
# the number of factorize peels
EXPAND_FACTOR_BINS = ((0, 2), (3, 4), (5, 99))
# oracle classes (r, mode); README.md says why r=2 divisorial is absent
ORACLE_CLASSES = ((1, "divisorial"), (2, "curve"), (1, "curve"), (2, "curve"))
ORACLE_BOUNDS = (20, 25, 30, 35, 40)

PROFILES = {
    # sizes of a real run
    "full": {
        # ops of one campaign pass: about 4 s on a 2-core x86_64 VM, so a
        # 45 s run makes about ten passes
        "campaign_ops": 2000,
        "cli_calls": 16,
        # a ladder of chain lengths, log-spaced, and a cluster of chains
        # of nearly equal cost: 4 families x 2 modes x these lengths.  The
        # ladder's longest 4 lie above the cluster, so p90 (between the
        # 10th and 11th slowest of 100 ops) falls inside the cluster
        "chains": 12,
        "chain_n": (100, 1000),
        "chain_cluster": (420, 440),
        "wide_r": tuple(range(8, 25, 2)),
        # copies of each r per mode; divisorial ones (contact search) are
        # the majority, so the median op lies among them, not in the gap
        # below them
        "wide_repeats": {"divisorial": 5, "curve": 3},
        "dense_items": 120,
        "dense_grids": DENSE_GRIDS,
        "expand_factor_bins": EXPAND_FACTOR_BINS,
        "oracle_bounds": ORACLE_BOUNDS,
    },
    # a few seconds, for the self-test only
    "tiny": {
        "campaign_ops": 6,
        "cli_calls": 2,
        "chains": 2,
        "chain_n": (20, 60),
        "chain_cluster": (30,),
        "wide_r": (3, 4),
        "wide_repeats": {"divisorial": 1, "curve": 1},
        "dense_items": 8,
        "dense_grids": ((2, 12), (3, 6)),
        "expand_factor_bins": ((0, 99),),
        "oracle_bounds": (8, 10),
    },
}

# Seeds handed to random_instance are 4 * (SEED_STRIDE * seed + k) + stream:
# the corpus, warm-up and CLI inputs of a run, and the pool of wide graphs,
# never share one.
SEED_STRIDE = 10 ** 6
CORPUS, WARMUP, CLI, POOL = 0, 1, 2, 3


def instance_seed(seed: int, k: int, stream: int = CORPUS) -> int:
    return 4 * (SEED_STRIDE * seed + k) + stream


class WrongResult(Exception):
    """An operation returned, but its output failed the check."""


def known_failure(workload: str, exc: BaseException):
    """Label of a known defect that raised exc, or None."""
    for frame in traceback.extract_tb(exc.__traceback__):
        label = KNOWN_FAILURES.get((workload, type(exc).__name__, frame.name))
        if label:
            return label
    return None


def _mode(k: int) -> str:
    return ("divisorial", "curve")[k % 2]


def _series_sizes(p) -> dict:
    return {"factors": len(p), "max_exp": p.max_degree()}


# -- corpus construction (set-up process, or lazily for campaign) ----------


def campaign_items(seed: int, stream: int = CORPUS):
    """Endless campaign items: modes alternate, r cycles 1..3 / 1..4."""
    for k in itertools.count():
        mode = _mode(k)
        j = k // 2
        r = j % 3 + 1 if mode == "divisorial" else j % 4 + 1
        yield {"kind": "campaign", "seed": instance_seed(seed, k, stream),
               "mode": mode, "r": r}


def _chain_gens(family: int, n: int) -> tuple:
    """Generators whose solo resolution has exactly n vertices."""
    return ((2, 2 * n - 3), (n - 1, n), (4, 6, 2 * n + 3),
            (8, 12, 26, 2 * n + 39))[family]


def _chain_item(gens, mode: str) -> dict:
    b = reconstruct.BranchData.from_generators(gens, 0)
    g = reconstruct.graph_from_branch(b, mode)
    uni = b.univariate_series(mode)
    return {"kind": "chain", "gens": list(gens), "mode": mode,
            "graph": dualgraph.graph_to_json(g),
            "uni": series.series_to_text(uni),
            "sizes": {"n": g.n, "r": 1, **_series_sizes(uni)}}


def _relabel(g, rng: random.Random):
    """The same graph with its valuations listed in a seeded order."""
    if g.arrows:
        perm = list(range(1, len(g.arrows) + 1))
        rng.shuffle(perm)
        return dualgraph.DualGraph(
            g.parents, (), tuple((v, perm[b - 1]) for v, b in g.arrows))
    marks = list(g.marked_divisors)
    rng.shuffle(marks)
    return dualgraph.DualGraph(g.parents, tuple(marks), ())


def _wide_item(seed: int, r: int, mode: str, rng=None) -> dict:
    g = dualgraph.random_instance(seed, WIDE_MAX_VERTICES, r, mode)
    if rng is not None:
        g = _relabel(g, rng)
    p = poincare.poincare_series(g, poincare.default_spec(g))
    return {"kind": "wide", "seed": seed, "mode": mode,
            "graph": dualgraph.graph_to_json(g),
            "sizes": {"n": g.n, "r": r, **_series_sizes(p)}}


def chain_sizes(count: int, lo: int, hi: int) -> list:
    """count vertex counts log-uniformly spaced from lo to hi inclusive,
    the same for every seed, so every run does the same chain work."""
    return [int(round(lo * (hi / lo) ** (i / (count - 1))))
            for i in range(count)]


def large_corpus(seed: int, prof: dict) -> list:
    """Deep chains and wide instances, in seeded order.

    Both halves have the same cost profile in every run.  The chains are
    a fixed ladder (vertex counts log-spaced over chain_n, families in
    turn, modes alternating every four) plus a cluster: every family in
    both modes at each length of chain_cluster.  The wide graphs come
    from a fixed pool, one per (r, mode) class slot, and the seed lists
    each one's valuations in its own order, which permutes the
    coordinates of its series.  With graphs and chain families drawn per
    seed, the wall-clock p50 and p90 moved by 20-30% between seeds; with
    the ladder alone, p90 was the time of one or two single chains."""
    rng = random.Random(f"large:{seed}")
    sizes = chain_sizes(prof["chains"], *prof["chain_n"])
    classes = [(r, m) for m, copies in prof["wide_repeats"].items()
               for r in prof["wide_r"] for _ in range(copies)]
    items, seen, k = [], set(), 0
    for c, n in enumerate(sizes):
        items.append(_chain_item(_chain_gens(c % 4, n), _mode(c // 4)))
    for n in prof["chain_cluster"]:
        for family in range(4):
            for mode in ("divisorial", "curve"):
                items.append(_chain_item(_chain_gens(family, n), mode))
    for r, mode in classes:
        while True:
            item = _wide_item(instance_seed(0, k, POOL), r, mode, rng)
            k += 1
            if item["graph"] not in seen:
                break
        seen.add(item["graph"])
        items.append(item)
    rng.shuffle(items)
    return items


def _expand_item(seed: int, r: int, bound: int, mode: str,
                 factor_bin, rng: random.Random):
    """An expand item, or None if its in-grid factor count is off-bin."""
    g = _relabel(dualgraph.random_instance(seed, CAMPAIGN_MAX_VERTICES, r,
                                           mode), rng)
    p = poincare.poincare_series(g, poincare.default_spec(g))
    # factors past the grid edge leave no trace inside it
    ingrid = series.FactoredSeries(
        r, [(m, k) for m, k in p.items() if max(m) <= bound])
    if not factor_bin[0] <= len(ingrid) <= factor_bin[1]:
        return None
    return {"kind": "expand", "seed": seed, "mode": mode, "bound": bound,
            "series": series.series_to_text(p),
            "expect": series.series_to_text(ingrid),
            "sizes": {"n": g.n, "r": r, "cells": (bound + 1) ** r,
                      **_series_sizes(p)}}


def _oracle_item(seed: int, r: int, bound: int, mode: str,
                 rng: random.Random) -> dict:
    g = _relabel(dualgraph.random_instance(seed, CAMPAIGN_MAX_VERTICES, r,
                                           mode), rng)
    p = poincare.poincare_series(g, poincare.default_spec(g))
    return {"kind": "oracle", "seed": seed, "mode": mode, "bound": bound,
            "graph": dualgraph.graph_to_json(g),
            "series": series.series_to_text(p),
            "sizes": {"n": g.n, "r": r, "cells": (bound + 1) ** r,
                      **_series_sizes(p)}}


def _canonical(p) -> str:
    """The least text of a series over all orders of its variables, the
    same for two series that differ only by a relabelling."""
    return min(series.series_to_text(series.FactoredSeries(
        p.nvars, [(tuple(m[i] for i in perm), k) for m, k in p.items()]))
        for perm in itertools.permutations(range(p.nvars)))


def dense_corpus(seed: int, prof: dict, stream: int = CORPUS,
                 count: int = None) -> list:
    """Expand and oracle items in turn, each kind cycling through its
    classes; every input distinct, even up to relabelling.

    Corpus graphs come from a fixed pool, the same for every seed, and
    the seed lists each one's valuations in its own order, as for the
    wide graphs of large; warm-up graphs are drawn per seed.  With corpus
    graphs drawn per seed, op_p50_ref_ms moved by about 20% between seeds
    while it moved by 5% between passes of one seed: 120 ops from so
    broad a cost distribution are too few to pin its median."""
    count = prof["dense_items"] if count is None else count
    grids, bins = prof["dense_grids"], prof["expand_factor_bins"]
    bounds = prof["oracle_bounds"]
    rng = random.Random(f"dense:{seed}:{stream}")
    items, seen, s = [], set(), 0
    for k in range(count):
        j = k // 2
        while True:
            gseed = (instance_seed(0, s, POOL) if stream == CORPUS
                     else instance_seed(seed, s, stream))
            s += 1
            if k % 2 == 0:
                r, bound = grids[j % len(grids)]
                item = _expand_item(gseed, r, bound, _mode(j),
                                    bins[(j // len(grids)) % len(bins)], rng)
            else:
                r, mode = ORACLE_CLASSES[j % len(ORACLE_CLASSES)]
                bound = bounds[(j // len(ORACLE_CLASSES)) % len(bounds)]
                item = _oracle_item(gseed, r, bound, mode, rng)
            if item is None:
                continue
            key = (item["kind"], bound,
                   _canonical(series.series_from_text(item["series"])))
            if key not in seen:
                break
        seen.add(key)
        items.append(item)
    return items


def build_corpus(workload: str, seed: int, prof: dict) -> dict:
    """Corpus and warm-up items of a set-up process, as JSON data."""
    if workload == "large":
        # the warm-up chain is shorter than any corpus chain
        lo = prof["chain_n"][0]
        warm = [_chain_item(_chain_gens(0, max(4, lo // 4)), "divisorial"),
                _wide_item(instance_seed(seed, 0, WARMUP), prof["wide_r"][0],
                           "curve")]
        return {"items": large_corpus(seed, prof), "warmup": warm}
    if workload == "dense":
        # the warm-up grid and bound are smaller than any in the corpus
        small = dict(prof, dense_grids=((2, 5),), oracle_bounds=(5,))
        warm = dense_corpus(seed, small, WARMUP, count=2)
        return {"items": dense_corpus(seed, prof), "warmup": warm}
    raise ValueError(f"workload {workload!r} builds no corpus")


# -- the timed operations ---------------------------------------------------


def _reconstruct(q, mode: str):
    if mode == "divisorial":
        return reconstruct.reconstruct_divisorial(q)
    return reconstruct.reconstruct_curve(q)


def prepare(item: dict):
    """Parse an item outside the timed interval."""
    kind = item["kind"]
    if kind == "campaign":
        expect = item.get("expect")
        return (item, None if expect is None
                else dualgraph.graph_from_json(expect))
    if kind in ("chain", "wide"):
        expect = dualgraph.graph_from_json(item.get("expect", item["graph"]))
        uni = (series.series_from_text(item["uni"]) if kind == "chain"
               else None)
        return item, expect, uni
    if kind == "expand":
        return (item, series.series_from_text(item["series"]),
                series.series_from_text(item["expect"]))
    if kind == "oracle":
        g = dualgraph.graph_from_json(item["graph"])
        return (item, g, poincare.default_spec(g),
                series.series_from_text(item["series"]))
    raise ValueError(f"unknown item kind {kind!r}")


def _op_campaign(item, expect) -> dict:
    g = dualgraph.random_instance(item["seed"], CAMPAIGN_MAX_VERTICES,
                                  item["r"], item["mode"])
    sizes = {"n": g.n, "r": item["r"]}
    p = poincare.poincare_series(g, poincare.default_spec(g))
    sizes.update(_series_sizes(p))
    q = series.series_from_text(series.series_to_text(p))
    if q != p:
        raise WrongResult("series text round-trip changed the series")
    back = _reconstruct(q, item["mode"])
    back = dualgraph.graph_from_json(dualgraph.graph_to_json(back))
    if not dualgraph.equivalent(back, g if expect is None else expect):
        raise WrongResult("reconstructed graph is not equivalent")
    return sizes


def _op_large(item, expect, uni) -> dict:
    g = dualgraph.graph_from_json(item["graph"])
    p = poincare.poincare_series(g, poincare.default_spec(g))
    q = series.series_from_text(series.series_to_text(p))
    if q != p:
        raise WrongResult("series text round-trip changed the series")
    if uni is not None and q != uni:
        raise WrongResult("chain series differs from "
                          "BranchData.univariate_series")
    back = _reconstruct(q, item["mode"])
    if not dualgraph.equivalent(back, expect):
        raise WrongResult("reconstructed graph is not equivalent")
    return item["sizes"]


def _op_expand(item, p, expect) -> dict:
    e = series.expand(p, item["bound"])
    s = series.series_from_text(series.series_to_text(e))
    if series.factorize(s) != expect:
        raise WrongResult("factorize(expand(p)) differs from the in-grid "
                          "factors of p")
    return item["sizes"]


def _op_oracle(item, g, spec, p) -> dict:
    bound = item["bound"]
    direct = oracle.definitional_poincare(g, spec, bound)
    formula = series.expand(p, bound)
    box = (slice(0, bound - len(spec) + 1),) * len(spec)
    if not (direct.coeffs[box] == formula.coeffs[box]).all():
        raise WrongResult("definitional series differs from the formula")
    return item["sizes"]


_OPS = {"campaign": _op_campaign, "chain": _op_large, "wide": _op_large,
        "expand": _op_expand, "oracle": _op_oracle}


def run_op(prepared) -> dict:
    return _OPS[prepared[0]["kind"]](*prepared)


def corrupt(item: dict) -> None:
    """Make an item's expected value wrong (for the self-test)."""
    if item["kind"] in ("campaign", "chain", "wide"):
        # a mark and an arrow together: never the graph of a pure mode
        item["expect"] = dualgraph.graph_to_json(
            dualgraph.DualGraph(((),), (1,), ((1, 1),)))
        return
    # (1 - t1...tr)^-7 is the series of no campaign-sized graph
    r = item["sizes"]["r"]
    wrong = "vars %d mode factored bound 0\n-7 %s\n" % (
        r, " ".join(["1"] * r))
    item["expect" if item["kind"] == "expand" else "series"] = wrong


# -- CLI inputs ---------------------------------------------------------------


def cli_inputs(seed: int, count: int) -> list:
    """Campaign-sized graphs for the cold CLI calls, outside every corpus."""
    items = itertools.islice(campaign_items(seed, CLI), count)
    out = []
    for it in items:
        g = dualgraph.random_instance(it["seed"], CAMPAIGN_MAX_VERTICES,
                                      it["r"], it["mode"])
        p = poincare.poincare_series(g, poincare.default_spec(g))
        out.append((it["mode"], g, dualgraph.graph_to_json(g),
                    series.series_to_text(p)))
    return out
