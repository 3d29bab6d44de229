"""Decoding series back into graphs: branches, contacts, full assembly."""

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import settings

from planevals import (BranchData, ContactError, DecodeError, DualGraph,
                       FactoredSeries, GraphError, VerificationError,
                       assemble, branch_from_univariate, equivalent,
                       graph_from_branch, graph_to_json, multiplicity_matrix,
                       pairwise_contact, project, random_instance,
                       reconstruct, reconstruct_curve, reconstruct_divisorial,
                       series_to_text)

from planevals.dualgraph import MAX_VERTICES
from planevals.reconstruct import (_branch_of_values, _least_contact,
                                   _maximal_exponents, _mismatch,
                                   _solve_curve)
from planevals.series import glex_key

from conftest import (CUSP_CURVE, CUSP_DIV, CUSP_PAIR, NAMED, NODE, SINGLE,
                      TACNODE, TRANSVERSAL_CUSPS, clear_memos, series_of,
                      spy_on)


# -- numerical branch data -----------------------------------------------


def test_branch_data_cusp():
    bd = BranchData.from_generators((2, 3))
    assert bd.dead_values == (6,)
    assert bd.gcds == (2, 1)
    assert (bd.g, bd.c, bd.top_value) == (1, 0, 6)


def test_branch_data_two_pairs():
    bd = BranchData.from_generators((4, 6, 13))
    assert bd.dead_values == (12, 26)
    assert bd.gcds == (4, 2, 1)
    assert bd.top_value == 26
    bd = BranchData.from_generators((6, 9, 22))
    assert bd.dead_values == (18, 66)
    assert bd.top_value == 66


def test_branch_data_smooth_with_tail():
    bd = BranchData.from_generators((1,), c=3)
    assert (bd.g, bd.c, bd.top_value) == (0, 3, 4)
    assert bd.dead_values == ()


def test_branch_data_is_its_generators_and_tail():
    bd = BranchData((2, 3), 2)
    same = BranchData.from_generators((2, 3), 2)
    assert bd == same and hash(bd) == hash(same)
    assert repr(bd) == ("BranchData(generators=(2, 3), dead_values=(6,), "
                        "gcds=(2, 1), c=2, g=1, top_value=8)")


@pytest.mark.parametrize("gens", [
    (), (0, 3), (3, 2), (2, 4), (3,), (2, 3, 5), (4, 6, 7),
])
def test_branch_data_rejects_bad_generators(gens):
    with pytest.raises(DecodeError):
        BranchData.from_generators(gens)


def test_branch_data_rejects_negative_tail():
    with pytest.raises(DecodeError):
        BranchData.from_generators((2, 3), c=-1)


# -- one-variable encode / decode ------------------------------------------


def test_univariate_shapes():
    bd = BranchData.from_generators((2, 3))
    assert bd.univariate_series("curve").factors() == {
        (2,): -1, (3,): -1, (6,): 1}
    assert bd.univariate_series("divisorial").factors() == {
        (2,): -1, (3,): -1}
    bd = BranchData.from_generators((2, 3), c=2)
    assert bd.univariate_series("divisorial").factors() == {
        (2,): -1, (3,): -1, (8,): -1, (6,): 1}
    with pytest.raises(DecodeError):
        bd.univariate_series("curve")
    with pytest.raises(DecodeError):
        bd.univariate_series("weird")


def test_univariate_smooth_and_single():
    assert BranchData.from_generators((1,)).univariate_series(
        "curve").factors() == {(1,): -1}
    assert BranchData.from_generators((1,)).univariate_series(
        "divisorial").factors() == {(1,): -2}
    assert BranchData.from_generators((1,), c=3).univariate_series(
        "divisorial").factors() == {(1,): -1, (4,): -1}


@pytest.mark.parametrize("gens,c", [
    ((1,), 0), ((1,), 1), ((1,), 4), ((2, 3), 0), ((2, 3), 2),
    ((4, 6, 13), 0), ((4, 6, 13), 1), ((6, 9, 22), 3), ((5, 7), 0),
    ((8, 12, 26, 53), 0),
])
def test_univariate_roundtrip(gens, c):
    bd = BranchData.from_generators(gens, c)
    assert branch_from_univariate(
        bd.univariate_series("divisorial"), "divisorial") == bd
    if c == 0:
        assert branch_from_univariate(
            bd.univariate_series("curve"), "curve") == bd


@pytest.mark.parametrize("factors", [
    {(2,): -1, (4,): -1},
    {(2,): -1, (3,): -1, (5,): 1},
    {(2,): -1},
    {(2,): -1, (3,): -2, (6,): 1},
    {(1,): -3},
    {(2,): 1, (3,): 1},
])
def test_decode_rejects_non_branch_series(factors):
    p = FactoredSeries(1, factors)
    with pytest.raises(DecodeError):
        branch_from_univariate(p, "curve")
    with pytest.raises(DecodeError):
        branch_from_univariate(p, "divisorial")


@pytest.mark.parametrize("mode,bd", [
    ("curve", BranchData.from_generators((4, 6, 13))),
    ("divisorial", BranchData.from_generators((2, 3), c=2)),
    ("divisorial", BranchData.from_generators((1,))),
])
def test_equal_series_decode_to_the_same_branch_data(mode, bd):
    # the decode is cached per (series, mode): an equal series built as a
    # new object gets the very BranchData of the first decode
    first = branch_from_univariate(
        FactoredSeries(1, bd.univariate_series(mode).factors()), mode)
    again = branch_from_univariate(
        FactoredSeries(1, bd.univariate_series(mode).factors()), mode)
    assert first == bd
    assert again is first


@pytest.mark.parametrize("factors,mode,message", [
    ({(2,): -1, (3,): -1, (6,): 1}, "branch", "unknown mode 'branch'"),
    ({(2,): -1, (3,): -1}, "curve",
     "curve shape needs g+1 poles vs g zeros, got 2 vs 0"),
    ({(2,): -1, (3,): -1, (7,): 1}, "curve",
     "zeros [7] disagree with dead values (6,)"),
])
def test_refused_decodes_are_not_cached(factors, mode, message):
    # a refusal is decoded again on every call, with the same class and
    # message, and leaves no entry in the cache
    raised = []
    for _ in range(2):
        misses = branch_from_univariate.cache_info().misses
        with pytest.raises(DecodeError) as info:
            branch_from_univariate(FactoredSeries(1, factors), mode)
        assert branch_from_univariate.cache_info().misses == misses + 1
        raised.append((type(info.value), str(info.value)))
    assert raised == [(DecodeError, message)] * 2


def test_from_generators_takes_numpy_ints_as_ints():
    np = pytest.importorskip("numpy")
    b = BranchData.from_generators(np.array([2, 3]), np.int64(1))
    assert b == BranchData((2, 3), 1)
    assert [type(m) for m in b.generators] + [type(b.c)] == [int] * 3


@pytest.mark.parametrize("decode,graph", [
    (reconstruct_divisorial, CUSP_PAIR),
    (reconstruct_curve, TRANSVERSAL_CUSPS),
])
def test_equal_series_decode_to_the_same_graph(decode, graph):
    # the decode is cached per series: an equal series built as a new
    # object gets the very graph of the first decode
    p = series_of(graph)
    first = decode(FactoredSeries(p.nvars, p.factors()))
    again = decode(FactoredSeries(p.nvars, p.factors()))
    assert equivalent(first, graph)
    assert again is first


@pytest.mark.parametrize("decode,nvars,factors", [
    # the refusal rows "tampered pair series that repeats a satellite
    # point" and, on the command line, the three-branch tampered series
    (reconstruct_divisorial, 2,
     {(3, 2): -1, (8, 5): -1, (14, 10): 1, (14, 11): -1}),
    (reconstruct_curve, 3, {(1, 1, 1): 2}),
])
def test_refused_series_are_not_cached(decode, nvars, factors):
    # a refused series is decoded again on every call, with the same
    # class and message, and leaves no entry in the cache, which sits in
    # the decoder's helper behind its type check
    clear_memos()
    cache = getattr(reconstruct, "_" + decode.__name__)
    raised = []
    for _ in range(2):
        misses = cache.cache_info().misses
        with pytest.raises((DecodeError, VerificationError)) as info:
            decode(FactoredSeries(nvars, factors))
        assert cache.cache_info().misses == misses + 1
        assert cache.cache_info().currsize == 0
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]


def univariate_corpus(count):
    """Seeded one-variable series: a third are random sets of small
    factors, the rest the series of a random branch or divisor with one
    exponent moved by at most 2."""
    out = []
    for s in range(count):
        rng = random.Random(s)
        if s % 3 == 0:
            items = [((rng.randint(1, 24),),
                      rng.choice((-1, -1, -1, 1, 1, -2)))
                     for _ in range(rng.randint(1, 6))]
        else:
            g = random_instance(s, 24, 1, ("divisorial", "curve")[s % 3 - 1])
            items = list(series_of(g).factors().items())
            i = rng.randrange(len(items))
            (m,), k = items[i]
            d = rng.randint(-2, 2)
            if m + d >= 1:
                items[i] = ((m + d,), k)
        out.append(FactoredSeries(1, items))
    return out


def test_univariate_decoding_golden_digest():
    # class and message of every refusal, or the decoded BranchData, in
    # both modes; 289 of the 6000 end in "zeros ... disagree with dead
    # values ...", on curve shapes and on both divisorial shapes
    outcomes = []
    for p in univariate_corpus(3000):
        for mode in ("curve", "divisorial"):
            try:
                outcomes.append(repr(branch_from_univariate(p, mode)))
            except DecodeError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
    assert sum(o.startswith("DecodeError: zeros ") for o in outcomes) == 289
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == (
        "f32a349f0c1472c246810e66186ba037eaf993238f3e78aa53f6e10bc3e4e473")


def test_single_branch_graphs():
    assert equivalent(graph_from_branch(
        BranchData.from_generators((2, 3)), "curve"), CUSP_CURVE)
    assert equivalent(graph_from_branch(
        BranchData.from_generators((2, 3)), "divisorial"), CUSP_DIV)
    g = graph_from_branch(BranchData.from_generators((2, 3), c=2),
                          "divisorial")
    assert g.n == 5
    assert g.marked_divisors == (5,)


# -- contacts and assembly ---------------------------------------------------


def test_assemble_tacnode_from_contacts():
    one = BranchData.from_generators((1,))
    g = assemble([one, one], [[1, 2], [2, 1]], "curve")
    assert equivalent(g, TACNODE)
    g = assemble([one, one], [[1, 1], [1, 1]], "curve")
    assert equivalent(g, NODE)


def test_assemble_divisorial_pair():
    a = branch_from_univariate(FactoredSeries(1, {(2,): -1, (3,): -1}),
                               "divisorial")
    b = branch_from_univariate(FactoredSeries(1, {(1,): -1, (2,): -1}),
                               "divisorial")
    m = multiplicity_matrix(CUSP_DIV)
    g = assemble([a, b], [[a.top_value, m[2][1]], [m[1][2], b.top_value]],
                 "divisorial")
    assert equivalent(g, CUSP_PAIR)


def test_assemble_rejects_inconsistent_contacts():
    one = BranchData.from_generators((1,))
    with pytest.raises(ContactError):
        assemble([one, one], [[1, 0], [0, 1]], "curve")
    cusp = BranchData.from_generators((2, 3))
    # contact 5 is not a value either branch geometry can realize
    with pytest.raises((ContactError, DecodeError)):
        assemble([cusp, cusp], [[6, 5], [5, 6]], "curve")


def test_assemble_rejects_identical_divisorial_pair():
    a = BranchData.from_generators((2, 3))
    with pytest.raises((ContactError, DecodeError)):
        assemble([a, a], [[6, 6], [6, 6]], "divisorial")


def test_assemble_checks_expected_series():
    one = BranchData.from_generators((1,))
    wrong = FactoredSeries(2, {(1, 1): -2})
    with pytest.raises(VerificationError):
        assemble([one, one], [[1, 2], [2, 1]], "curve", expect=wrong)


def test_pairwise_contact_on_divisorial_pairs():
    m = multiplicity_matrix(CUSP_DIV)
    p = series_of(CUSP_PAIR)
    b1 = branch_from_univariate(project(p, [1]), "divisorial")
    b2 = branch_from_univariate(project(p, [2]), "divisorial")
    assert b1.generators == (2, 3)
    assert pairwise_contact(p, b1, b2) == m[2][1] == 3
    with pytest.raises(DecodeError):
        pairwise_contact(series_of(SINGLE), b1, b2)


def test_contact_resolves_ambiguous_structural_cases():
    # marks at vertices 2 and 3 of a free chain: two structural cases
    # give 3 and 2, and the least is the contact, which the pair series
    # confirms
    g = DualGraph(((), (1,), (2,)), (2, 3), ())
    p = series_of(g)
    assert p == FactoredSeries(2, {(1, 1): -1, (2, 3): -1})
    b1 = branch_from_univariate(project(p, [1]), "divisorial")
    b2 = branch_from_univariate(project(p, [2]), "divisorial")
    assert (b1.top_value, b2.top_value) == (2, 3)
    assert pairwise_contact(p, b1, b2) == 2


def brute_maximal_exponents(exps):
    """Reference: every exponent compared with every other one."""
    out = []
    for m in exps:
        if not any(all(o[i] >= m[i] for i in range(len(m))) and o != m
                   for o in exps):
            out.append(m)
    return sorted(set(out), key=glex_key, reverse=True)


def test_maximal_exponents_match_the_brute_force():
    rng = random.Random(0)
    for _ in range(1000):
        r = rng.randint(1, 4)
        hi = rng.choice((2, 5, 30))
        exps = [tuple(rng.randint(0, hi) for _ in range(r))
                for _ in range(rng.randint(0, 40))]
        assert _maximal_exponents(exps) == brute_maximal_exponents(exps)


# -- divisorial decoding checks the series once -----------------------------


def fits_chains(b1, b2, contact):
    """Whether the pair graph of this contact passes assemble's
    structural checks, with no series compared."""
    try:
        assemble([b1, b2], [[b1.top_value, contact], [contact, b2.top_value]],
                 "divisorial")
    except (ContactError, DecodeError, GraphError):
        return False
    return True


def pair_data(p, pair):
    b1, b2 = (branch_from_univariate(project(p, {k}), "divisorial")
              for k in pair)
    return (project(p, set(pair)) if p.nvars > 2 else p), b1, b2


# random_instance(21, 12, 2, "divisorial") and random_instance(3, 12, 3,
# "divisorial"): the smallest graphs, one per r, that a search over seeds
# 0..399 at r = 2, 3 and max_vertices 12 found with a pair that has two
# structurally valid candidate contacts (91 such pairs in all); in both
# the pair's contact is 1, and the other one that fits its chains is 2
AMBIGUOUS = [
    (DualGraph(((), (1,), (2,), (1,)), (4, 3), ()), (1, 2)),
    (DualGraph(((), (1,), (1,), (3,)), (2, 3, 4), ()), (1, 3)),
]
OTHER_CONTACT = 2


@pytest.fixture
def pairwise_calls(monkeypatch):
    return spy_on(monkeypatch, "pairwise_contact")


@pytest.fixture
def assemble_calls(monkeypatch):
    return spy_on(monkeypatch, "assemble")


@pytest.mark.parametrize("graph,pair", AMBIGUOUS)
def test_ambiguous_pair_decodes_with_one_series_check(graph, pair,
                                                      pairwise_calls):
    p = series_of(graph)
    p2, b1, b2 = pair_data(p, pair)
    assert fits_chains(b1, b2, 1) and fits_chains(b1, b2, OTHER_CONTACT)
    assert _least_contact(p2, b1, b2) == 1
    assert equivalent(reconstruct_divisorial(p), graph)
    assert pairwise_calls == []


# what the one assembly raises on the wrong contact, by the number of
# valuations: the pair graph fails the check against the series, while of
# three valuations the wrong pair breaks the hierarchy of the three chains
WRONG_CONTACT_FAILURE = {
    2: (VerificationError, "^assembled graph reproduces "),
    3: (ContactError, "^shared depths violate the tree hierarchy$"),
}


@pytest.mark.parametrize("graph,pair", AMBIGUOUS)
def test_reversed_candidates_fail_after_one_assembly(
        graph, pair, assemble_calls, pairwise_calls, monkeypatch):
    # the contact chooser, patched, gives the ambiguous pair the other
    # contact that fits its chains: the one graph is refused, and no pair
    # is decoded again
    p = series_of(graph)
    ambiguous = pair_data(p, pair)

    def chooser(*args):
        return OTHER_CONTACT if args == ambiguous else _least_contact(*args)

    monkeypatch.setattr(reconstruct, "_least_contact", chooser)
    clear_memos()
    error, message = WRONG_CONTACT_FAILURE[len(graph.marked_divisors)]
    with pytest.raises(error, match=message):
        reconstruct_divisorial(p)
    assert len(assemble_calls) == 1
    assert pairwise_calls == []


def test_valid_decode_assembles_one_graph(assemble_calls, pairwise_calls):
    # pairs are matched on their chains; the only graph built is the
    # final one, checked against the whole series
    graphs = [random_instance(s, 60, 2 + s % 5, "divisorial")
              for s in range(200)]
    graphs += [graph for graph, _ in AMBIGUOUS]
    for graph in graphs:
        # random graphs can repeat a series, whose decode must run again
        clear_memos()
        assemble_calls.clear()
        assert equivalent(reconstruct_divisorial(series_of(graph)), graph)
        assert len(assemble_calls) == 1
    assert pairwise_calls == []


def tampered_pair_series(count, r=2):
    """Valid series of r = 2 or 3 variables times
    (a,b+d,z)^-1 (a',b'+d,z)^-1 (a,b'+d,z)^+1 (a',b+d,z)^+1, where
    (a,b,z) and (a',b',z') are poles of the series (no z when r = 2):
    every one-variable projection, and at r = 3 the pairs (1, 3) and
    (2, 3), stay those of the untampered graph."""
    out = []
    seed = 0
    while len(out) < count:
        rng = random.Random(seed)
        p = series_of(random_instance(5000 + seed, 30, r, "divisorial"))
        seed += 1
        poles = sorted(m for m, k in p.factors().items() if k < 0)
        pairs = [(u, v) for u in poles for v in poles
                 if u[0] != v[0] and u[1] != v[1]]
        if not pairs:
            continue
        (a, b, *z), (a2, b2, *_) = rng.choice(pairs)
        z = tuple(z)
        d = rng.randint(0, 3)
        q = (p.with_factor((a, b + d) + z, -1)
             .with_factor((a2, b2 + d) + z, -1)
             .with_factor((a, b2 + d) + z, 1)
             .with_factor((a2, b + d) + z, 1))
        kept = [{1}, {2}] if r == 2 else [{1}, {2}, {3}, {1, 3}, {2, 3}]
        assert all(project(q, keep) == project(p, keep) for keep in kept)
        out.append(q)
    return out


def contact_fits(q):
    """Whether the tampered pair (1, 2) of q has a contact, and it fits
    the two chains."""
    p2, b1, b2 = pair_data(q, (1, 2))
    try:
        return fits_chains(b1, b2, _least_contact(p2, b1, b2))
    except DecodeError:
        return False


def decode_outcome(p, message=False):
    try:
        reconstruct_divisorial(p)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}" if message else (
            type(exc).__name__)
    return "ok"


def test_tampered_pair_series_fail_as_before():
    series = tampered_pair_series(200)
    # those whose contact fits the two chains fail the one check against
    # the whole series; the others fail before it
    outcomes = [decode_outcome(q) for q in series]
    assert sum(map(contact_fits, series)) == outcomes.count(
        "VerificationError")
    assert Counter(outcomes) == {"DecodeError": 51, "ContactError": 92,
                                 "VerificationError": 57}
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == (
        "7fb461eb9fec1d860e31f2733e58664f1e0c8d6ce75d81a97603b30e0fa633cc")


def test_tampered_triple_series_fail_as_before():
    # the tampered pair (1, 2) of three valuations: outcomes, class and
    # message; some fail on the chains, others at the one assembly, on
    # the hierarchy of the three chains or on the series check
    outcomes = [decode_outcome(q, message=True)
                for q in tampered_pair_series(200, r=3)]
    assert Counter(o.split(":")[0] for o in outcomes) == {
        "DecodeError": 53, "VerificationError": 65, "ContactError": 82}
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == (
        "58787efa58f20b072f5ab6a77469b3e991f6af1bfa0054a16e65a83590c279b4")


def test_failed_checks_quote_at_most_32_factors():
    got = {(k, 1): -1 for k in range(1, 33)}
    expect = {**got, (2, 1): 1}
    assert _mismatch(got, expect) == (
        f"assembled graph reproduces {got}, expected {expect}")
    expect[(40, 2)] = -1
    assert _mismatch(got, expect) == (
        "assembled graph reproduces 32 factors, expected 33; the glex-first "
        "difference is at exponent (2, 1), power -1 instead of 1")


def test_divisorial_decoding_golden_digest():
    # as decoded by the decoder that checked every pair's series
    h = hashlib.sha256()
    for s in range(150):
        g = random_instance(9000 + s, 60, 2 + s % 5, "divisorial")
        h.update(graph_to_json(reconstruct_divisorial(series_of(g)))
                 .encode())
    assert h.hexdigest() == (
        "ef9de55eb4d2739087c6d60ee6f63ff5164f66147e600c2d7edc8174a5051336")


def test_curve_decoding_golden_digest():
    # as decoded by the decoder that searched over peel orders and
    # assembled each decomposition it found until one reproduced the series
    h = hashlib.sha256()
    cases = [(11_000 + s, 1 + s % 8) for s in range(160)]
    cases += [(12_000 + 100 * r + s, r) for r in (16, 24, 32) for s in range(3)]
    for seed, r in cases:
        g = random_instance(seed, 40, r, "curve")
        h.update(graph_to_json(reconstruct_curve(series_of(g))).encode())
    assert h.hexdigest() == (
        "a080f72c3675c1ec82288d788aff5dc9742a15cf04467c0e76f35bb7501fb2b4")


# -- full reconstruction ------------------------------------------------------


@pytest.mark.parametrize("name", ["single", "cusp_div", "cusp_pair",
                                  "cusp_marks3"])
def test_reconstruct_divisorial_examples(name):
    g = NAMED[name]
    assert equivalent(reconstruct_divisorial(series_of(g)), g)


@pytest.mark.parametrize("name", ["smooth", "cusp_curve", "node", "tacnode",
                                  "transversal_cusps"])
def test_reconstruct_curve_examples(name):
    g = NAMED[name]
    assert equivalent(reconstruct_curve(series_of(g)), g)


def test_reconstruct_ordinary_triple_point():
    g = DualGraph(((),), (), ((1, 1), (1, 2), (1, 3)))
    assert equivalent(reconstruct_curve(series_of(g)), g)


def test_reconstruct_divisorial_rejects_mixed_series():
    with pytest.raises(DecodeError):
        reconstruct_divisorial(FactoredSeries(2, {(1, 2): -1}))


def test_decoders_refuse_the_wrong_number_of_variables():
    for decode in (reconstruct_divisorial, reconstruct_curve):
        with pytest.raises(DecodeError, match="need at least one variable"):
            decode(FactoredSeries(0, ()))
    for mode in ("curve", "divisorial"):
        with pytest.raises(DecodeError, match="univariate series expected"):
            branch_from_univariate(series_of(NODE), mode)


def test_reconstruct_rejects_tampered_series():
    p = series_of(TACNODE)
    bad = p.with_factor((1, 1), -1)
    with pytest.raises((DecodeError, VerificationError)):
        reconstruct_curve(bad)
    q = series_of(CUSP_PAIR).with_factor((5, 4), -1)
    with pytest.raises((DecodeError, VerificationError)):
        reconstruct_divisorial(q)


# seeds per valuation count (and edit) in tier-1; the "fuzz" profile, for
# `pytest --hypothesis-profile fuzz`, runs 150
TAMPER_SEEDS = 150 if settings.get_current_profile_name() == "fuzz" else 4


def tamper(p, seed, edit):
    """p with one factor, drawn by seed, dropped, moved by +1 on one axis
    or with its power doubled."""
    rng = random.Random(seed)
    facs = p.factors()
    m = rng.choice(sorted(facs, key=glex_key))
    k = facs.pop(m)
    if edit == "move":
        a = rng.randrange(p.nvars)
        m = m[:a] + (m[a] + 1,) + m[a + 1:]
        facs[m] = facs.get(m, 0) + k
    elif edit == "double":
        facs[m] = 2 * k
    return FactoredSeries(p.nvars, facs)


DECODERS = {"curve": reconstruct_curve,
            "divisorial": reconstruct_divisorial}

# (mode, r) of the sweeps below; the curve cases keep their ids r, the
# divisorial ones are div-r
SWEEP = [pytest.param("curve", r, id=str(r)) for r in (8, 16, 24, 32)]
SWEEP += [pytest.param("divisorial", r, id=f"div-{r}")
          for r in (8, 16, 24, 32)]


@pytest.mark.parametrize("mode,r", SWEEP)
def test_untampered_curve_series_decode_after_one_assembly(
        mode, r, assemble_calls):
    # the sources of the tamper sweep below, in both modes despite the
    # name: each is decoded on its one pass, never refused
    for s in range(TAMPER_SEEDS):
        g = random_instance(1000 * r + s, 40, r, mode)
        # random graphs can repeat a series, whose decode must run again
        clear_memos()
        assemble_calls.clear()
        assert equivalent(DECODERS[mode](series_of(g)), g)
        assert len(assemble_calls) == 1


@pytest.mark.parametrize("edit", ["drop", "move", "double"])
@pytest.mark.parametrize("mode,r", SWEEP)
def test_tampered_curve_series_decode_or_fail_after_one_assembly(
        mode, r, edit, assemble_calls):
    for s in range(TAMPER_SEEDS):
        g = random_instance(1000 * r + s, 40, r, mode)
        q = tamper(series_of(g), 1000 * r + s, edit)
        assemble_calls.clear()
        try:
            # a graph is returned only for the series it reproduces
            assert series_of(DECODERS[mode](q)) == q
        except (DecodeError, VerificationError):
            pass
        assert len(assemble_calls) <= 1


def test_peel_tacnode():
    # the first peel is at the exponent (2, 2): two smooth branches with
    # contact 2, the rest being the smooth series (1 - t)^-1
    branches, cm = _solve_curve(series_of(TACNODE))
    assert [b.generators for b in branches] == [(1,), (1,)]
    assert cm == [[1, 2], [2, 1]]


def test_peel_transversal_cusps():
    branches, cm = _solve_curve(series_of(TRANSVERSAL_CUSPS))
    assert [b.generators for b in branches] == [(2, 3), (2, 3)]
    assert cm == [[6, 4], [4, 6]]


@pytest.mark.parametrize("nvars,facs,failure", [
    # the glex-first exponent peels a branch whose self-value is above
    # the exponent's own coordinate
    pytest.param(2, {(2, 1): -1, (4, 2): 1, (5, 2): -1}, "(5, 2) on input "
                 "branches (1, 2) does not peel with 2 branches left: peeled "
                 "branch (2, 5) has self-value 10 above its exponent 5",
                 id="top-level"),
    # branch 2 peels, and the glex-first exponent of the two branches
    # left, 1 and 3, does not
    pytest.param(3, {(2, 6, 3): 2}, "(2, 3) on input branches (1, 3) does "
                 "not peel with 2 branches left: generators (2,) have gcd 2 "
                 "!= 1", id="one-level-down"),
])
def test_curve_dead_end_names_the_branches_left_and_the_last_failure(
        nvars, facs, failure):
    with pytest.raises(DecodeError) as info:
        _solve_curve(FactoredSeries(nvars, facs))
    assert str(info.value) == ("series does not decompose into plane curve "
                               f"branches: exponent {failure}")


def table_branch_of_values(values):
    """Reference: minimal generators of the semigroup the values span,
    read off a reachability table as long as the largest value."""
    vals = sorted(set(values))
    reach = [True] + [False] * vals[-1]
    for v in vals:
        for n in range(v, vals[-1] + 1):
            reach[n] = reach[n] or reach[n - v]
    gens = [v for v in vals
            if not any(reach[a] and reach[v - a] for a in range(1, v))]
    return BranchData.from_generators(gens, 0)


def test_semigroup_values_match_the_table():
    rng = random.Random(0)
    # 15 lies outside <4, 6, 13>; 30 (even, so no generator) and 55 lie
    # outside <8, 12, 26, 53>
    samples = [[4, 6, 13, 15], [8, 12, 26, 53, 30], [8, 12, 26, 53, 55]]
    samples += [[rng.randint(1, 60) for _ in range(rng.randint(1, 5))]
                for _ in range(1500)]
    for gens in ((1,), (2, 3), (4, 6, 13), (6, 9, 22), (8, 12, 26, 53)):
        for _ in range(60):
            extra = [sum(rng.randint(0, 3) * m for m in gens)
                     for _ in range(rng.randint(0, 4))]
            samples.append(list(gens) + [v for v in extra if v])
    accepted = 0
    for values in samples:
        try:
            want = table_branch_of_values(values)
        except DecodeError:
            with pytest.raises(DecodeError):
                _branch_of_values(values)
            continue
        assert _branch_of_values(values) == want
        accepted += 1
    assert 300 <= accepted <= len(samples) - 300
    with pytest.raises(DecodeError):
        _branch_of_values([0, 2, 3])


@pytest.mark.parametrize("seed", range(40))
def test_roundtrip_divisorial_random(seed):
    g = random_instance(seed, 14, 1 + seed % 3, "divisorial")
    assert equivalent(reconstruct_divisorial(series_of(g)), g)


@pytest.mark.parametrize("seed", range(40))
def test_roundtrip_curve_random(seed):
    g = random_instance(10_000 + seed, 14, 1 + seed % 4, "curve")
    assert equivalent(reconstruct_curve(series_of(g)), g)


def test_chain_length_is_bounded_before_building():
    # gens (2, 2k+1) resolve to k+2 vertices; a divisorial tail adds c
    k = MAX_VERTICES - 2
    assert graph_from_branch(BranchData.from_generators((2, 2 * k + 1)),
                             "curve").n == MAX_VERTICES
    with pytest.raises(DecodeError, match="limit"):
        graph_from_branch(BranchData.from_generators((2, 2 * k + 3)),
                          "curve")
    tail = BranchData.from_generators((2, 3), MAX_VERTICES - 2)
    with pytest.raises(DecodeError, match="limit"):
        graph_from_branch(tail, "divisorial")
    with pytest.raises(DecodeError, match="limit"):
        graph_from_branch(BranchData.from_generators((1,), 10 ** 12),
                          "divisorial")


def test_long_divisorial_chain_is_refused_before_any_pair():
    # E_1 and the end of a free chain of 20001 points: the long chain is
    # refused by its own length, before a pair contact is tried
    p = FactoredSeries(2, {(1, 1): -1, (20001, 1): -1})
    with pytest.raises(DecodeError) as info:
        reconstruct_divisorial(p)
    assert str(info.value) == (f"the resolution of (1,) has 20001 vertices, "
                               f"above the limit {MAX_VERTICES}")


CAMPAIGN_DIGEST = (
    "4818ae3e52481e0c1556132df41053701b3dc06ed36122c42841f83d1d25cfa7")


def test_campaign_round_trips_match_pinned_digest():
    # the first 1000 items of the seed-1 round-trip campaign: seed
    # 4 (10^6 + k), modes alternating, r cycling 1..3 (divisorial) and
    # 1..4 (curve), at most 30 vertices; sha256 over each graph's JSON,
    # its factored series text and the JSON of its decode
    h = hashlib.sha256()
    for k in range(1000):
        mode, j = ("divisorial", "curve")[k % 2], k // 2
        r = j % 3 + 1 if mode == "divisorial" else j % 4 + 1
        g = random_instance(4 * (10 ** 6 + k), 30, r, mode)
        p = series_of(g)
        back = (reconstruct_divisorial(p) if mode == "divisorial"
                else reconstruct_curve(p))
        for text in (graph_to_json(g), series_to_text(p),
                     graph_to_json(back)):
            h.update(text.encode())
    assert h.hexdigest() == CAMPAIGN_DIGEST
