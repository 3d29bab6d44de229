"""Series arithmetic: factored products, truncated expansions, text format."""

import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from planevals import (FactoredSeries, SeriesError, TruncatedSeries,
                       default_spec, divide_torus, expand, factorize,
                       poincare_series, project, random_instance,
                       series_from_text, series_to_text)
from planevals import series as series_module
from planevals.series import MAX_CELLS, glex_key


def exponents(nvars, max_coord=6):
    return st.tuples(*[st.integers(0, max_coord)] * nvars).filter(any)


def factored(nvars, max_coord=6, max_factors=4):
    powers = st.integers(-3, 3).filter(bool)
    return st.dictionaries(exponents(nvars, max_coord), powers,
                           max_size=max_factors).map(
        lambda d: FactoredSeries(nvars, d))


# -- FactoredSeries basics ------------------------------------------------


def test_zero_powers_drop_and_duplicates_merge():
    f = FactoredSeries(2, [((1, 0), 2), ((1, 0), -2), ((0, 3), 1),
                           ((0, 3), 1)])
    assert f.factors() == {(0, 3): 2}
    assert len(f) == 1


def test_exponent_validation():
    with pytest.raises(SeriesError):
        FactoredSeries(2, {(0, 0): 1})
    with pytest.raises(SeriesError):
        FactoredSeries(2, {(1, -1): 1})
    with pytest.raises(SeriesError):
        FactoredSeries(2, {(1,): 1})
    with pytest.raises(SeriesError):
        FactoredSeries(-1, {})


def test_with_factor_and_equality():
    f = FactoredSeries(1, {(2,): -1})
    g = f.with_factor((2,), 1)
    assert g == FactoredSeries(1, {})
    assert f == FactoredSeries(1, {(2,): -1})
    assert hash(f) == hash(FactoredSeries(1, {(2,): -1}))


def test_max_degree_is_largest_coordinate():
    f = FactoredSeries(2, {(1, 4): -1, (3, 2): 2})
    assert f.max_degree() == 4
    assert FactoredSeries(2, {}).max_degree() == 0


def test_project_merges_and_rejects_degenerate():
    f = FactoredSeries(2, {(1, 2): -1, (1, 5): -1})
    assert project(f, [1]).factors() == {(1,): -2}
    with pytest.raises(SeriesError):
        project(FactoredSeries(2, {(0, 2): 1}), [1])
    with pytest.raises(SeriesError):
        project(f, [])
    with pytest.raises(SeriesError):
        project(f, [3])


def test_project_drops_cancelled_powers_and_names_first_degenerate():
    f = FactoredSeries(3, {(1, 2, 0): -1, (1, 2, 3): 1, (2, 1, 1): 3})
    p = project(f, [1, 2])
    assert p == FactoredSeries(2, {(2, 1): 3}) and p.factors() == {(2, 1): 3}
    # of the two factors that vanish on (t1, t2), the glex-first is named
    g = FactoredSeries(3, {(0, 0, 4): 1, (1, 0, 1): 1, (0, 0, 2): -1})
    with pytest.raises(SeriesError, match=r"\(0, 0, 2\) degenerates"):
        project(g, [2, 1])


# -- expansion ------------------------------------------------------------


def test_geometric_expansion():
    s = expand(FactoredSeries(1, {(1,): -1}), 6)
    assert [s[(k,)] for k in range(7)] == [1] * 7


def test_plain_factor_expansion():
    s = expand(FactoredSeries(1, {(2,): 1}), 6)
    assert [s[(k,)] for k in range(7)] == [1, 0, -1, 0, 0, 0, 0]


def test_expansion_with_exponent_beyond_bound():
    # a numerator factor whose exponent exceeds the grid must act as 1
    s = expand(FactoredSeries(1, {(66,): 1, (2,): -1}), 60)
    assert [s[(k,)] for k in range(8)] == [1, 0, 1, 0, 1, 0, 1, 0]
    assert s[(59,)] == 0 and s[(58,)] == 1


def test_zero_variable_constant():
    # the empty collection has the 0-variable constant series 1; it can
    # be stored and compared but a dense grid needs at least one variable
    f = FactoredSeries(0, ())
    assert f == FactoredSeries(0, {})
    assert len(f) == 0
    with pytest.raises(SeriesError):
        expand(f, 5)


def expand_both_ways(f, bound):
    """``expand(f, bound)``, checked equal to the expansion made with the
    floor on the grid's cost dropped, which sends even small boxes to the
    grid once the support passes ``cells // _CELLS_PER_TERM``."""
    s = expand(f, bound)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_MIN_GRID_CELLS", 0)
        assert expand(f, bound) == s
    return s


@given(factored(2, max_coord=4))
def test_expand_agrees_with_projection(f):
    # substituting 1 for var 2 in the expansion matches the projected
    # series when the support cannot escape the grid along var 2: with
    # m2 <= m1 in every factor the exponents stay below the diagonal
    if any(m[1] > m[0] for m in f.factors()):
        return
    p = expand_both_ways(project(f, [1]), 10)
    s = expand_both_ways(f, 10)
    for k in range(11):
        assert p[(k,)] == sum(s[(k, j)] for j in range(11))


def test_divide_torus_inverts_torus_multiple():
    # (t1 t2 - 1) p = -(1 - t1 t2) p cancels the factor at (1, 1)
    p = expand(FactoredSeries(2, {(1, 1): -1, (1, 2): -1}), 9)
    q = expand(FactoredSeries(2, {(1, 2): -1}), 9)
    p_prime = TruncatedSeries(2, 9, {m: -c for m, c in q.nonzero_terms()})
    assert divide_torus(p_prime) == p


# -- factorization --------------------------------------------------------


@given(factored(3, max_coord=5))
def test_factorize_recovers_factored_form(f):
    assert factorize(expand(f, 20)) == f


def test_factorize_requires_unit_constant():
    s = TruncatedSeries(1, 4, {})
    with pytest.raises(SeriesError):
        factorize(s)


def test_factorize_reproduces_arbitrary_unit_series():
    # peeling writes any unit-constant truncation as a product, exactly
    # within the grid
    s = TruncatedSeries(1, 3, {(0,): 1, (1,): 1, (3,): 1})
    assert expand(factorize(s), 3) == s


# -- text format ----------------------------------------------------------


def test_factored_text_roundtrip_and_determinism():
    f = FactoredSeries(2, {(2, 1): -1, (1, 2): 3})
    text = series_to_text(f)
    assert text.splitlines()[0] == "vars 2 mode factored bound 0"
    assert series_from_text(text) == f
    assert series_to_text(series_from_text(text)) == text


def test_expanded_text_roundtrip():
    s = expand(FactoredSeries(2, {(1, 1): -1}), 5)
    text = series_to_text(s)
    assert text.splitlines()[0] == "vars 2 mode expanded bound 5"
    assert series_from_text(text) == s


def test_text_comments_and_blank_lines():
    text = "# leading comment\nvars 1 mode factored bound 0\n\n-1 2\n# done\n"
    assert series_from_text(text) == FactoredSeries(1, {(2,): -1})


# each malformed text with the exact SeriesError message it raises; a term
# line is checked for its field count, integer fields, the box, a repeated
# exponent and a zero power, in that order, so the first bad line decides
MALFORMED = {
    "": "empty series text",
    "garbage": "bad header: 'garbage'",
    "vars 1 mode factored bound 3\n-1 2\n":
        "factored series must declare bound 0",
    "vars 1 mode expanded bound -1\n": "need vars >= 1 and bound >= 0",
    "vars 2 mode factored bound 0\n-1 2\n": "expected 3 fields: '-1 2'",
    "vars 1 mode factored bound 0\n-1 2 junk\n":
        "expected 2 fields: '-1 2 junk'",
    "vars 1 mode whatever bound 0\n": "unknown mode 'whatever'",
    "vars 1 mode expanded bound 2\n1 5\n": "exponent (5,) outside grid [0, 2]",
    "vars x mode factored bound 0\n":
        "bad header numbers: 'vars x mode factored bound 0'",
    "vars 0 mode factored bound 0\n": "need vars >= 1 and bound >= 0",
    "vars 2 mode expanded bound 5000\n":
        "grid of 2 variables at bound 5000 exceeds the limit of "
        "16777216 cells",
    "vars 1 mode factored bound 0\n-1 x\n": "non-integer field: '-1 x'",
    "vars 1 mode factored bound 0\n0 2\n": "zero power at (2,)",
    "vars 2 mode factored bound 0\n-1 -1 2\n":
        "negative entry in exponent (-1, 2)",
    "vars 2 mode factored bound 0\n-1 0 0\n":
        "zero exponent vector is not allowed in a factor",
    # the duplicate on the second line, not the third line's field count
    "vars 2 mode factored bound 0\n-1 1 2\n1 1 2\n-1 2 3 4\n":
        "duplicate exponent (1, 2)",
    "vars 1 mode factored bound 0\n1 2\n0 2\n": "duplicate exponent (2,)",
    "vars 2 mode expanded bound 3\n1 x\n": "expected 3 fields: '1 x'",
    "vars 2 mode expanded bound 3\n1 9 x\n": "non-integer field: '1 9 x'",
    "vars 2 mode expanded bound 3\n1 -1 2\n":
        "exponent (-1, 2) outside grid [0, 3]",
    "vars 1 mode expanded bound 3\n1 2\n1 2\n1 9\n": "duplicate exponent (2,)",
    # a line with coefficient 0 is dropped, but its exponent is taken
    "vars 1 mode expanded bound 3\n0 2\n5 2\n": "duplicate exponent (2,)",
    "vars 1 mode expanded bound 3\n0 2\n0 2\n": "duplicate exponent (2,)",
}


@pytest.mark.parametrize("bad", list(MALFORMED))
def test_text_rejects_malformed_input(bad):
    with pytest.raises(SeriesError) as info:
        series_from_text(bad)
    assert str(info.value) == MALFORMED[bad]


@given(factored(3, max_coord=5))
def test_text_roundtrip_factored(f):
    assert series_from_text(series_to_text(f)) == f


@given(factored(2, max_coord=4))
def test_text_roundtrip_expanded(f):
    s = expand(f, 6)
    assert series_from_text(series_to_text(s)) == s


def reference_writer(series):
    """The text writer that formatted one term at a time."""
    if isinstance(series, FactoredSeries):
        lines = [f"vars {series.nvars} mode factored bound 0"]
        terms = series.items()
    else:
        lines = [f"vars {series.nvars} mode expanded bound {series.bound}"]
        terms = series.nonzero_terms()
    lines.extend(" ".join(map(str, (c, *m))) for m, c in terms)
    return "\n".join(lines) + "\n"


def reference_reader(text):
    """The text reader that checked and stored one term line at a time."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise SeriesError("empty series text")
    head = lines[0].split()
    if (len(head) != 6 or head[0] != "vars" or head[2] != "mode"
            or head[4] != "bound"):
        raise SeriesError(f"bad header: {lines[0]!r}")
    try:
        nvars = int(head[1])
        bound = int(head[5])
    except ValueError as exc:
        raise SeriesError(f"bad header numbers: {lines[0]!r}") from exc
    mode = head[3]
    if mode not in ("factored", "expanded"):
        raise SeriesError(f"unknown mode {mode!r}")
    if nvars < 1 or bound < 0:
        raise SeriesError("need vars >= 1 and bound >= 0")
    expanded = mode == "expanded"
    if expanded:
        series_module._check_grid(nvars, bound)
    elif bound != 0:
        raise SeriesError("factored series must declare bound 0")
    width = nvars + 1
    terms = {}
    zeros = set()
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != width:
            raise SeriesError(f"expected {width} fields: {ln!r}")
        try:
            vals = list(map(int, toks))
        except ValueError as exc:
            raise SeriesError(f"non-integer field: {ln!r}") from exc
        c = vals[0]
        m = tuple(vals[1:])
        if expanded and (min(m) < 0 or max(m) > bound):
            raise SeriesError(f"exponent {m} outside grid [0, {bound}]")
        if m in terms or m in zeros:
            raise SeriesError(f"duplicate exponent {m}")
        if c:
            terms[m] = c
        elif expanded:
            zeros.add(m)
        else:
            raise SeriesError(f"zero power at {m}")
    if not expanded:
        return FactoredSeries(nvars, terms)
    return TruncatedSeries(nvars, bound, terms)


def read_outcome(reader, text):
    """The series a reader makes of a text, or its SeriesError message."""
    try:
        return reader(text)
    except SeriesError as exc:
        return f"SeriesError: {exc}"


def assert_reads_as_reference(text):
    got = read_outcome(series_from_text, text)
    assert got == read_outcome(reference_reader, text)
    return got


# small, negative and past 2^63 in either sign
coefficients = st.one_of(st.integers(-3, 3),
                         st.integers(-2 ** 80, 2 ** 80)).filter(bool)


@st.composite
def any_series(draw):
    r = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return FactoredSeries(r, draw(st.dictionaries(
            exponents(r), coefficients, max_size=12)))
    bound = draw(st.integers(0, 5))
    return TruncatedSeries(r, bound, draw(st.dictionaries(
        st.tuples(*[st.integers(0, bound)] * r), coefficients,
        max_size=12)))


@given(any_series())
def test_text_matches_the_per_term_writer(s):
    text = series_to_text(s)
    assert text == reference_writer(s)
    assert series_from_text(text) == s


SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t "])
MARGINS = st.sampled_from(["", " ", "\t", " \t", "\r"])
ENDINGS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def laid_out_text(draw):
    """The text of an ``any_series``, with its fields separated by spaces
    and tabs, lines padded on both sides, ended by ``\n``, ``\r\n`` or
    ``\r``, and comments, blank lines and (expanded only) lines with
    coefficient 0 put in between; a zero line may repeat an exponent."""
    s = draw(any_series())
    lines = series_to_text(s).splitlines()
    if isinstance(s, TruncatedSeries):
        box = st.tuples(*[st.integers(0, s.bound)] * s.nvars)
        for e in draw(st.lists(box, max_size=4)):
            at = draw(st.integers(1, len(lines)))
            lines.insert(at, " ".join(map(str, (0, *e))))
    out = []
    for ln in lines:
        for _ in range(draw(st.integers(0, 1))):
            out.append(draw(st.sampled_from(["", "   ", "\t", "# note",
                                             "  #", "#1 2 3"])))
        sep = draw(SEPARATORS)
        out.append(draw(MARGINS) + sep.join(ln.split()) + draw(MARGINS))
    ends = [draw(ENDINGS) for _ in out]
    return "".join(map("".join, zip(out, ends)))


@given(laid_out_text())
def test_reader_matches_the_per_line_reader(text):
    got = assert_reads_as_reference(text)
    # and in chunks of two lines, so that most texts span several
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_CHUNK_LINES", 2)
        assert read_outcome(series_from_text, text) == got


CHUNK = series_module._CHUNK_LINES
# term lines, counted from 0 after the header: one inside the second
# chunk, the last of a chunk and the first of the next, at two boundaries
DEFECT_LINES = (CHUNK + CHUNK // 2, 2 * CHUNK - 1, 2 * CHUNK,
                3 * CHUNK - 1, 3 * CHUNK)


def long_text(expanded):
    """More than three chunks of term lines: an expanded series on the
    box [0, 30]^2, or a factored one with as many factors."""
    terms = {(i, j): (-1) ** (i + j) * (i + 2 * j + 1)
             for i in range(31) for j in range(31)}
    if expanded:
        return series_to_text(TruncatedSeries(2, 30, terms))
    return series_to_text(FactoredSeries(2, {(i + 1, j): c for (i, j), c
                                             in terms.items()}))


def set_line(text, at, line):
    lines = text.splitlines()
    lines[1 + at] = line
    return "\n".join(lines) + "\n"


def exponent_text(text, at):
    return " ".join(text.splitlines()[1 + at].split()[1:])


def defects(text, at, expanded):
    """(name, text) for each defect placed at term line ``at``."""
    e = exponent_text(text, at)
    first = exponent_text(text, 0)
    out = [("fields", set_line(text, at, f"1 {e} 7")),
           ("integer", set_line(text, at, f"1 {e.split()[0]} x")),
           # the exponent of the first line, in the first chunk
           ("duplicate", set_line(text, at, f"5 {first}"))]
    if expanded:
        out.append(("box", set_line(text, at, "1 3 31")))
        # the exponent of line `at` as a zero line, once in the first
        # chunk and again at `at`
        twice = set_line(set_line(text, 3, f"0 {e}"), at, f"0 {e}")
        out.append(("zero line", twice))
    else:
        out.append(("zero power", set_line(text, at, f"0 {e}")))
    return out


@pytest.mark.parametrize("expanded", [True, False])
def test_defects_at_chunk_boundaries_raise_as_per_line(expanded):
    text = long_text(expanded)
    assert text.count("\n") - 1 > 3 * CHUNK
    assert assert_reads_as_reference(text) == series_from_text(text)
    for at in DEFECT_LINES:
        for name, bad in defects(text, at, expanded):
            got = assert_reads_as_reference(bad)
            assert isinstance(got, str), (name, at)


def test_chunks_of_only_comments_and_blank_lines_are_skipped():
    text = long_text(True)
    lines = text.splitlines()
    filler = ["# comment", "", "  \t "] * CHUNK
    # a whole chunk of filler right after the header, and more at the end
    bent = "\n".join(lines[:1] + filler + lines[1:] + filler) + "\n"
    assert assert_reads_as_reference(bent) == series_from_text(text)


def test_reading_takes_no_more_memory_than_the_per_line_reader():
    # 47^3 = 103,823 term lines, all of coefficient 1
    f = FactoredSeries(3, {(1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1})
    text = series_to_text(expand(f, 46))
    peaks = []
    for reader in (series_from_text, reference_reader):
        tracemalloc.start()
        try:
            s = reader(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(s._terms) == 47 ** 3
        del s
    assert peaks[0] <= peaks[1]


def test_zero_lines_drop_and_duplicates_are_refused():
    text = "vars 1 mode expanded bound 3\n1 0\n0 2\n-4 3\n"
    assert series_from_text(text) == TruncatedSeries(1, 3, {(0,): 1,
                                                            (3,): -4})
    with pytest.raises(SeriesError, match="duplicate"):
        series_from_text("vars 1 mode expanded bound 3\n0 2\n5 2\n")


@pytest.mark.parametrize("m", [(-1,), (6,), (0, 0), ()])
def test_indexing_outside_the_box_is_refused(m):
    # numpy's negative indexing once read (-1,) as the coefficient at 5
    s = expand(FactoredSeries(1, {(1,): -1}), 5)
    assert s[(5,)] == 1
    with pytest.raises(SeriesError, match="outside grid"):
        s[m]


def test_coeffs_is_a_read_only_view():
    s = expand(FactoredSeries(2, {(1, 0): -1}), 3)
    grid = s.coeffs
    assert grid.dtype == np.int64 and grid[3, 0] == 1 and grid.sum() == 4
    with pytest.raises(ValueError):
        grid[0, 1] = 7
    assert s[(0, 1)] == 0 and s.coeffs[0, 1] == 0


def test_coefficients_are_python_ints():
    s = expand(FactoredSeries(1, {(1,): -3}), 40)
    assert isinstance(s[(40,)], int) and not isinstance(s[(40,)], np.integer)
    # binomial(42, 2), large enough to matter if dtype were fixed width
    assert s[(40,)] == 861


# -- int64 storage and promotion -------------------------------------------


def cells(s):
    """All coefficients of a truncated series, as Python ints."""
    return {w: s[w] for w in itertools.product(range(s.bound + 1),
                                               repeat=s.nvars)}


def reference_expand(f, bound):
    """Pure-Python expansion: binomial series of each factor, convolved."""
    grid = list(itertools.product(range(bound + 1), repeat=f.nvars))
    acc = {w: int(not any(w)) for w in grid}
    for m, k in f.items():
        # (1 - t^m)^k = sum_j a_j t^{jm} with a_j = (-1)^j C(k, j) for
        # k > 0 and a_j = C(-k + j - 1, j) for k < 0
        series = {}
        for j in range(bound + 1):
            jm = tuple(j * e for e in m)
            if max(jm) > bound:
                break
            series[jm] = ((-1) ** j * math.comb(k, j) if k > 0
                          else math.comb(-k + j - 1, j))
        acc = {w: sum(c * acc[tuple(a - b for a, b in zip(w, u))]
                      for u, c in series.items()
                      if all(a >= b for a, b in zip(w, u)))
               for w in grid}
    return acc


def reference_text(f, bound):
    acc = reference_expand(f, bound)
    lines = [f"vars {f.nvars} mode expanded bound {bound}"]
    for w in sorted((w for w, c in acc.items() if c), key=glex_key):
        lines.append(" ".join(map(str, (acc[w],) + w)))
    return "\n".join(lines) + "\n"


@pytest.fixture
def no_grid_floor(monkeypatch):
    """Drop the floor on the grid's cost, so that the small boxes of the
    tests of the grid's int64 certificate go to the grid once the support
    passes ``cells // _CELLS_PER_TERM``."""
    monkeypatch.setattr(series_module, "_MIN_GRID_CELLS", 0)


def test_binomial_growth_promotes_to_python_ints():
    # (1 - t)^-40 has coefficients C(n + 39, 39); C(99, 39) > 2^63
    f = FactoredSeries(1, {(1,): -40})
    s = expand(f, 60)
    assert s[(60,)] > 2 ** 63
    assert s.coeffs.dtype == object
    for n in range(61):
        assert s[(n,)] == math.comb(n + 39, 39)
    assert factorize(s) == f


def test_promotion_partway_through_a_product():
    # glex order expands (1 - t2)^-3 first, in int64; (1 - t1)^-40 then
    # reaches C(99, 39) > 2^63 and promotes the buffer
    s = expand(FactoredSeries(2, {(0, 1): -3}), 60)
    assert s.coeffs.dtype == np.int64 and s[(0, 60)] == math.comb(62, 2)
    f = FactoredSeries(2, {(0, 1): -3, (1, 0): -40})
    t = expand(f, 60)
    assert t.coeffs.dtype == object
    want = {(i, j): math.comb(i + 39, 39) * math.comb(j + 2, 2)
            for i in range(61) for j in range(61)}
    assert cells(t) == want
    assert factorize(t) == f
    # the input is left as it was
    assert cells(t) == want


@pytest.mark.parametrize("top", [2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1,
                                 2 ** 63 - 1])
def test_direct_write_near_int64_limit(no_grid_floor, top):
    # a value near the limit must be measured when the support becomes a
    # grid, not assumed small
    s = TruncatedSeries(1, 3, {(0,): 1, (1,): 1, (2,): top, (3,): -top})
    assert s.coeffs.dtype == np.int64
    # peeling (1 - t) first leaves top - 1 at t^2 and -2 * top at t^3
    f = factorize(s)
    assert f.factors() == {(1,): -1, (2,): 1 - top, (3,): 2 * top}
    assert cells(expand(f, 3)) == cells(s)
    u = TruncatedSeries(1, 3, {(0,): top, (1,): -top})
    assert cells(divide_torus(u)) == {(0,): -top, (1,): 0, (2,): 0, (3,): 0}


def test_kernel_certificate_is_tight_at_the_int64_limit():
    # a pass whose certified bound reaches exactly 2^63 promotes first:
    # 2^62 doubled by a shift-add, and 2^61 times sum |(1, -2, 1)| = 4
    kernel = series_module._Kernel(np.array([2 ** 62, 2 ** 62], np.int64))
    kernel.power((1,), -1)
    assert kernel.arr.tolist() == [2 ** 62, 2 ** 63]
    kernel = series_module._Kernel(
        np.array([2 ** 61, -2 ** 61, 2 ** 61], np.int64))
    kernel._binomial((1,), [1, -2, 1])
    assert kernel.arr.tolist() == [2 ** 61, -3 * 2 ** 61, 2 ** 63]


def test_int64_min_is_measured_without_wrapping(no_grid_floor):
    # -2^63 fits int64 but 2^63 does not, so its grid is object; the
    # sign flip of divide_torus negates Python ints
    s = TruncatedSeries(1, 0, {(0,): -2 ** 63})
    assert s.coeffs.dtype == object
    assert divide_torus(s)[(0,)] == 2 ** 63
    s = TruncatedSeries(1, 2, {(0,): -2 ** 63})
    once = divide_torus(s)
    assert cells(once) == {(0,): 2 ** 63, (1,): 2 ** 63, (2,): 2 ** 63}
    assert cells(divide_torus(once)) == {(0,): -2 ** 63, (1,): -2 ** 64,
                                         (2,): -3 * 2 ** 63}
    s = TruncatedSeries(1, 1, {(0,): 1, (1,): -2 ** 63})
    assert factorize(s) == FactoredSeries(1, {(1,): 2 ** 63})


def test_huge_negative_power_is_binomial(no_grid_floor):
    # (1 - t)^(-10^6): C(n + 10^6 - 1, n), far past int64; a million
    # unit-by-unit passes would not finish
    k = 10 ** 6
    s = expand(FactoredSeries(1, {(1,): -k}), 40)
    assert s.coeffs.dtype == object
    for n in range(41):
        assert s[(n,)] == math.comb(n + k - 1, n)
    lines = ["vars 1 mode expanded bound 40"]
    lines += [f"{math.comb(n + k - 1, n)} {n}" for n in range(41)]
    assert series_to_text(s) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("k,dtype", [(10 ** 5, np.int64),
                                     (2 * 10 ** 5, object)])
def test_huge_positive_power_stays_exact(no_grid_floor, k, dtype):
    # sum_{j <= 4} C(k, j) is below 2^63 for k = 10^5 and above it for
    # 2 * 10^5, so the first result is certified in int64 and the second
    # is promoted
    f = FactoredSeries(2, {(2, 0): k})
    s = expand(f, 9)
    assert s.coeffs.dtype == dtype
    assert cells(s) == {(i, j): (math.comb(k, i // 2) * (-1) ** (i // 2)
                                 if i % 2 == 0 and j == 0 else 0)
                        for i in range(10) for j in range(10)}
    # peeling multiplies by (1 - t1^2)^-k, back to the constant 1
    assert factorize(s) == f


@given(factored(2, max_coord=4, max_factors=3), st.integers(0, 8))
def test_expansion_text_matches_pure_python(f, bound):
    assert (series_to_text(expand_both_ways(f, bound))
            == reference_text(f, bound))


@given(st.dictionaries(exponents(1, 3), st.integers(-60, 2), max_size=3),
       st.integers(0, 40))
def test_large_powers_match_pure_python(factors, bound):
    # powers down to -60 push coefficients far past 2^63
    f = FactoredSeries(1, factors)
    s = expand_both_ways(f, bound)
    assert series_to_text(s) == reference_text(f, bound)
    assert series_from_text(series_to_text(s)) == s


# -- grid-size guard --------------------------------------------------------


@pytest.mark.parametrize("nvars,bound", [(30, 5), (2, 4096), (1, MAX_CELLS),
                                         (40, 0), (2, 10 ** 40)])
def test_oversized_grids_are_refused(nvars, bound):
    with pytest.raises(SeriesError, match="cells"):
        TruncatedSeries(nvars, bound, {})
    with pytest.raises(SeriesError, match="cells"):
        expand(FactoredSeries(nvars, {}), bound)
    # refused from the header, before the malformed line is read
    with pytest.raises(SeriesError, match="cells"):
        series_from_text(f"vars {nvars} mode expanded bound {bound}\njunk\n")


def test_largest_used_grid_is_admitted():
    assert MAX_CELLS >= 26 ** 4
    s = expand(FactoredSeries(4, {(1, 1, 1, 1): -1}), 25)
    assert s[(25, 25, 25, 25)] == 1


# -- the sparse kernel and its hand-off to the grid -------------------------


def record_steps(monkeypatch, cells_per_term):
    """Set the hand-off ratio, drop the floor on the grid's cost, and log
    each step of the sparse kernel as (total degree of m, whether it ran
    on the support, terms after it)."""
    monkeypatch.setattr(series_module, "_CELLS_PER_TERM", cells_per_term)
    monkeypatch.setattr(series_module, "_MIN_GRID_CELLS", 0)
    log = []
    power = series_module._Terms.power

    def spy(self, m, k):
        ran = power(self, m, k)
        log.append((sum(m), ran, len(self.terms)))
        return ran

    monkeypatch.setattr(series_module._Terms, "power", spy)
    return log


# a ratio of 0 predicts no cost, so nothing leaves the support; one above
# every cell count sends the first factor that reaches the box to the grid
ALL_SPARSE, ALL_GRID = 0, 2 ** 100

# (nvars, bound) small enough for reference_expand
PATH_GRIDS = ((1, 30), (2, 12), (3, 6), (4, 4))


def random_factored(rng, nvars, bound, count):
    """count factors, exponents inside the grid, powers -3..3."""
    items = {}
    while len(items) < count:
        m = tuple(rng.randint(0, bound) for _ in range(nvars))
        if any(m):
            items[m] = rng.choice((-3, -2, -1, 1, 2, 3))
    return FactoredSeries(nvars, items)


@pytest.mark.parametrize("ratio", [ALL_SPARSE, ALL_GRID])
@pytest.mark.parametrize("nvars,bound", PATH_GRIDS)
def test_each_path_matches_pure_python(monkeypatch, ratio, nvars, bound):
    log = record_steps(monkeypatch, ratio)
    rng = random.Random(f"paths:{nvars}")
    for count in (1, 2, 3, 4, 5):
        f = random_factored(rng, nvars, bound, count)
        log.clear()
        s = expand(f, bound)
        assert series_to_text(s) == reference_text(f, bound)
        assert factorize(s) == f
        ran = [r for _, r, _ in log]
        if ratio == ALL_SPARSE:
            assert all(ran)
        else:
            # a factor's first step always lands in the box here
            assert ran and not ran[0]


@pytest.mark.parametrize("nvars,bound", PATH_GRIDS)
def test_grid_supports_come_in_glex_order(monkeypatch, nvars, bound):
    log = record_steps(monkeypatch, ALL_GRID)
    rng = random.Random(f"glex:{nvars}")
    for count in (1, 3, 5):
        f = random_factored(rng, nvars, bound, count)
        log.clear()
        terms = list(expand(f, bound)._terms)
        # the first factor went to the grid, so the support is the grid's
        assert log and not log[0][1]
        assert len(terms) > 1 and terms == sorted(terms, key=glex_key)


def test_expand_hands_off_partway_through_the_product(monkeypatch):
    f = FactoredSeries(2, {(1, 1): -1, (2, 3): -1, (4, 1): 1, (3, 5): -2})
    log = record_steps(monkeypatch, 2)
    s = expand(f, 12)
    # three factors on the support, the last on the grid
    assert [r for _, r, _ in log] == [True, True, True, False]
    assert series_to_text(s) == reference_text(f, 12)
    assert factorize(s) == f


@pytest.mark.parametrize("ratio,done", [(10, [True, True, False]),
                                        (2, [True, True, True, False])])
def test_factorize_hands_off_partway_through_the_sweep(monkeypatch, ratio,
                                                       done):
    # 1 + t1 + t2 is no finite product: the peels go on through every
    # degree of the box, and the support grows as they do
    s = TruncatedSeries(2, 12, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    log = record_steps(monkeypatch, ALL_SPARSE)
    f = factorize(s)
    assert len(log) == len(f) == 148
    monkeypatch.setattr(series_module, "_CELLS_PER_TERM", ratio)
    log.clear()
    assert factorize(s) == f
    # at ratio 10 the hand-off comes at the first peel of degree 2, after
    # the whole degree-1 batch; at ratio 2 it comes inside the degree-2
    # batch
    assert [r for _, r, _ in log] == done
    assert [d for d, _, _ in log] == [1, 1, 2, 2][:len(done)]
    assert expand(f, 12) == s


@pytest.mark.parametrize("c,dtype", [(2 ** 63 - 1, np.int64),
                                     (2 ** 63, object), (-2 ** 63, object)])
def test_support_becomes_int64_exactly_below_2_63(monkeypatch, c, dtype):
    # (1 - t)^-c = 1 + c t + ... on the grid [0, 1]
    log = record_steps(monkeypatch, ALL_SPARSE)
    f = FactoredSeries(1, {(1,): -c})
    s = expand(f, 1)
    assert log == [(1, True, 2)]
    assert s.coeffs.dtype == dtype
    assert cells(s) == {(0,): 1, (1,): c}
    assert factorize(s) == f


@pytest.mark.parametrize("ratio", [10, series_module._CELLS_PER_TERM])
def test_support_stays_within_its_bound(monkeypatch, ratio):
    # the product fills every cell of the box; a factor runs on the
    # support only if terms * steps <= cells // ratio, so with steps >= 1
    # the support after it holds at most twice that
    f = FactoredSeries(3, {(1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1})
    limit = 61 ** 3 // ratio
    log = record_steps(monkeypatch, ratio)
    s = expand(f, 60)
    assert s.coeffs.min() == s.coeffs.max() == 1
    assert log[-1][1] is False
    assert max(n for _, r, n in log if r) <= 2 * limit
    log.clear()
    assert factorize(s) == f
    # the input fills the box, so its first peel goes to the grid
    assert log == [(1, False, 61 ** 3)]


def test_factors_within_the_grid_floor_stay_on_the_support():
    # one term over `steps` steps of (1 - t)^-1 is predicted at `steps`
    # updates; in a box smaller than the floor, the floor alone decides
    steps = series_module._MIN_GRID_CELLS // series_module._CELLS_PER_TERM
    assert steps + 2 < series_module._MIN_GRID_CELLS
    for bound, stays in ((steps, True), (steps + 1, False)):
        sparse = series_module._Terms({(0,): 1}, 1, bound)
        assert sparse.power((1,), -1) is stays
        assert len(sparse.terms) == (bound + 1 if stays else 1)


# sha256 over the expanded and the factored text of each instance below,
# as written by the kernel that ran every factor and peel on the dense grid
EXPAND_FACTORIZE_DIGEST = (
    "c8b4b49a3cf27eb45570e2a2849b05f3ab1f22919e92dd68765a28fe3152bdb3")


def test_expand_and_factorize_match_pinned_digest():
    # the grids and modes of the dense benchmark: some run wholly on the
    # support, some hand off in expand, some in factorize
    h = hashlib.sha256()
    for r, bound in ((3, 40), (3, 60), (4, 25)):
        for mode in ("divisorial", "curve"):
            for seed in range(5):
                g = random_instance(seed, 30, r, mode)
                s = expand(poincare_series(g, default_spec(g)), bound)
                h.update(series_to_text(s).encode())
                h.update(series_to_text(factorize(s)).encode())
    assert h.hexdigest() == EXPAND_FACTORIZE_DIGEST
