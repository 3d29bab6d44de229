"""Series arithmetic: factored products, truncated expansions, text format."""

import hashlib
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
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
    assert_reads_as_reference(text)


# term lines of long_text, counted from 0 after the header, far from its
# first line and from its last
DEFECT_LINES = (384, 511, 512, 767, 768)


def long_text(expanded):
    """961 term lines: an expanded series on the box [0, 30]^2, or a
    factored one with as many factors."""
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
           # the exponent of the first line
           ("duplicate", set_line(text, at, f"5 {first}"))]
    if expanded:
        out.append(("box", set_line(text, at, "1 3 31")))
        # the exponent of line `at` as a zero line, once on line 3 and
        # again at `at`
        twice = set_line(set_line(text, 3, f"0 {e}"), at, f"0 {e}")
        out.append(("zero line", twice))
    else:
        out.append(("zero power", set_line(text, at, f"0 {e}")))
    return out


@pytest.mark.parametrize("expanded", [True, False])
def test_defects_deep_in_long_texts_raise_as_per_line(expanded):
    text = long_text(expanded)
    assert assert_reads_as_reference(text) == series_from_text(text)
    for at in DEFECT_LINES:
        for name, bad in defects(text, at, expanded):
            got = assert_reads_as_reference(bad)
            assert isinstance(got, str), (name, at)


@pytest.mark.parametrize("one,zero", [("+1", "-0"), ("01", "00"),
                                      ("0_1", "+0"), ("\u0661", "\u0660")])
def test_entries_in_any_integer_spelling_read_as_per_line(one, zero):
    # int() reads these spellings, and the reader converts each one apart
    # from the plain decimal text of the same entry
    text = long_text(True)
    lines = text.splitlines()
    for at, line in enumerate(lines[1:], 1):
        c, a, b = line.split()
        if (a, b) in (("1", "5"), ("0", "30")):
            lines[at] = " ".join((c, one if a == "1" else zero, b))
    bent = "\n".join(lines) + "\n"
    assert bent != text
    assert assert_reads_as_reference(bent) == series_from_text(text)


def test_runs_of_only_comments_and_blank_lines_are_skipped():
    text = long_text(True)
    lines = text.splitlines()
    filler = ["# comment", "", "  \t "] * 256
    # 768 lines of filler right after the header, and as many at the end
    bent = "\n".join(lines[:1] + filler + lines[1:] + filler) + "\n"
    assert assert_reads_as_reference(bent) == series_from_text(text)


# -- the numpy tokenizer of long expanded texts ----------------------------


def read_each_way(text, lines=1):
    """The outcomes of ``series_from_text`` with the tokenizer taking
    every expanded text of at least ``lines`` term lines, in slices of at
    most that many, and with it taking none, so that the per-line reader
    reads every text; and whether the tokenizer certified the text."""
    certified = []
    tokenize = series_module._read_tokens

    def spy(*args):
        keys = tokenize(*args)
        certified.append(keys is not None)
        return keys

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_read_tokens", spy)
        mp.setattr(series_module, "_TOKEN_LINES", lines)
        mp.setattr(series_module, "_SLICE_LINES", lines)
        tokenized = read_outcome(series_from_text, text)
        mp.setattr(series_module, "_TOKEN_LINES", 2 ** 62)
        per_line = read_outcome(series_from_text, text)
    return tokenized, per_line, True in certified


def assert_readers_agree(text, lines=1):
    """Both readers read ``text`` as the per-line reader does; returns
    whether the tokenizer certified it."""
    tokenized, per_line, certified = read_each_way(text, lines)
    assert tokenized == per_line == read_outcome(reference_reader, text)
    return certified


@given(laid_out_text(), st.integers(1, 3))
def test_tokenizer_reads_as_the_line_reader(text, lines):
    assert_readers_agree(text, lines)


@given(any_series(), st.integers(1, 3))
def test_tokenizer_certifies_written_texts(s, lines):
    text = series_to_text(s)
    certified = assert_readers_agree(text, lines)
    # every text the writer makes is certified when it is expanded, has
    # enough lines, keys below 2^63 and coefficients of at most 18 digits
    assert certified == (isinstance(s, TruncatedSeries)
                         and text.count("\n") - 1 >= lines
                         and max(abs(c) for _, c in s.nonzero_terms())
                         < 10 ** 18)


TWO = "vars 2 mode expanded bound 5\n"
# (term lines, whether the tokenizer certifies them) on the box [0, 5]^2
TOKENIZER_CASES = [
    ("999999999999999999 1 2\n-999999999999999999 2 1\n", True),
    # 19 digits go back to the per-line reader, which reads them
    ("1000000000000000000 1 2\n", False),
    ("-1000000000000000000 1 2\n", False),
    ("7 0 0\n-0 1 1\n007 2 3\n-05 00 5\n", True),
    ("-0 -0 -0\n", True),
    ("1 -\n", False),
    ("- 1 2\n", False),
    ("5-3 1 2\n", False),
    ("--5 1 2\n", False),
    ("5- 1 2\n", False),
    ("1 5 5\n2 0 5\n", True),
    ("1 6 5\n", False),
    ("1 5 -1\n", False),
    ("0 1 2\n5 1 2\n", False),
    ("0 1 2\n0 1 2\n", False),
    ("3 1 2\n4 2 1\n-2 1 2\n", False),
    ("1 2 3", True),
    ("1 2 3\n4 3 2", True),
    # a short line and a long one, as many fields as two good lines, all
    # of them in the box
    ("1 2\n3 4 5 1\n", False),
    ("1 2 3 4\n5 1\n", False),
    ("1 2\n", False),
    ("1 2 3 4\n", False),
    ("1 2 3\n\n4 3 2\n", False),
    ("1  2 3\n 4 3 2 \n", True),
    ("1 2 3\n# note\n", False),
    ("1\t2 3\n", False),
    ("1 2 3\r\n", False),
    ("+1 2 3\n", False),
    ("\u0661 2 3\n", False),
]


@pytest.mark.parametrize("body,certified", TOKENIZER_CASES)
@pytest.mark.parametrize("lines", [1, 2])
def test_tokenizer_hand_cases(body, certified, lines):
    text = TWO + body
    if body.count("\n") + (body[-1] != "\n") < lines:
        certified = False
    assert assert_readers_agree(text, lines) == certified


def test_tokenizer_leaves_keys_past_2_63_to_the_per_line_reader():
    text = series_to_text(expand(FactoredSeries(20, {
        unit(20, i): -1 for i in range(3)}), 1))
    assert not series_module._layout(20, 1).int64
    assert assert_readers_agree(text) is False


def long_tokenized_text():
    """An expanded series on the box [0, 60]^2 with coefficients of up to
    18 digits and both signs: 3,721 term lines."""
    terms = {}
    for i, j in itertools.product(range(61), repeat=2):
        v = (61 * i + j + 1) * 8_765_432_109_876_543 % 10 ** 18 or 1
        terms[(i, j)] = v if (i + j) % 2 else -v
    return series_to_text(TruncatedSeries(2, 60, terms))


def slice_defects(text, at):
    """(name, text) for each defect placed at term line ``at`` of a text
    on the box [0, 60]^2, and for one entry of 19 digits, which the
    tokenizer leaves to the per-line reader."""
    e = exponent_text(text, at)
    a = e.split()[0]
    first = exponent_text(text, 0)
    lines = {"fields": f"1 {e} 7", "short": f"1 {a}",
             "integer": f"1 {a} x", "minus": f"1 {a} 5-3",
             "duplicate": f"5 {first}", "box": f"1 {a} 61",
             "19 digits": f"{10 ** 18} {e}"}
    out = [(name, set_line(text, at, line)) for name, line in lines.items()]
    # the exponent of line `at` as a zero line, once in the first slice
    # and again at `at`
    out.append(("zero line", set_line(set_line(text, 3, f"0 {e}"), at,
                                      f"0 {e}")))
    return out


@pytest.mark.parametrize("lines", [series_module._SLICE_LINES, 1000])
def test_long_texts_read_alike_with_defects_at_slice_ends(lines):
    text = long_tokenized_text()
    assert assert_readers_agree(text, lines)
    count = text.count("\n") - 1
    assert count > 3 * lines
    # at the ends of the unbent text's slices and on its last line
    for at in (lines - 1, lines, 3 * lines, count - 1):
        for name, bad in slice_defects(text, at):
            tokenized, per_line, certified = read_each_way(bad, lines)
            assert tokenized == per_line, (name, at)
            assert isinstance(tokenized, str) == (name != "19 digits")
            assert not certified, (name, at)


def assert_no_more_memory_than_per_line(text):
    """Read ``text`` with both readers, to the same series, and compare
    their peaks of traced memory."""
    peaks, terms = [], []
    for reader in (series_from_text, reference_reader):
        tracemalloc.start()
        try:
            s = reader(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        terms.append(list(s.nonzero_terms()))
        del s
    assert terms[0] == terms[1]
    assert peaks[0] <= peaks[1]
    return terms[0]


def test_reading_takes_no_more_memory_than_the_per_line_reader():
    # 47^3 = 103,823 term lines, all of coefficient 1
    f = FactoredSeries(3, {(1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1})
    terms = assert_no_more_memory_than_per_line(series_to_text(expand(f,
                                                                     46)))
    assert len(terms) == 47 ** 3


def test_blank_lines_at_a_large_bound_take_no_more_memory_than_per_line():
    # a box of 2^20 cells, one term line behind 2^20 blank ones: what the
    # reader keeps beside the lines grows with the terms, not the box
    bound = 2 ** 20 - 1
    text = f"vars 1 mode expanded bound {bound}\n" + "\n" * (bound + 1)
    terms = assert_no_more_memory_than_per_line(text + f"5 {bound}\n")
    assert terms == [((bound,), 5)]


def test_zero_lines_drop_and_duplicates_are_refused():
    text = "vars 1 mode expanded bound 3\n1 0\n0 2\n-4 3\n"
    assert series_from_text(text) == TruncatedSeries(1, 3, {(0,): 1,
                                                            (3,): -4})
    with pytest.raises(SeriesError, match="duplicate"):
        series_from_text("vars 1 mode expanded bound 3\n0 2\n5 2\n")


@pytest.mark.parametrize("m", [(-1,), (6,), (0, 0), (), (1.0,), ("2",),
                               (0.5,), 5, None])
def test_indexing_outside_the_box_is_refused(m):
    # numpy's negative indexing once read (-1,) as the coefficient at 5;
    # a key packs integers only, so 1.0 is refused, where a dict of
    # exponent tuples once matched it to 1; 5 and None, which are no
    # sequence, once escaped as TypeError
    s = expand(FactoredSeries(1, {(1,): -1}), 5)
    assert s[(5,)] == 1
    with pytest.raises(SeriesError, match="outside grid"):
        s[m]


def test_exponents_are_checked_on_construction():
    # the box edge is admitted on either axis, and read back as given
    edge = {(4, 4): 3, (0, 4): -1, (4, 0): 2, (0, 0): 1}
    s = TruncatedSeries(2, 4, edge)
    assert dict(s.nonzero_terms()) == edge and s[(4, 4)] == 3
    assert s[(np.int64(4), np.int64(0))] == 2
    # one past the edge, a negative entry, the wrong arity and an entry
    # that is no integer would each pack into some other cell's key, or
    # into none
    for m in ((5, 0), (0, 5), (5, 5), (-1, 0), (0, -1), (1,), (1, 2, 3),
              (), (1.0, 2.0), (1, "2"), 5, None):
        with pytest.raises(SeriesError, match="outside grid"):
            TruncatedSeries(2, 4, {(0, 0): 1, m: 7})


def test_coefficients_are_checked_on_construction():
    # a zero coefficient drops, so the series factorizes as without it
    # (a kept zero was peeled again and again, and factorize never
    # returned)
    s = TruncatedSeries(1, 3, {(0,): 1, (1,): 0})
    assert s == TruncatedSeries(1, 3, {(0,): 1})
    assert list(s.nonzero_terms()) == [((0,), 1)]
    assert factorize(s) == FactoredSeries(1, {})
    # a numpy integer is stored as a Python int
    c = TruncatedSeries(1, 3, {(0,): 1, (2,): np.int64(-4)})[(2,)]
    assert c == -4 and type(c) is int
    for bad in (2.5, "2"):
        with pytest.raises(SeriesError, match="not an integer"):
            TruncatedSeries(1, 3, {(0,): 1, (1,): bad})


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
    power = series_module._Product.sparse_power

    def spy(self, m, k):
        ran = power(self, m, k)
        log.append((sum(m), ran, len(self.keys)))
        return ran

    monkeypatch.setattr(series_module._Product, "sparse_power", spy)
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
        terms = [m for m, _ in expand(f, bound).nonzero_terms()]
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
                                        (2, [True, True, True, False]),
                                        (30, [True, True])])
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
    # batch; at ratio 30 the 6 terms left after degree 1 are past the
    # limit at one step a term (6 * 30 > 13 ** 2), so they go to the grid
    # before degree 2 is scanned, and no peel fails on the support
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
    # the input fills the box, past the limit at one step a term, so it
    # goes to the grid without trying a peel on the support
    assert log == []


def test_factors_within_the_grid_floor_stay_on_the_support(monkeypatch):
    # one term over `steps` steps of (1 - t)^-1 is predicted at `steps`
    # updates; in a box smaller than the floor, the floor alone decides
    steps = series_module._MIN_GRID_CELLS // series_module._CELLS_PER_TERM
    assert steps + 2 < series_module._MIN_GRID_CELLS
    log = []
    power = series_module._Product.sparse_power

    def spy(self, m, k):
        ran = power(self, m, k)
        log.append((ran, len(self.keys)))
        return ran

    monkeypatch.setattr(series_module._Product, "sparse_power", spy)
    for bound, stays in ((steps, True), (steps + 1, False)):
        log.clear()
        s = expand(FactoredSeries(1, {(1,): -1}), bound)
        # a factor over its limit leaves the support as it was
        assert log == [(stays, bound + 1 if stays else 1)]
        assert len(list(s.nonzero_terms())) == bound + 1


def reference_power(terms, bound, m, k):
    """``terms`` times ``(1 - t^m)^k`` on the box, by the sparse kernel on
    exponent tuples that the packed one replaced."""
    top = max(m)
    if top > bound or k == 0:
        return dict(terms)
    steps = bound // top if k < 0 else min(bound // top, k)
    coefs = [(-1) ** j * math.comb(k, j) if k > 0
             else math.comb(-k + j - 1, j) for j in range(steps + 1)]
    shifts = [tuple(j * e for e in m) for j in range(steps + 1)]
    # room along axis i is (cap_i - e_i) // step_i; an axis that m does
    # not move gets more room than any factor has steps
    caps = tuple(bound if e else bound + steps for e in m)
    step = tuple(e or 1 for e in m)
    out = dict(terms)
    for e, c in terms.items():
        room = min(steps, *((cap - a) // b
                            for cap, a, b in zip(caps, e, step)))
        for j in range(1, room + 1):
            key = tuple(a + b for a, b in zip(e, shifts[j]))
            out[key] = out.get(key, 0) + coefs[j] * c
    return {e: c for e, c in out.items() if c}


@st.composite
def sparse_products(draw):
    """(nvars, bound, support, factors): a support in the box and factors
    whose exponents have zero coordinates often and may pass the box."""
    nvars = draw(st.integers(1, 5))
    bound = draw(st.integers(0, 60))
    coord = st.integers(0, bound)
    # small values, values around 2^63, and values past 2^80
    coef = st.one_of(st.integers(-3, 3), st.integers(2 ** 63 - 2, 2 ** 63 + 2),
                     st.integers(-2 ** 81, 2 ** 81)).filter(bool)
    terms = draw(st.dictionaries(st.tuples(*[coord] * nvars), coef,
                                 max_size=6))
    step = st.one_of(st.just(0), st.integers(1, 3), st.integers(0, bound + 2))
    factors = draw(st.lists(st.tuples(
        st.tuples(*[step] * nvars).filter(any), st.integers(-4, 4)),
        min_size=1, max_size=2))
    return nvars, bound, terms, factors


@given(sparse_products())
# a term at the edge of the box on one axis only, and a step along both
@example((2, 10, {(10, 0): 1, (3, 4): 2 ** 80}, [((1, 1), -3)]))
@example((3, 60, {(0, 0, 0): 2 ** 63 - 1, (0, 60, 2): -1},
          [((0, 0, 1), -2), ((2, 0, 0), 4)]))
def test_packed_kernel_matches_the_tuple_kernel(case):
    nvars, bound, terms, factors = case
    # the boxes pass MAX_CELLS, which the support alone never checks
    layout = series_module._layout(nvars, bound)

    def pack(support):
        return {layout.key(m): c for m, c in support.items()}

    keys = pack(terms)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_CELLS_PER_TERM", ALL_SPARSE)
        sparse = series_module._Product(keys, layout)
        want = terms
        for m, k in factors:
            assert sparse.sparse_power(m, k)
            want = reference_power(want, bound, m, k)
            assert sparse.keys == pack(want)
    # the input is left as it was, and key order is glex order
    assert keys == pack(terms)
    exps = list(zip(*layout.unpack(sorted(sparse.keys))))
    assert exps == sorted(want, key=glex_key)


def test_pole_sweep_certifies_reach_plus_one():
    # a pole of reach 20 along the first axis, on slabs of 21 * 21 cells:
    # one sweep sums 21 cells where doubling certifies 2^5 of them
    assert 21 * 21 >= series_module._MIN_SLAB_CELLS
    below = (2 ** 63 - 1) // 21
    for c, dtype in ((below, np.int64), (below + 1, object)):
        arr = np.full((21, 21, 21), c, np.int64)
        sweep = series_module._Kernel(arr.copy())
        sweep.power((1, 0, 0), -1)
        assert sweep.arr.dtype == dtype
        doubling = series_module._Kernel(arr.copy())
        for i in range(5):
            doubling._shift_add((2 ** i, 0, 0), 1)
        assert doubling.arr.dtype == object
        want = [[[c * (i + 1)] * 21] * 21 for i in range(21)]
        assert sweep.arr.tolist() == doubling.arr.tolist() == want


# poles that leave some axes alone: along the last axis only, by 1 (summed
# along the rows when swept) and by more, along a leading axis only, and
# mixed
ZERO_ENTRY_POLES = ((0, 1), (0, 3), (0, 9), (1, 0), (3, 0), (0, 1, 0),
                    (0, 0, 1), (0, 0, 7), (0, 0, 8), (2, 0, 1), (0, 2, 1))


def cell_support(arr):
    return {tuple(map(int, w)): int(arr[tuple(w)]) for w in np.argwhere(arr)}


@pytest.mark.parametrize("m", ZERO_ENTRY_POLES)
def test_poles_with_zero_entries_agree_on_every_schedule(monkeypatch, m):
    nvars = len(m)
    bound = 30 if nvars == 2 else 12
    rng = np.random.default_rng(list(m))
    start = rng.integers(-9, 10, size=(bound + 1,) * nvars)
    for k in (-1, -2):
        want = reference_power(cell_support(start), bound, m, k)
        # sweeps, and doubling passes
        for cells in (0, 2 ** 30):
            monkeypatch.setattr(series_module, "_MIN_SLAB_CELLS", cells)
            for dtype in (np.int64, object):
                kernel = series_module._Kernel(start.astype(dtype))
                kernel.power(m, k)
                assert kernel.arr.dtype == dtype
                assert cell_support(kernel.arr) == want, (cells, dtype)


@pytest.mark.parametrize("nvars,bound,sweeps", [(1, 60, False),
                                                (3, 60, True)])
def test_poles_sweep_only_on_wide_slabs(monkeypatch, nvars, bound, sweeps):
    calls = []
    for name in ("_sweep", "_shift_add"):
        method = getattr(series_module._Kernel, name)

        def spy(self, m, arg, method=method, name=name):
            calls.append(name)
            return method(self, m, arg)

        monkeypatch.setattr(series_module._Kernel, name, spy)
    # one variable per pole; the product fills the box, so it ends on the
    # grid
    f = FactoredSeries(nvars, {tuple(int(i == j) for j in range(nvars)): -1
                               for i in range(nvars)})
    s = expand(f, bound)
    assert len(list(s.nonzero_terms())) == (bound + 1) ** nvars
    assert calls and set(calls) == {"_sweep" if sweeps else "_shift_add"}


@pytest.mark.parametrize("nvars,bound", PATH_GRIDS)
def test_sparse_supports_come_in_glex_order(monkeypatch, nvars, bound):
    log = record_steps(monkeypatch, ALL_SPARSE)
    rng = random.Random(f"glex:{nvars}")
    for count in (1, 3, 5):
        f = random_factored(rng, nvars, bound, count)
        log.clear()
        terms = [m for m, _ in expand(f, bound).nonzero_terms()]
        # every factor ran on the support, so the support is its own
        assert log and all(ran for _, ran, _ in log)
        assert len(terms) > 1 and terms == sorted(terms, key=glex_key)


# -- the width ladder: int16, int32, int64, object ---------------------------

# each fixed width the grid runs in, its limit, and the next wider width
RUNGS = (("int16", 2 ** 15, "int32"), ("int32", 2 ** 31, "int64"),
         ("int64", 2 ** 63, object))


@pytest.mark.parametrize("dtype,limit,wider", RUNGS)
def test_kernel_certificate_is_tight_at_each_rung(dtype, limit, wider):
    # a pass whose certified bound stays below the limit stays in its
    # width; one whose bound reaches the limit moves up one rung first
    for c, want in ((limit // 2 - 1, dtype), (limit // 2, wider)):
        # a shift-add doubles max |c|
        kernel = series_module._Kernel(np.array([c, c], dtype))
        kernel.power((1,), -1)
        assert kernel.arr.dtype == want
        assert kernel.arr.tolist() == [c, 2 * c]
    for c, want in ((limit // 4 - 1, dtype), (limit // 4, wider)):
        # a binomial multiplies it by sum |(1, -2, 1)| = 4
        kernel = series_module._Kernel(np.array([c, -c, c], dtype))
        kernel._binomial((1,), [1, -2, 1])
        assert kernel.arr.dtype == want
        assert kernel.arr.tolist() == [c, -3 * c, 4 * c]
    # a sweep of reach 20 sums 21 cells, along a leading axis by slabs and
    # along the last one by rows
    assert 21 * 21 >= series_module._MIN_SLAB_CELLS
    below = (limit - 1) // 21
    for c, want in ((below, dtype), (below + 1, wider)):
        sums = [c * (i + 1) for i in range(21)]
        for m, cells in (((1, 0, 0), [[[x] * 21] * 21 for x in sums]),
                         ((0, 0, 1), [[sums] * 21] * 21)):
            kernel = series_module._Kernel(np.full((21, 21, 21), c, dtype))
            kernel.power(m, -1)
            assert kernel.arr.dtype == want
            assert kernel.arr.tolist() == cells


@pytest.mark.parametrize("c,want", [(2 ** 17 - 2, "int32"),
                                    (2 ** 17 - 1, "int64"),
                                    (2 ** 49 - 2, "int64"),
                                    (2 ** 49 - 1, object)])
def test_kernel_skips_a_rung_only_when_its_bound_needs_it(c, want):
    # 2^14 in int16 times sum |(1, c)| = c + 1: the promotion goes to the
    # narrowest width below whose limit (c + 1) * 2^14 stays
    kernel = series_module._Kernel(np.array([2 ** 14, 2 ** 14], "int16"))
    kernel._binomial((1,), [1, c])
    assert kernel.arr.dtype == want
    assert kernel.arr.tolist() == [2 ** 14, (c + 1) * 2 ** 14]


def test_a_loose_bound_is_measured_again_before_a_promotion():
    kernel = series_module._Kernel(np.array([3, -3], "int16"))
    # a bound far above the buffer's values, as a run of passes that
    # cancel leaves it
    kernel.mag = 2 ** 14
    kernel.power((1,), -1)
    assert kernel.arr.dtype == "int16" and kernel.arr.tolist() == [3, 0]
    assert kernel.mag == 6
    # measured at zero, a buffer takes a binomial whose coefficients its
    # width could not hold, and stays zero
    kernel = series_module._Kernel(np.zeros(3, "int16"))
    kernel.mag = 2
    kernel._binomial((1,), [1, 2 ** 20, 2 ** 40])
    assert kernel.arr.dtype == "int16" and kernel.arr.tolist() == [0, 0, 0]


@pytest.mark.parametrize("c,dtype", [(2 ** 15 - 1, "int16"),
                                     (-2 ** 15 + 1, "int16"),
                                     (-2 ** 15, "int32"), (2 ** 15, "int32"),
                                     (2 ** 31 - 1, "int32"),
                                     (-2 ** 31, "int64"),
                                     (2 ** 63 - 1, "int64"),
                                     (-2 ** 63, object)])
def test_grid_takes_the_narrowest_width_and_coeffs_int64(c, dtype):
    s = TruncatedSeries(2, 3, {(0, 0): 1, (2, 1): c})
    arr = series_module._grid(s._keys, s._layout)
    assert arr.dtype == dtype and arr[2, 1] == c
    # the grid handed out keeps its contract
    assert s.coeffs.dtype == (np.int64 if abs(c) < 2 ** 63 else object)
    assert TruncatedSeries(2, 3, {(0, 0): 1}).coeffs.dtype == np.int64


def pinned_to_int64(top):
    """``_width`` with no rung below int64."""
    return ("int64", 2 ** 63) if top < 2 ** 63 else (object, None)


def record_widths(monkeypatch):
    """Log each width the kernel's buffer takes, once per change."""
    seen = []
    grow = series_module._Kernel._grow

    def spy(self, factor):
        grow(self, factor)
        if not seen or seen[-1] != self.arr.dtype:
            seen.append(self.arr.dtype)

    monkeypatch.setattr(series_module._Kernel, "_grow", spy)
    return seen


# a product at r = 3 whose expansion on [0, 60]^3 goes to the grid at
# coefficient 1 and climbs through every width; the command-line smoke
# test runs it too
CLIMBING = FactoredSeries(3, {
    (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1, (1, 1, 0): -12,
    (0, 1, 1): -12, (1, 0, 1): -12, (2, 2, 2): 1})


def test_expand_climbs_every_rung_and_factorizes_back(monkeypatch):
    seen = record_widths(monkeypatch)
    s = expand(CLIMBING, 60)
    assert seen == ["int16", "int32", "int64", object]
    assert factorize(s) == CLIMBING
    monkeypatch.setattr(series_module, "_width", pinned_to_int64)
    seen.clear()
    assert expand(CLIMBING, 60) == s
    assert seen == ["int64", object]


# boxes small enough for many examples, per variable count
LADDER_BOUNDS = {1: 60, 2: 16, 3: 7, 4: 4}


@st.composite
def climbing_products(draw):
    """(f, bound, ratio): products of poles and binomials with powers down
    to -12 on a small box, and the hand-off ratio to run them with."""
    nvars = draw(st.integers(1, 4))
    bound = draw(st.integers(1, LADDER_BOUNDS[nvars]))
    # deep poles climb the ladder, shallow factors mix signs
    power = st.one_of(st.integers(-12, -6), st.integers(-3, 3).filter(bool))
    f = draw(st.dictionaries(exponents(nvars, 2), power,
                             min_size=2, max_size=5))
    ratio = draw(st.sampled_from([ALL_GRID, series_module._CELLS_PER_TERM]))
    return FactoredSeries(nvars, f), bound, ratio


@given(climbing_products())
# past 2^15 and 2^31 on one axis, into int64
@example((FactoredSeries(1, {(1,): -12}), 60, ALL_GRID))
# past 2^31 with two poles of r = 2 and a numerator
@example((FactoredSeries(2, {(1, 0): -7, (0, 1): -7, (1, 1): 2}), 16,
          ALL_GRID))
# into object: C(35, 15)^2 > 2^63
@example((FactoredSeries(2, {(1, 0): -20, (0, 1): -20}), 16, ALL_GRID))
@example((FactoredSeries(3, {(1, 0, 0): -9, (0, 1, 1): -9, (1, 1, 1): -4}),
          7, ALL_GRID))
@example((FactoredSeries(4, {(1, 0, 0, 0): -12, (0, 1, 0, 0): -12,
                             (0, 0, 1, 1): -12, (1, 1, 1, 1): 3}), 4,
          ALL_GRID))
def test_ladder_matches_the_int64_grid(case):
    f, bound, ratio = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series_module, "_MIN_GRID_CELLS", 0)
        mp.setattr(series_module, "_CELLS_PER_TERM", ratio)
        s = expand(f, bound)
        back = factorize(s)
        mp.setattr(series_module, "_width", pinned_to_int64)
        assert expand(f, bound) == s
        assert factorize(s) == back
    assert expand(back, bound) == s


@pytest.mark.parametrize("dtype", ["int16", "int32", "int64", object])
@pytest.mark.parametrize("m", ZERO_ENTRY_POLES)
def test_poles_agree_on_every_schedule_in_each_width(monkeypatch, m, dtype):
    # sweeps (by rows for (0, ..., 0, 1)), doubling passes, unit shift-adds
    # and binomials, each in every width: with entries up to 9 every pass
    # is certified in int16, and scaled to the width's limit the passes
    # climb the ladder
    nvars = len(m)
    bound = 30 if nvars == 2 else 12
    reach = bound // max(m)
    rng = np.random.default_rng(list(m))
    start = rng.integers(-9, 10, size=(bound + 1,) * nvars)
    limit = dict((name, lim) for name, lim, _ in RUNGS).get(dtype, 2 ** 80)
    for scale in (1, limit // 10):
        scaled = start.astype(object) * scale
        for k in (-1, -2, 2):
            want = reference_power(cell_support(scaled), bound, m, k)
            for cells in (0, 2 ** 30):
                monkeypatch.setattr(series_module, "_MIN_SLAB_CELLS", cells)
                kernel = series_module._Kernel(scaled.astype(dtype))
                kernel.power(m, k)
                assert cell_support(kernel.arr) == want, (cells, scale)
                assert scale > 1 or kernel.arr.dtype == dtype
            kernel = series_module._Kernel(scaled.astype(dtype))
            kernel._binomial(m, series_module._coefs(k, reach))
            assert cell_support(kernel.arr) == want, scale
            assert scale > 1 or kernel.arr.dtype == dtype


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


def unit(nvars, i):
    return tuple(int(j == i) for j in range(nvars))


def pinned_cases():
    """(name, series) for the expanded texts pinned below."""
    g = random_instance(1, 12, 3, "divisorial")
    # the command-line smoke test's r = 3 instance at bound 60: 10,853
    # terms, read off the grid
    yield "r3-B60", expand(poincare_series(g, default_spec(g)), 60)
    g = random_instance(7, 12, 4, "divisorial")
    yield "r4-B25", expand(poincare_series(g, default_spec(g)), 25)
    # coefficients up to 2^104, on an object grid
    yield "object", expand(FactoredSeries(2, {(0, 1): -3, (1, 0): -40}), 60)
    # boxes whose packed exponents pass 2^63: one on the support, and one
    # of 32,768 terms read off the grid
    yield "wide-support", expand(FactoredSeries(24, {
        (1,) * 24: -1, (1, 0) * 12: 3, (0, 1) * 12: -2, unit(24, 5): -1}), 1)
    yield "wide-grid", expand(FactoredSeries(20, {unit(20, i): -1
                                                  for i in range(15)}), 1)
    # the same cells with coefficients from 1 to 2^5 * 3^5, so that a key
    # read off the grid with another cell's coefficient shows
    yield "wide-grid-powers", expand(FactoredSeries(20, {
        unit(20, i): -(i % 3 + 1) for i in range(15)}), 1)


# sha256 of the expanded text and of the factored text of each case above
PINNED_TEXT_DIGESTS = {
    "r3-B60": (
        "08ce01a79fa03b86ad55a54796eaa564377472a09a22f47565e192d6a9e25a01",
        "113d9ed396156039208c7ffc827f29102e83d8b93264d0ae81a62adb8f515001"),
    "r4-B25": (
        "32b3119a75a2c3230c5b6f6b7e094cd82e7d5a028bdb1a8a29872ad1dd87ce04",
        "7b8d6af0307dab9975e7b5fa546aca9b0fdf0672ac277a6adb4483c7261f5e83"),
    "object": (
        "c88ffc99f06fc26099b1d9b9faaa13f63442c9ea9e9c6324ea286fcd353cbe45",
        "375af573055cbae821ede53ef68bef0cb60f8b88dea7a793b2ec7443654e7cea"),
    "wide-support": (
        "8dc46110678dff7940dc83107ec88b0c399b1c5be1cdf247945b254e0960ede5",
        "f1737235852f7f24bc99af9426b5224ebf6c5e39307eeeea96d8e8a02db9428b"),
    "wide-grid": (
        "d4c115b71ee170187e89b207acb57886e521c63a7770b1f8fbc5e8fb3440eae1",
        "56ec4185d17452f0befe48a1f8491b894eeb760a2d0e0162741c40bd9d9eebfd"),
    "wide-grid-powers": (
        "edfb80fbcbf6ad51e37cbd3b1643867676bde1c63b4fd0440bbbca857b30c0d5",
        "6935b874e25d4e393d385093b9b1d4d62c0964c453449c01242541e5b7e24f16"),
}


def test_expanded_texts_match_pinned_digests():
    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    for name, s in pinned_cases():
        expanded, factored = PINNED_TEXT_DIGESTS[name]
        text = series_to_text(s)
        # checked before factorize, which a wrong support can keep busy
        assert digest(text) == expanded, name
        assert series_from_text(text) == s
        assert digest(series_to_text(factorize(s))) == factored, name
