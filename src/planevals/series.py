"""Exact multivariate series arithmetic over the integers.

Two representations are used throughout the package: a factored form
``prod (1 - t^m)^k`` with integer exponent vectors ``m`` and integer powers
``k``, and a truncation to the box ``[0, bound]^nvars`` held as its
support: a dict from packed exponent inside the box to nonzero Python int.

An exponent ``e`` is packed into one integer key with the total degree in
the top field and one biased field per variable (``_Layout``, computed once
per box): integer order is glex order, a step by ``t^m`` is one integer
add, and the box test is one mask.  The key is the one form of a
truncated support, from ``expand`` through the text format to
``factorize``; exponent tuples exist only at the edge, where a caller
builds a ``TruncatedSeries`` from them, indexes it or reads its terms.

Two operations connect the forms: ``expand`` multiplies out a product, and
``factorize`` peels the product back off a unit series.  A third,
``divide_torus``, divides by ``(t_1 ... t_r - 1)``; nothing in the
package calls it any more, but the benchmark's tracer still wraps it.

All three run on one working product, ``_Product``, which starts on the
support.  Multiplying by ``(1 - t^m)^k`` adds ``coef_j * c`` at ``e +
j*m`` for each term ``c * t^e`` and each step ``j`` that stays in the
box, so a factor costs about ``terms * steps`` dict updates.  One rule
decides where the product is held: on the support while that prediction
stays within ``max(cells, _MIN_GRID_CELLS) // _CELLS_PER_TERM``, where
``_CELLS_PER_TERM`` is the measured cost of one dict update in grid
cells of a factor's numpy passes and ``_MIN_GRID_CELLS`` the fixed cost
of a trip through the grid.  The first factor past it and every one
after run as in-place passes on a dense grid (``_Kernel``), into which
the keys are scattered once; the product never goes back.  A peel of
``factorize`` takes at least one step a term, so the rule is also
checked, at one step, before each degree of the support is scanned.
The result is the support, or the grid's nonzero cells packed back into
keys in key order.

On the grid a unit of a pole ``(1 - t^m)^-1`` is one running sum, swept
slab by slab along an axis that ``m`` moves, where the slabs hold at
least ``_MIN_SLAB_CELLS`` cells, and ``log2(bound // max(m))`` doubling
passes otherwise; a pole ``(0, ..., 0, 1)``, whose slabs would be
strided columns, is summed along the rows instead.  A product of a few
binomials with large exponents stays on its few terms; one that fills
the box, as peeling a numerator does, moves to the grid.

One codec per box turns keys into grid indices and back
(``_Layout.columns`` and ``_Layout.keys_of``): in int64 numpy when every
key of the box is below ``2^63``, and in ``object`` arrays of Python
ints otherwise (wide boxes such as 24 variables at bound 1).

numpy is a dependency of this module, but it is imported by the first
grid or the first expanded text of at least ``_TOKEN_LINES`` terms, not
with the module: the closed form, its text and every product that stays
on its support run without it.

The grid exists only inside those passes.  It is scattered into the
narrowest width of the ladder int16, int32, int64 (``_WIDTHS``) that
holds every ``|c|`` of the support, and into a ``dtype=object`` array of
Python ints past ``2^63``.  Each pass runs in its width only when a
bound measured from the array certifies the result below the width's
limit (``2^15``, ``2^31``, ``2^63``); otherwise it promotes the grid
first, to the narrowest wider width that the bound certifies.  No
fixed-width operation runs unchecked, so there is no floating point and
no overflow, and every coefficient handed out is a Python int; the grid
that ``TruncatedSeries.coeffs`` hands out is ``int64`` exactly when every
``|c| < 2^63`` and ``object`` otherwise.  A box may have at most
``MAX_CELLS`` cells; larger ones are refused before any support or grid
is built.

The text format has one line per term, in glex order.  The writer sorts
the keys, which a support read off the grid already holds in order,
unpacks one column per variable (through ``_Layout.columns`` for a
support of at least ``_TOKEN_LINES`` terms whose keys are below
``2^63``, and in Python ints otherwise, where ``object`` columns are
about 10% slower) and fills a repeated row pattern.  The reader has two
paths.  An expanded text of at least ``_TOKEN_LINES`` term lines on such
a box, whose header is its first line, goes to a numpy tokenizer, which
reads it in slices of at most ``_SLICE_LINES`` lines and certifies each
slice on arrays (only digits, spaces, newlines and ``-``; ``nvars + 1``
fields a line of at most 18 digits; the box; no repeated exponent)
before its keys are packed in int64.  Every other text, and every text
with a slice that fails, goes to the per-line reader, which checks each
term line in turn and raises the error of the first bad one in the same
pass.  So every text reads to the same series, and every bad text raises
the same error, on either path.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from operator import index, mul
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SeriesError",
    "MAX_CELLS",
    "glex_key",
    "FactoredSeries",
    "TruncatedSeries",
    "project",
    "expand",
    "factorize",
    "divide_torus",
    "series_to_text",
    "series_from_text",
]

# Largest dense grid, in cells ((bound + 1) ** nvars), that any function
# here allocates: 128 MiB of int64.  Larger requests raise SeriesError.
MAX_CELLS = 2 ** 24
# numpy 1.x allows at most 32 axes; with bound 0 the cell count alone would
# admit any number of them
_MAX_AXES = 32

# int64 holds every |c| < 2^63
_INT64_LIMIT = 2 ** 63
# The fixed widths a grid runs in, narrowest first, each with the limit
# below which it holds every |c|; a grid past the last is object.  A pass
# is bound by memory bandwidth: over 61^3 cells a shift-add by (1, 1, 1)
# took 0.08, 0.16 and 0.37 ms in int16, int32 and int64, and one by
# (1, 0, 0) 0.03, 0.08 and 0.26 ms (x86_64, Python 3.11, numpy 2.4).
_WIDTHS = (("int16", 2 ** 15), ("int32", 2 ** 31), ("int64", _INT64_LIMIT))
# Cost of one dict update of the sparse kernel in grid cells: the
# support goes to the grid once a factor would make more than
# cells // _CELLS_PER_TERM updates.  An update on packed keys (an add, a
# mask, a get and a set) took 0.2 to 0.4 us at r = 1..4 and one cell of
# an int64 shift-add pass 1.8 ns, but a factor on the grid makes several
# passes and copies; on the 120 expand ops of the dense benchmark corpora
# of seeds 7 and 12 (expand, text, read and factorize, interleaved, median
# of 7), the totals were 215, 205, 204, 211 and 237 ms at 25, 50, 100,
# 200 and 400 (x86_64, Python 3.11, numpy 2.4).
_CELLS_PER_TERM = 100
# Fixed cost of a trip through the grid in cells: a factor goes to the
# grid only if its predicted updates pass max(cells, _MIN_GRID_CELLS) //
# _CELLS_PER_TERM, so up to 40 updates always stay on the support.
# Scattering one term, wrapping the kernel and reading the support back
# took 18 to 21 us at r = 1..3, and a pass 5 to 12 us more, against 0.5 to
# 0.9 us per update.  On the 120 small-box expands (r <= 2) of the dense
# benchmark corpora of seeds 7 and 12, per call interleaved, the total
# went from 11.2 to 9.7 ms at 4096, with 2048 to 6144 within noise of it;
# a floor under which whole boxes stay on the support made the r = 1,
# B = 40 expands 1.5 times as slow, as their products fill the box
# (x86_64, Python 3.11, numpy 2.4).
_MIN_GRID_CELLS = 4096
# Fewest cells in a slab of _Kernel._sweep; below it a pole runs as
# doubling passes.  A sweep pass costs about 4 us on top of its cells, so
# thin slabs lose: at r = 1, B = 4096 and m = (1,) a sweep took 18.6 ms
# against 0.16 ms for doubling.  On 1 <= r <= 4 boxes from B = 4 to 4000,
# doubling won below about 300 cells per slab (at r = 2, B = 100 and
# m = (0, 1): 612 against 201 us) and the sweep from about 400 up (at
# r = 3, B = 60 and m = (1, 0, 0): 0.37 against 2.1 ms) (x86_64,
# Python 3.11, numpy 2.4).
_MIN_SLAB_CELLS = 400
# Fewest term lines of an expanded text that series_from_text reads with
# numpy (_read_tokens) rather than line by line (_read_lines);
# series_to_text unpacks a support of at least as many terms with numpy.
# The tokenizer costs about 50 us on top of its lines and the per-line
# reader 1 to 1.3 us a line more: on the first n lines of expanded texts
# at r = 1, 2 and 3 the two tied at n = 44, 36 and 32 to 36 (medians of
# 101 interleaved runs).  The writer's two ways tie at 48 to 56 terms and
# differ by 2 us at 40 (x86_64, Python 3.11, numpy 2.4).
_TOKEN_LINES = 40
# Most lines in one slice of _read_tokens.  A slice costs about 50 us on
# top of its lines, and larger slices fall out of the cache: the three
# long texts of the dense benchmark (2,189, 6,174 and 10,786 lines) read
# in 9.0, 7.8, 6.8, 6.5, 8.4 and 11.2 ms in slices of 256, 512, 1024,
# 2048, 4096 and 8192 lines (medians of 5 interleaved runs), and 1024
# tied 2048 in 15 more while holding half as much (x86_64, Python 3.11,
# numpy 2.4).
_SLICE_LINES = 1024


class SeriesError(ValueError):
    """Raised for malformed series data or unsupported operations."""


def glex_key(m: tuple) -> tuple:
    """Graded lexicographic sort key for an exponent tuple."""
    return (sum(m), m)


def _check_exponent(m, nvars: int) -> tuple:
    m = tuple(map(int, m))
    if len(m) != nvars:
        raise SeriesError(f"exponent {m!r} has wrong arity, expected {nvars}")
    # a zero vector has no negative entry, so the order of the two is free
    if not any(m):
        raise SeriesError("zero exponent vector is not allowed in a factor")
    if min(m) < 0:
        raise SeriesError(f"negative entry in exponent {m!r}")
    return m


def _check_grid(nvars: int, bound: int) -> None:
    """Refuse a grid that is malformed or larger than ``MAX_CELLS``."""
    if nvars < 1 or bound < 0:
        raise SeriesError("need nvars >= 1 and bound >= 0")
    # the first two tests keep the power small enough to compute
    if (bound >= MAX_CELLS or nvars > _MAX_AXES
            or (bound + 1) ** nvars > MAX_CELLS):
        raise SeriesError(f"grid of {nvars} variables at bound {bound} "
                          f"exceeds the limit of {MAX_CELLS} cells")


class FactoredSeries:
    """A finite product ``prod_m (1 - t^m)^{k_m}`` with integer data.

    Exponent vectors are nonnegative, nonzero integer tuples of length
    ``nvars``; powers ``k_m`` are nonzero integers (zero powers are dropped
    on construction).  Instances are treated as immutable.
    """

    __slots__ = ("nvars", "_factors")

    def __init__(self, nvars: int,
                 factors: Union[Mapping[tuple, int], Iterable] = ()):
        if nvars < 0:
            raise SeriesError("nvars must be nonnegative")
        self.nvars = nvars = int(nvars)
        # the exact type test spares a plain dict the ABC check
        items = (factors.items() if type(factors) is dict
                 or isinstance(factors, Mapping) else factors)
        acc: dict = {}
        for m, k in items:
            m = _check_exponent(m, nvars)
            acc[m] = acc.get(m, 0) + int(k)
        self._factors = {m: k for m, k in acc.items() if k != 0}

    @classmethod
    def _from_valid(cls, nvars: int, factors: dict) -> "FactoredSeries":
        """Wrap ``factors``, whose exponents are already known to be tuples
        of ``nvars`` nonnegative Python ints, not all zero, and whose
        powers Python ints, skipping the per-exponent check; zero powers
        drop.

        Its callers, each with the certificate it relies on:

        - ``project``: the restriction of a valid exponent, refused when
          it is all zero;
        - ``FactoredSeries.with_factor``: the one new exponent goes
          through ``_check_exponent``, the rest are the series' own;
        - ``factorize``: each exponent is a nonzero cell of the box;
        - ``poincare.poincare_series``: each exponent is a column of rows
          that ``multiplicity_matrix`` certified positive;
        - ``reconstruct.BranchData.univariate_series``: each exponent is a
          generator, dead value or top value, all of which the
          ``BranchData`` constructor certified positive ints.
        """
        out = cls.__new__(cls)
        out.nvars = nvars
        out._factors = {m: k for m, k in factors.items() if k}
        return out

    def factors(self) -> dict:
        """Factor dictionary, exponent tuple -> nonzero power (a copy)."""
        return dict(self._factors)

    def items(self) -> Iterator:
        return iter(sorted(self._factors.items(),
                           key=lambda mk: glex_key(mk[0])))

    def __len__(self) -> int:
        return len(self._factors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactoredSeries):
            return NotImplemented
        return self.nvars == other.nvars and self._factors == other._factors

    def __hash__(self):
        return hash((self.nvars, frozenset(self._factors.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{m}: {k}" for m, k in self.items())
        return f"FactoredSeries({self.nvars}, {{{body}}})"

    def with_factor(self, m, delta: int) -> "FactoredSeries":
        """New series with ``delta`` added to the power at exponent ``m``."""
        # both are converted before m is checked, as the constructor did,
        # so the same argument is refused first
        m, delta = tuple(m), int(delta)
        m = _check_exponent(m, self.nvars)
        factors = dict(self._factors)
        factors[m] = factors.get(m, 0) + delta
        return FactoredSeries._from_valid(self.nvars, factors)

    def max_degree(self) -> int:
        """Largest coordinate appearing in any exponent (0 if no factors)."""
        return max((e for m in self._factors for e in m), default=0)


def _views(shape, m):
    # dst picks indices >= m, src the matching block at the low corner;
    # an exponent past the grid edge leaves both views empty
    src = tuple(slice(0, max(0, shape[i] - m[i])) for i in range(len(shape)))
    dst = tuple(slice(m[i], None) for i in range(len(shape)))
    return src, dst


def _magnitude(arr: np.ndarray) -> int:
    """``max |c|`` over the array, as a Python int.

    Taken from ``max`` and ``min``, never from ``abs``: ``abs`` maps
    ``INT64_MIN`` to itself.
    """
    return max(int(arr.max()), -int(arr.min()))


def _width(top: int) -> tuple:
    """``(dtype, limit)`` of the narrowest width of ``_WIDTHS`` that holds
    every ``|c| <= top``, and ``(object, None)`` if none does."""
    for dtype, limit in _WIDTHS:
        if top < limit:
            return dtype, limit
    return object, None


def _coefs(k: int, n: int) -> list:
    """Coefficients of ``(1 - x)^k`` up to ``x^n``, as Python ints."""
    coefs = [1]
    for j in range(1, n + 1):
        coefs.append(-coefs[-1] * (k - j + 1) // j)
    return coefs


class _Layout:
    """The packed keys of the box ``[0, bound]^nvars``.

    Each exponent ``e`` becomes the integer key ``deg(e) * 2^(nvars*w) +
    sum_i (e_i + o) * 2^((nvars-1-i)*w)``, with fields of ``w =
    (2*bound).bit_length() + 1`` bits and the bias ``o = 2^(w-1) - 1 -
    bound``.  Multiplying by ``t^m`` adds the key of ``m`` without its
    bias, and as every field then holds at most ``2*bound + o < 2^w`` no
    field carries into the next; ``e_i <= bound`` exactly when the top bit
    of field ``i`` is clear, so one mask tests the box; and integer order
    is glex order.  ``int64`` tells whether every key of the box is below
    ``2^63``, which decides once per box how ``columns`` and ``keys_of``
    convert keys to grid indices and back.  Instances are shared between
    callers (``_layout``) and never change.
    """

    __slots__ = ("nvars", "bound", "cells", "shifts", "weights", "bias",
                 "high", "mask", "unit", "int64")

    def __init__(self, nvars: int, bound: int):
        self.nvars = nvars
        self.bound = bound
        self.cells = (bound + 1) ** nvars
        w = (2 * bound).bit_length() + 1
        self.shifts = tuple((nvars - 1 - i) * w for i in range(nvars))
        # one unit of degree, and a one in every field
        self.unit = 1 << (nvars * w)
        ones = sum(1 << s for s in self.shifts)
        # the key of e without its bias is sum_i e_i * weights[i]
        self.weights = tuple(self.unit + (1 << s) for s in self.shifts)
        self.bias = ((1 << (w - 1)) - 1 - bound) * ones
        self.high = (1 << (w - 1)) * ones
        self.mask = (1 << w) - 1
        # the largest key is that of (bound, ..., bound)
        self.int64 = self.bias + bound * sum(self.weights) < _INT64_LIMIT

    def key(self, m) -> int:
        """The key of the exponent ``m``; SeriesError if it is not in the
        box."""
        try:
            m = tuple(m)
            entries = list(map(index, m))
        except TypeError:
            # 5 is no exponent, and 1.0 or "1" no entry of the box either
            entries = None
        if (entries is None or len(entries) != self.nvars
                or not all(0 <= e <= self.bound for e in entries)):
            raise SeriesError(f"exponent {m} outside grid "
                              f"[0, {self.bound}]^{self.nvars}")
        return sum(map(mul, entries, self.weights)) + self.bias

    def unpack(self, keys: list) -> list:
        """One list per variable of the entries of the exponents of
        ``keys``."""
        bias, mask = self.bias, self.mask
        keys = [key - bias for key in keys]
        return [[(key >> s) & mask for key in keys] for s in self.shifts]

    def columns(self, keys: Iterable, count: int) -> tuple:
        """One int64 array per variable of the entries of the exponents
        of the ``count`` keys ``keys``: their indices in the grid.

        The keys are read into int64 when every key of the box is below
        ``2^63`` (``int64``), and into an ``object`` array of Python ints
        otherwise.
        """
        import numpy as np

        flat = np.fromiter(keys, np.int64 if self.int64 else object, count)
        flat -= self.bias
        return tuple(((flat >> s) & self.mask).astype(np.int64, copy=False)
                     for s in self.shifts)

    def keys_of(self, cols: list) -> list:
        """The keys, as Python ints, of the exponents whose ``i``-th
        entries are the int64 array ``cols[i]``: the inverse of
        ``columns``, summed in int64 or in Python ints as it reads."""
        dtype = "int64" if self.int64 else object
        keys = sum(col.astype(dtype, copy=False) * weight
                   for col, weight in zip(cols, self.weights))
        return (keys + self.bias).tolist()


# a process sees a few boxes, each many times
_layout = lru_cache(maxsize=64)(_Layout)


def _grid(keys: dict, layout: _Layout, floor: int = 0) -> np.ndarray:
    """Scatter a support into a new dense grid, in the narrowest width
    (``_width``) that holds every ``|c| <= max(max |c|, floor)``.

    ``floor = 2^31`` gives the grid of ``TruncatedSeries.coeffs``,
    ``int64`` exactly when every ``|c| < 2^63`` and ``object`` otherwise.
    """
    import numpy as np

    values = list(keys.values())
    top = max(map(abs, values), default=0)
    arr = np.zeros((layout.bound + 1,) * layout.nvars,
                   dtype=_width(max(top, floor))[0])
    if values:
        arr[layout.columns(keys, len(values))] = values
    return arr


def _support(arr: np.ndarray) -> dict:
    """The nonzero cells of a grid as a support, key -> Python int, in
    key order, which ``series_to_text`` then sorts as one presorted run.

    Row-major order is lex order, so a stable sort of the cells on their
    degree alone gives glex order, which is key order.
    """
    layout = _layout(arr.ndim, arr.shape[0] - 1)
    idx, coords = _nonzero_cells(arr)
    order = sum(coords).argsort(kind="stable")
    keys = layout.keys_of([ax[order] for ax in coords])
    return dict(zip(keys, arr.reshape(-1)[idx[order]].tolist()))


def _nonzero_cells(arr: np.ndarray) -> tuple:
    """Flat indices and exponents (one index array per axis) of the
    nonzero cells, in row-major order, which is lex order.

    Taken from a boolean mask: numpy finds the nonzero entries of a bool
    array several times faster than those of an int64 one (0.24 against
    1.6 ms on a mostly empty 26^4 grid).
    """
    import numpy as np

    idx = np.flatnonzero(arr.reshape(-1) != 0)
    return idx, np.unravel_index(idx, arr.shape)


class _Kernel:
    """Shift-add passes in place on one coefficient buffer.

    While the buffer has a fixed width of ``_WIDTHS`` (int16, int32 or
    int64), ``limit`` is that width's limit and ``mag`` a certified upper
    bound on its ``max |c|``, measured from the buffer itself on entry;
    an ``object`` buffer has neither.  A pass adds or subtracts a shifted
    copy of the buffer, so it at most doubles ``max |c|``; a sweep or a
    binomial multiplies it by at most a factor known beforehand.  Before
    a step the bound could not certify below ``limit``, the buffer is
    measured again, and if its values really are that large it is
    promoted to the narrowest wider width that certifies the step,
    ``object`` past int64; ``arr`` may therefore be replaced by a new
    array.  A buffer never narrows.
    """

    __slots__ = ("arr", "mag", "limit")

    def __init__(self, arr: np.ndarray):
        self.arr = arr
        self.limit = dict(_WIDTHS).get(arr.dtype.name)
        self.mag = None if self.limit is None else _magnitude(arr)

    def _grow(self, factor: int) -> None:
        """Certify a pass that multiplies ``max |c|`` by at most
        ``factor``: if ``mag * factor`` is not below ``limit``, measure
        the buffer again, and if it still is not, promote the buffer to
        the narrowest width that holds ``mag * factor``."""
        if self.limit is None:
            return
        if self.mag * factor >= self.limit:
            self.mag = _magnitude(self.arr)
            if self.mag * factor >= self.limit:
                dtype, self.limit = _width(self.mag * factor)
                self.arr = self.arr.astype(dtype)
        self.mag = None if self.limit is None else self.mag * factor

    def _shift_add(self, m, sign: int) -> None:
        self._grow(2)
        src, dst = _views(self.arr.shape, m)
        if sign > 0:
            self.arr[dst] += self.arr[src]
        else:
            self.arr[dst] -= self.arr[src]

    def _binomial(self, m, coefs) -> None:
        """Multiply by ``sum_j coefs[j] * t^{jm}`` (``coefs[0] == 1``),
        one scaled pass per term, each from a copy of the buffer.

        The result is at most ``sum_j |coefs[j]|`` times the old
        ``max |c|``, and so is every partial sum and every scaled term;
        unless the buffer is zero, so is every ``|coefs[j]|``, which
        numpy must hold in the buffer's width to scale by it.
        """
        self._grow(sum(abs(c) for c in coefs))
        if self.mag == 0:
            return
        orig = self.arr.copy()
        for j, c in enumerate(coefs):
            if j and c:
                src, dst = _views(self.arr.shape, tuple(j * e for e in m))
                self.arr[dst] += c * orig[src]

    def _sweep(self, m, reach: int) -> None:
        """Multiply by ``1/(1 - t^m)`` as the running sum ``out[x] = in[x]
        + out[x - m]``, in one ascending sweep over the slabs of width
        ``m_a`` along the first axis ``a`` that ``m`` moves.

        Slab ``i`` adds slab ``i - 1``, already final, shifted by ``m``,
        so no pass reads what it writes.  Each cell ends as a sum of at
        most ``reach + 1`` old cells, and every partial sum is one too.
        If ``m`` is ``(0, ..., 0, 1)``, the slabs are single strided
        columns, and the same sums run as one ``np.add.accumulate`` along
        the rows instead, into the buffer itself: without ``out`` numpy
        would accumulate int16 and int32 into a new int64 array.
        """
        import numpy as np

        self._grow(reach + 1)
        arr = self.arr
        n = arr.shape[0]
        a = next(i for i, e in enumerate(m) if e)
        width = m[a]
        if a == arr.ndim - 1 and width == 1:
            np.add.accumulate(arr, axis=-1, out=arr)
            return
        src, dst = _views(arr.shape, m)
        for lo in range(width, n, width):
            hi = min(lo + width, n)
            arr[dst[:a] + (slice(lo, hi),) + dst[a + 1:]] += arr[
                src[:a] + (slice(lo - width, hi - width),) + src[a + 1:]]

    def power(self, m, k: int) -> None:
        """Multiply by ``(1 - t^m)^k`` for any integer ``k``.

        Two schedules.  Unit by unit, a positive power subtracts one
        shifted copy per unit, and a negative power multiplies by
        ``1/(1 - t^m) = sum_j t^{jm}`` once per unit: by one sweep of
        ``_sweep`` when its slabs hold at least ``_MIN_SLAB_CELLS`` cells,
        and otherwise by the doubling trick, where adding a copy of the
        partial sum shifted by ``2^i * m`` doubles the number of geometric
        terms accumulated, so a unit takes O(log bound) passes.
        Binomially, only the terms ``j <= bound // max(m)`` of ``sum_j
        binom(k, j) (-t^m)^j`` reach the grid, so that many scaled passes
        do any ``k``, however large; they read from a copy of the whole
        grid, so this schedule runs only where it takes at most half the
        passes of the other.
        """
        n = self.arr.shape[0]
        bound = n - 1
        top = max(m)
        if top > bound or k == 0:
            return
        reach = bound // top
        a = next(i for i, e in enumerate(m) if e)
        slab = m[a] * prod(n - e for i, e in enumerate(m) if i != a)
        sweep = k < 0 and slab >= _MIN_SLAB_CELLS
        unit = 1 if k > 0 or sweep else reach.bit_length()
        if 2 * (reach + 1) <= abs(k) * unit:
            self._binomial(m, _coefs(k, reach))
            return
        for _ in range(abs(k)):
            if k > 0:
                self._shift_add(m, -1)
            elif sweep:
                self._sweep(m, reach)
            else:
                step = m
                while all(s <= bound for s in step):
                    self._shift_add(step, 1)
                    step = tuple(2 * s for s in step)


class _Product:
    """The working series of ``expand`` and ``factorize`` on a box: its
    support of packed keys (``keys``) until a factor does not fit there
    (``fits``), then a ``_Kernel`` on the dense grid (``kernel``), which
    it never leaves.  A peel takes at least one step a term, so ``lowest`` sends a
    support past the limit at one step to the grid before scanning it.
    """

    __slots__ = ("keys", "layout", "kernel")

    def __init__(self, keys: dict, layout: _Layout):
        self.keys = keys
        self.layout = layout
        self.kernel = None

    def fits(self, updates: int) -> bool:
        """Whether ``updates`` dict updates stay within ``max(cells,
        _MIN_GRID_CELLS) // _CELLS_PER_TERM``."""
        # for whole numbers, n > cells // C exactly when n * C > cells
        return (updates * _CELLS_PER_TERM
                <= max(self.layout.cells, _MIN_GRID_CELLS))

    def sparse_power(self, m, k: int) -> bool:
        """Multiply the support by ``(1 - t^m)^k``; return False, changing
        nothing, if its predicted updates do not fit (``fits``).

        Only the terms ``j <= bound // max(m)`` (and ``j <= k`` for a
        positive power) of the binomial series can land in the box, and a
        term ``c * t^e`` spreads over the steps that keep ``e + j*m`` in
        it: those before the first that leaves the box.
        """
        layout = self.layout
        bound = layout.bound
        top = max(m)
        if top > bound or k == 0:
            return True
        steps = bound // top if k < 0 else min(bound // top, k)
        keys = self.keys
        if not self.fits(len(keys) * steps):
            return False
        shift = sum(map(mul, m, layout.weights))
        high = layout.high
        coefs = _coefs(k, steps)[1:]
        out = dict(keys)
        get = out.get
        for key, c in keys.items():
            for a in coefs:
                key += shift
                if key & high:
                    break
                out[key] = get(key, 0) + a * c
        self.keys = {key: c for key, c in out.items() if c}
        return True

    def _to_grid(self) -> None:
        self.kernel = _Kernel(_grid(self.keys, self.layout))
        self.keys = None

    def power(self, m, k: int) -> None:
        """Multiply by ``(1 - t^m)^k``."""
        if self.kernel is None:
            if self.sparse_power(m, k):
                return
            self._to_grid()
        self.kernel.power(m, k)

    def lowest(self) -> list:
        """The terms ``(m, c)`` of the lowest total degree above 0.

        On the support that degree is the top field of the least key that
        is not the origin's; the origin alone is below one unit of it.  On
        the grid the origin, whose term no factor changes and which
        ``factorize`` requires to be 1, is the first nonzero cell.
        """
        if self.kernel is None and not self.fits(len(self.keys)):
            self._to_grid()
        if self.kernel is None:
            keys = self.keys
            unit = self.layout.unit
            low = min(filter(unit.__le__, keys), default=0)
            if not low:
                return []
            low -= low % unit
            batch = [key for key in keys if low <= key < low + unit]
            return list(zip(zip(*self.layout.unpack(batch)),
                            map(keys.__getitem__, batch)))
        arr = self.kernel.arr
        idx, coords = _nonzero_cells(arr)
        if idx.size == 1:
            return []
        deg = sum(coords)
        batch = deg == deg[1:].min()
        return list(zip(zip(*(ax[batch].tolist() for ax in coords)),
                        arr.reshape(-1)[idx[batch]].tolist()))

    def support(self) -> dict:
        """The support, in key order if read off the grid."""
        return self.keys if self.kernel is None else _support(self.kernel.arr)


class TruncatedSeries:
    """Series truncated to the box ``[0, bound]^nvars``, held as its support.

    ``terms`` maps exponent tuples inside the box to integers; each
    exponent is checked and packed into its key, and an exponent of the
    wrong arity or outside the box raises ``SeriesError``.  Each
    coefficient is taken through ``operator.index``, so a numpy integer
    is stored as a Python int and anything that is no integer raises
    ``SeriesError``; zero coefficients are dropped.  Instances
    are treated as immutable.  Indexing and ``nonzero_terms`` return
    Python ints.  ``coeffs`` builds a read-only dense grid of the
    coefficients, ``int64`` exactly when every ``|c| < 2^63`` and
    ``object`` otherwise; it is kept for the benchmark, which compares
    grids.
    """

    __slots__ = ("nvars", "bound", "_layout", "_keys")

    def __init__(self, nvars: int, bound: int, terms: Mapping):
        _check_grid(nvars, bound)
        self.nvars = nvars
        self.bound = bound
        self._layout = _layout(nvars, bound)
        key = self._layout.key
        keys = {key(m): c for m, c in terms.items()}
        try:
            coefs = list(map(index, keys.values()))
        except TypeError as exc:
            raise SeriesError(f"coefficient is not an integer: {exc}") from exc
        self._keys = {k: c for k, c in zip(keys, coefs) if c}

    @classmethod
    def _from_keys(cls, nvars: int, bound: int,
                   keys: dict) -> "TruncatedSeries":
        """Wrap a support of keys of the box, made by this module."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.bound = bound
        out._layout = _layout(nvars, bound)
        out._keys = keys
        return out

    @property
    def coeffs(self) -> np.ndarray:
        """A new read-only dense grid of the coefficients."""
        arr = _grid(self._keys, self._layout, 2 ** 31)
        arr.flags.writeable = False
        return arr

    def __getitem__(self, m) -> int:
        return self._keys.get(self._layout.key(m), 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.nvars == other.nvars and self.bound == other.bound
                and self._keys == other._keys)

    def __repr__(self) -> str:
        terms = list(self.nonzero_terms())
        shown = ", ".join(f"{m}: {c}" for m, c in terms[:6])
        more = "" if len(terms) <= 6 else f", ... {len(terms)} terms"
        return (f"TruncatedSeries(nvars={self.nvars}, bound={self.bound}, "
                f"{{{shown}{more}}})")

    def nonzero_terms(self) -> Iterator:
        """Yield ``(exponent, coefficient)`` in glex order."""
        keys = sorted(self._keys)
        return zip(zip(*self._layout.unpack(keys)),
                   map(self._keys.__getitem__, keys))


def project(f: FactoredSeries, keep) -> FactoredSeries:
    """Substitute 1 for every variable outside ``keep`` (1-based indices).

    Exponent vectors are restricted to the kept coordinates in ascending
    index order; equal restrictions merge and cancelling powers drop.  A
    factor whose restriction is all-zero would degenerate and is rejected.
    """
    keep = sorted(set(map(int, keep)))
    if not keep:
        raise SeriesError("must keep at least one variable")
    if keep[0] < 1 or keep[-1] > f.nvars:
        raise SeriesError(f"keep indices out of range 1..{f.nvars}")
    idx = [i - 1 for i in keep]
    merged: dict = {}
    for m, k in f._factors.items():
        mm = tuple(map(m.__getitem__, idx))
        if not any(mm):
            bad = min((e for e in f._factors
                       if not any(e[i] for i in idx)), key=glex_key)
            raise SeriesError(f"factor at {bad} degenerates under projection")
        merged[mm] = merged.get(mm, 0) + k
    return FactoredSeries._from_valid(len(keep), merged)


def _multiply(keys: dict, layout: _Layout, factors) -> dict:
    """Support of ``keys`` times the product of the ``(m, k)`` factors
    ``(1 - t^m)^k``, in the order given, on the box.

    Factors run on the support until one would cost more than its limit;
    that one and the rest run on the dense grid (``_Product``).
    """
    product = _Product(keys, layout)
    for m, k in factors:
        product.power(m, k)
    return product.support()


def expand(f: FactoredSeries, bound: int) -> TruncatedSeries:
    """Expansion on ``[0, bound]^nvars``, exact within the box; factors
    run in glex order."""
    _check_grid(f.nvars, bound)
    layout = _layout(f.nvars, bound)
    # the origin's key is the bias
    keys = _multiply({layout.bias: 1}, layout, f.items())
    return TruncatedSeries._from_keys(f.nvars, bound, keys)


def factorize(s: TruncatedSeries) -> FactoredSeries:
    """Write ``s`` as ``prod (1 - t^m)^{k_m}``, exactly on the box.

    Sweeps the total degree upwards.  Once every nonconstant term of
    degree below ``d`` is cleared, each remaining term ``c * t^m`` of
    degree ``d`` is accounted for by the factor ``(1 - t^m)^{-c}``, and
    multiplying by ``(1 - t^m)^c`` clears it while changing only cells
    of degree above ``d``; so all terms of degree ``d`` are peeled in
    one batch.  Requires constant term 1.  Factors supported beyond
    the box are invisible; the result reproduces the input exactly
    within the bound.

    Peels run on the support of ``s`` until one would cost more than its
    limit, or until the support is past it at one step a term; from there
    the sweep goes on over the dense grid (``_Product``).
    """
    if s._keys.get(s._layout.bias) != 1:
        raise SeriesError("factorization needs constant term 1")
    factors: dict = {}
    product = _Product(s._keys, s._layout)
    # peels of one degree change only higher degrees, so a batch read
    # before them stays valid throughout
    while batch := product.lowest():
        for m, c in batch:
            factors[m] = -c
            product.power(m, c)
    return FactoredSeries._from_valid(s.nvars, factors)


def divide_torus(p_prime: TruncatedSeries) -> TruncatedSeries:
    """Divide by ``(t_1 ... t_r - 1)`` exactly on the box.

    Since ``(t^1 - 1) = -(1 - t^1)``, this is multiplication by
    ``(1 - t^1)^-1`` followed by a sign flip of the Python ints.
    """
    r, bound = p_prime.nvars, p_prime.bound
    keys = _multiply(p_prime._keys, p_prime._layout, [((1,) * r, -1)])
    return TruncatedSeries._from_keys(r, bound,
                                      {key: -c for key, c in keys.items()})


def series_to_text(series: Union[FactoredSeries, TruncatedSeries]) -> str:
    """Render a series in the line-oriented interchange format.

    Header ``vars R mode {factored|expanded} bound B`` (bound 0 for the
    factored form), then one ``k e1 ... eR`` line per term in glex order.
    A factored series' exponents are sorted on (degree, exponent) and
    flattened term by term.  An expanded series' keys are sorted, which
    for a support read off the grid is one presorted run, and unpacked
    one column per variable into the slots of the flattened terms by
    slice assignment.  One ``%`` of a repeated row pattern writes them.
    """
    if isinstance(series, FactoredSeries):
        head = f"vars {series.nvars} mode factored bound 0\n"
        terms = series._factors
        flat = []
        for _, m in sorted(zip(map(sum, terms), terms)):
            flat.append(terms[m])
            flat.extend(m)
    elif isinstance(series, TruncatedSeries):
        head = f"vars {series.nvars} mode expanded bound {series.bound}\n"
        terms = series._keys
        keys = sorted(terms)
        width = series.nvars + 1
        flat = [0] * (len(keys) * width)
        flat[::width] = map(terms.__getitem__, keys)
        layout = series._layout
        if layout.int64 and len(keys) >= _TOKEN_LINES:
            # each column a list only while it is written
            cols = (col.tolist()
                    for col in layout.columns(keys, len(keys)))
        else:
            cols = layout.unpack(keys)
        for i, col in enumerate(cols, 1):
            flat[i::width] = col
    else:
        raise SeriesError(f"not a series: {series!r}")
    row = "%d" + " %d" * series.nvars + "\n"
    return head + row * len(terms) % tuple(flat)


def series_from_text(text: str) -> Union[FactoredSeries, TruncatedSeries]:
    """Parse the format produced by :func:`series_to_text`.

    Blank lines and lines that start with ``#`` are skipped.  An expanded
    series whose header declares a grid above ``MAX_CELLS`` is refused
    before any term line is read.

    An expanded text whose first line is its header, on a box whose keys
    are all below ``2^63``, with at least ``_TOKEN_LINES`` lines after
    the header, goes to a numpy tokenizer (``_read_tokens``), which reads
    it in slices of at most ``_SLICE_LINES`` lines.  It certifies a slice
    only if the slice holds only digits, spaces, newlines and ``-``, and
    every line of it ``nvars + 1`` fields of an optional ``-`` and 1 to 18
    digits, with its exponent in the box and not seen before (on a zero
    line too).

    Every other text, and every text with a slice that the tokenizer does
    not certify, goes to the per-line reader (``_read_lines``).  It checks
    each term line for the field count, integer fields, the box (expanded
    only), a repeated exponent and a zero power (factored only), in that
    order, so the first bad line decides the error.  Either way a text
    reads to the same series or raises the same error.
    """
    end = text.find("\n")
    head = text[:end]
    line = head.strip()
    # the first line is the header when it ends in a newline, it is
    # printable, so that no other line break splits it, and it is neither
    # blank nor a comment
    if end > 0 and head.isprintable() and line[:1] not in ("", "#"):
        nvars, bound, expanded = _read_header(line)
        if expanded:
            keys = _read_tokens(text, end, _layout(nvars, bound))
            if keys is not None:
                return TruncatedSeries._from_keys(nvars, bound, keys)

    lines = text.splitlines()
    lines.reverse()
    line = ""
    while not line or line[0] == "#":
        if not lines:
            raise SeriesError("empty series text")
        line = lines.pop().strip()
    nvars, bound, expanded = _read_header(line)
    layout = _layout(nvars, bound) if expanded else None
    terms = _read_lines(lines, nvars + 1, layout)
    if not expanded:
        return FactoredSeries(nvars, terms)
    return TruncatedSeries._from_keys(nvars, bound, terms)


def _read_header(line: str) -> tuple:
    """``(nvars, bound, expanded)`` of a header line; SeriesError if it is
    malformed, or if it declares an expanded grid above ``MAX_CELLS``."""
    head = line.split()
    if (len(head) != 6 or head[0] != "vars" or head[2] != "mode"
            or head[4] != "bound"):
        raise SeriesError(f"bad header: {line!r}")
    try:
        nvars = int(head[1])
        bound = int(head[5])
    except ValueError as exc:
        raise SeriesError(f"bad header numbers: {line!r}") from exc
    mode = head[3]
    if mode not in ("factored", "expanded"):
        raise SeriesError(f"unknown mode {mode!r}")
    if nvars < 1 or bound < 0:
        raise SeriesError("need vars >= 1 and bound >= 0")
    expanded = mode == "expanded"
    if expanded:
        _check_grid(nvars, bound)
    elif bound != 0:
        raise SeriesError("factored series must declare bound 0")
    return nvars, bound, expanded


def _read_tokens(text: str, start: int,
                 layout: _Layout) -> Union[dict, None]:
    """The support of the term lines that follow the newline at ``start``
    of an expanded text on ``layout``; None if the text is not one the
    tokenizer takes (fewer than ``_TOKEN_LINES`` lines, a box with keys
    past ``2^63``, a character outside ASCII) or a slice of it is not
    certified.

    The text is taken in slices of at most ``_SLICE_LINES`` lines, each
    cut from a window of that many lines of the text's mean length, which
    doubles while no line ends in it; one window at a time is encoded to
    bytes.  A slice is tokenized and checked on arrays: its bytes; its
    fields, the runs of bytes other than space and newline, at ``nvars +
    1`` per line; a ``-`` only at the head of a field; 1 to 18 digits per
    field, so that every value and every partial sum of its digits is
    below ``10^18``; the box.  A field's value is the sum of its digits
    times their powers of ten, and a line's key is its exponents times
    ``_Layout.weights`` plus the bias, all of which the layout certifies
    below ``2^63``.  The keys and coefficients then go into the support
    by one ``dict.update``, a repeated exponent shows as a dict that grew
    by less than the slice, and zero lines are kept until the end, as in
    ``_read_lines``.
    """
    # the newlines after the header's, and one more for a last line
    # without a newline
    lines = text.count("\n", start + 1) + (text[-1] != "\n")
    if lines < _TOKEN_LINES or not layout.int64 or not text.isascii():
        return None
    import numpy as np

    if text[-1] != "\n":
        text += "\n"
    # the bytes of a term line, the digit of a byte, powers of ten
    allowed = np.zeros(256, bool)
    allowed[list(b"0123456789 -\n")] = True
    digit = np.zeros(256, np.int64)
    digit[48:58] = range(10)
    tens = np.array([10 ** i for i in range(19)], np.int64)
    weights = np.array(layout.weights, np.int64)
    width = layout.nvars + 1
    span = (len(text) // lines + 1) * _SLICE_LINES
    terms: dict = {}
    zero = False
    # each slice starts at the newline before its first line
    last = len(text) - 1
    while start < last:
        window = np.frombuffer(text[start:start + span + 1].encode("ascii"),
                               np.uint8)
        ends = np.flatnonzero(window == 10)[1:_SLICE_LINES + 1]
        if not ends.size:
            # no line ends in the window
            span *= 2
            continue
        part = window[:ends[-1] + 1]
        start += int(ends[-1])
        if not allowed[part].all():
            return None
        # fields are the runs of bytes above the space
        inside = part > 32
        edges = np.flatnonzero(inside[1:] != inside[:-1]) + 1
        first, stop = edges[::2], edges[1::2]
        # nvars + 1 fields per line: the last field of each line ends
        # before its newline, and the first of the next starts after it
        if (first.size != ends.size * width
                or (stop[width - 1::width] > ends).any()
                or (first[width::width] < ends[:-1]).any()):
            return None
        sizes = stop - first
        minus = part[first] == 45
        digits = sizes - minus
        if (digits.min() < 1 or digits.max() > 18
                or np.count_nonzero(part == 45) != np.count_nonzero(minus)):
            return None
        # the place of each byte of a field, counted from its last
        tail = np.cumsum(sizes)
        place = np.repeat(tail - 1, sizes)
        place -= np.arange(tail[-1])
        shares = digit[part[inside]]
        shares *= tens[place]
        values = np.add.reduceat(shares, tail - sizes)
        np.negative(values, out=values, where=minus)
        values = values.reshape(-1, width)
        exps = values[:, 1:]
        if exps.min() < 0 or exps.max() > layout.bound:
            return None
        coefs = values[:, 0]
        zero = zero or not coefs.all()
        size = len(terms) + len(coefs)
        terms.update(zip((exps @ weights + layout.bias).tolist(),
                         coefs.tolist()))
        if len(terms) != size:
            return None
    return {m: c for m, c in terms.items() if c} if zero else terms


def _read_lines(lines: list, width: int, layout: Union[_Layout, None]) -> dict:
    """The terms of the reversed term lines ``lines``, popped one at a
    time so that the lines read are freed while the terms grow, keyed by
    packed exponent on the box ``layout`` of an expanded series and by
    exponent tuple for a factored one (``layout`` None).

    Each term line is checked for its field count, integer fields, the
    box (expanded only), an exponent seen before (on a zero line too) and
    a zero power (factored only), in that order, so the first bad line
    raises its error.
    """
    terms: dict = {}
    zero = False
    while lines:
        line = lines.pop()
        toks = line.split()
        if not toks or toks[0][0] == "#":
            continue
        if len(toks) != width:
            raise SeriesError(f"expected {width} fields: {line.strip()!r}")
        try:
            c, *m = map(int, toks)
        except ValueError as exc:
            raise SeriesError(f"non-integer field: {line.strip()!r}") from exc
        m = tuple(m)
        if layout is None:
            key = m
        elif min(m) < 0 or max(m) > layout.bound:
            raise SeriesError(f"exponent {m} outside grid [0, {layout.bound}]")
        else:
            key = sum(map(mul, m, layout.weights)) + layout.bias
        if key in terms:
            raise SeriesError(f"duplicate exponent {m}")
        if not c:
            if layout is None:
                raise SeriesError(f"zero power at {m}")
            zero = True
        terms[key] = c
    return {key: c for key, c in terms.items() if c} if zero else terms
