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

All three run on the support.  Multiplying by ``(1 - t^m)^k`` adds
``coef_j * c`` at ``e + j*m`` for each term ``c * t^e`` and each step
``j`` that stays in the box, so a factor costs about ``terms * steps``
dict updates (``_Terms``).  Before each factor (each peel, in
``factorize``) the prediction is compared with ``max(cells,
_MIN_GRID_CELLS) // _CELLS_PER_TERM``, where ``_CELLS_PER_TERM`` is the
measured cost of one dict update in grid cells of a factor's numpy passes
and ``_MIN_GRID_CELLS`` the fixed cost of a trip through the grid.  Once
the prediction passes that limit, the keys are scattered into a dense grid
once and the rest runs as in-place passes on it, whose nonzero cells are
packed back into keys, in key order.  Keys are unpacked to grid indices
and packed from them in int64 numpy when every key of the box is below
``2^63``, and in Python ints otherwise (wide boxes such as 24 variables at
bound 1).  A unit of a pole ``(1 - t^m)^-1`` is one running sum, swept
slab by slab along an axis that ``m`` moves, where the slabs hold at least
``_MIN_SLAB_CELLS`` cells, and ``log2(bound // max(m))`` doubling passes
otherwise; a pole ``(0, ..., 0, 1)``, whose slabs would be strided
columns, is summed along the rows instead.  A product of a few binomials with large exponents stays on its
few terms; one that fills the box, as peeling a numerator does, moves to
the grid.

numpy is a dependency of this module, but it is imported by the first
grid, not with the module: the closed form, its text and every product
that stays on its support run without it.

The grid exists only inside those passes.  It is ``int64`` exactly when
every ``|c| < 2^63`` and a ``dtype=object`` array of Python ints
otherwise; each pass runs in ``int64`` only when a bound measured from
the array certifies the result below ``2^63``, and promotes to
``object`` first otherwise.  No fixed-width operation runs unchecked, so
there is no floating point and no overflow, and every coefficient handed
out is a Python int.  A box may have at most ``MAX_CELLS`` cells; larger
ones are refused before any support or grid is built.

The text format has one line per term, in glex order.  The writer sorts
the keys, which a support read off the grid already holds in order,
unpacks one column per variable and fills a repeated row pattern.  The
reader splits and converts the term lines in chunks of at most
``_CHUNK_LINES`` lines, checks each chunk by columns and reads an
expanded series' exponents straight into keys, converting each distinct
token of a column once; only when a chunk fails a check does it read
the text again one line at a time, to name the first bad line.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat
from math import prod
from operator import add, index, mul
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
# Most term lines that series_from_text splits and converts at once: a
# chunk's tokens and ints are held beside the terms, so this bounds the
# memory the reader needs past the text and the terms.
_CHUNK_LINES = 256


class SeriesError(ValueError):
    """Raised for malformed series data or unsupported operations."""


def glex_key(m: tuple) -> tuple:
    """Graded lexicographic sort key for an exponent tuple."""
    return (sum(m), m)


def _check_exponent(m, nvars: int) -> tuple:
    m = tuple(int(e) for e in m)
    if len(m) != nvars:
        raise SeriesError(f"exponent {m!r} has wrong arity, expected {nvars}")
    if any(e < 0 for e in m):
        raise SeriesError(f"negative entry in exponent {m!r}")
    if not any(m):
        raise SeriesError("zero exponent vector is not allowed in a factor")
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
        self.nvars = int(nvars)
        items = factors.items() if isinstance(factors, Mapping) else factors
        acc: dict = {}
        for m, k in items:
            m = _check_exponent(m, self.nvars)
            k = int(k)
            acc[m] = acc.get(m, 0) + k
        self._factors = {m: k for m, k in acc.items() if k != 0}

    @classmethod
    def _from_valid(cls, nvars: int, factors: dict) -> "FactoredSeries":
        """Wrap exponents already known valid for ``nvars``, skipping the
        per-exponent check; zero powers drop."""
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
        items = list(self._factors.items()) + [(tuple(m), int(delta))]
        return FactoredSeries(self.nvars, items)

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
    ``2^63``, so that numpy can pack and unpack them.  Instances are
    shared between callers (``_layout``) and never change.
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
        m = tuple(m)
        try:
            entries = list(map(index, m))
        except TypeError:
            # 1.0 or "1" is no entry of the box either
            entries = None
        if (entries is None or len(entries) != self.nvars
                or not all(0 <= e <= self.bound for e in entries)):
            raise SeriesError(f"exponent {m} outside grid "
                              f"[0, {self.bound}]^{self.nvars}")
        return sum(map(mul, entries, self.weights)) + self.bias

    def pack(self, cols: list) -> list:
        """The keys of the exponents whose ``i``-th entries are
        ``cols[i]``, entries known to be in the box."""
        acc = map(mul, cols[0], repeat(self.weights[0]))
        for col, weight in zip(cols[1:], self.weights[1:]):
            acc = map(add, acc, map(mul, col, repeat(weight)))
        return list(map(add, acc, repeat(self.bias)))

    def read(self, cols: list) -> Union[list, None]:
        """The keys of the exponents whose ``i``-th entries are the
        tokens ``cols[i]``, or None if a token is not an integer in the
        box.

        Each distinct token of a column is converted and checked once,
        into a table of its share of a key that the column then looks
        up; the tables are as large as ``cols`` at most, and go with it.
        """
        # the bias rides on the first variable's share
        offsets = [self.bias] + [0] * (self.nvars - 1)
        acc = None
        try:
            for col, weight, offset in zip(cols, self.weights, offsets):
                tokens = set(col)
                entries = list(map(int, tokens))
                if min(entries) < 0 or max(entries) > self.bound:
                    return None
                table = dict(zip(tokens, [e * weight + offset
                                          for e in entries]))
                shares = map(table.__getitem__, col)
                acc = shares if acc is None else map(add, acc, shares)
        except ValueError:
            return None
        return list(acc)

    def unpack(self, keys: list) -> list:
        """One list per variable of the entries of the exponents of
        ``keys``."""
        bias, mask = self.bias, self.mask
        keys = [key - bias for key in keys]
        return [[(key >> s) & mask for key in keys] for s in self.shifts]


# a process sees a few boxes, each many times
_layout = lru_cache(maxsize=64)(_Layout)


def _grid(keys: dict, layout: _Layout) -> np.ndarray:
    """Scatter a support into a new dense grid, ``int64`` exactly when
    every ``|c| < 2^63``."""
    import numpy as np

    values = list(keys.values())
    top = max(map(abs, values), default=0)
    arr = np.zeros((layout.bound + 1,) * layout.nvars,
                   dtype=np.int64 if top < _INT64_LIMIT else object)
    if not values:
        return arr
    if layout.int64:
        flat = np.fromiter(keys, np.int64, len(values)) - layout.bias
        at = tuple((flat >> s) & layout.mask for s in layout.shifts)
    else:
        at = tuple(np.array(col, np.int64)
                   for col in layout.unpack(list(keys)))
    arr[at] = values
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
    if layout.int64:
        keys = sum(ax[order] * weight
                   for ax, weight in zip(coords, layout.weights))
        keys = (keys + layout.bias).tolist()
    else:
        keys = layout.pack([ax[order].tolist() for ax in coords])
    return dict(zip(keys, arr.reshape(-1)[idx[order]].tolist()))


class _Terms:
    """Sparse truncated series on a box, as its support of packed keys.

    ``power`` multiplies only while the predicted number of dict updates
    stays within ``max(cells, _MIN_GRID_CELLS) // _CELLS_PER_TERM``; past
    it the caller scatters ``keys`` into the grid and goes on there.
    """

    __slots__ = ("keys", "layout")

    def __init__(self, keys: dict, layout: _Layout):
        self.keys = keys
        self.layout = layout

    def lowest(self) -> list:
        """The terms ``(m, c)`` of the lowest nonzero total degree.

        That degree is the top field of the least key that is not the
        origin's; the origin alone is below one unit of it.
        """
        keys = self.keys
        unit = self.layout.unit
        low = min(filter(unit.__le__, keys), default=0)
        if not low:
            return []
        low -= low % unit
        batch = [key for key in keys if low <= key < low + unit]
        return list(zip(zip(*self.layout.unpack(batch)),
                        map(keys.__getitem__, batch)))

    def power(self, m, k: int) -> bool:
        """Multiply by ``(1 - t^m)^k``; return False, changing nothing,
        if that would take more than ``max(cells, _MIN_GRID_CELLS) //
        _CELLS_PER_TERM`` updates.

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
        # for whole numbers, n > cells // C exactly when n * C > cells
        if (len(keys) * steps * _CELLS_PER_TERM
                > max(layout.cells, _MIN_GRID_CELLS)):
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

    While the buffer is int64, ``mag`` is a certified upper bound on its
    ``max |c|``, measured from the buffer itself on entry.  A pass adds or
    subtracts a shifted copy of the buffer, so it at most doubles
    ``max |c|``; a sweep or a binomial multiplies it by at most a factor
    known beforehand.  Before a step the bound could not certify, the
    buffer is measured again, and if its values really are that large it
    is promoted to ``object``; ``arr`` may therefore be replaced by a new
    array.
    """

    __slots__ = ("arr", "mag")

    def __init__(self, arr: np.ndarray):
        self.arr = arr
        self.mag = _magnitude(arr) if arr.dtype != object else None

    def _grow(self, factor: int) -> None:
        """Certify a pass that multiplies ``max |c|`` by at most
        ``factor``: if ``mag`` cannot, measure the buffer again, and if
        its values really are that large promote it to ``object``."""
        if self.mag is None:
            return
        if self.mag * factor >= _INT64_LIMIT:
            self.mag = _magnitude(self.arr)
        if self.mag * factor >= _INT64_LIMIT:
            self.arr = self.arr.astype(object)
            self.mag = None
        else:
            self.mag *= factor

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
        ``max |c|``, and so is every partial sum and every scaled term.
        """
        if self.mag == 0:
            return
        self._grow(sum(abs(c) for c in coefs))
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
        the rows instead.
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


class TruncatedSeries:
    """Series truncated to the box ``[0, bound]^nvars``, held as its support.

    ``terms`` maps exponent tuples inside the box to nonzero Python ints;
    each exponent is checked and packed into its key, and an exponent of
    the wrong arity or outside the box raises ``SeriesError``.  Instances
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
        self._keys = {key(m): c for m, c in terms.items()}

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
        arr = _grid(self._keys, self._layout)
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
    keep = sorted({int(i) for i in keep})
    if not keep:
        raise SeriesError("must keep at least one variable")
    if keep[0] < 1 or keep[-1] > f.nvars:
        raise SeriesError(f"keep indices out of range 1..{f.nvars}")
    idx = [i - 1 for i in keep]
    merged: dict = {}
    for m, k in f._factors.items():
        mm = tuple(m[i] for i in idx)
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
    that one and the rest run on the dense grid.
    """
    sparse = _Terms(keys, layout)
    kernel = None
    for m, k in factors:
        if kernel is None and not sparse.power(m, k):
            kernel = _Kernel(_grid(sparse.keys, layout))
        if kernel is not None:
            kernel.power(m, k)
    return sparse.keys if kernel is None else _support(kernel.arr)


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
    limit; from there the sweep goes on over the dense grid.
    """
    if s._keys.get(s._layout.bias) != 1:
        raise SeriesError("factorization needs constant term 1")
    factors: dict = {}
    sparse = _Terms(s._keys, s._layout)
    if _peel_sparse(sparse, factors):
        return FactoredSeries(s.nvars, factors)
    kernel = _Kernel(_grid(sparse.keys, s._layout))
    while True:
        # the origin comes first, and peeling keeps it at 1
        idx, coords = _nonzero_cells(kernel.arr)
        if idx.size == 1:
            break
        deg = sum(coords)
        batch = deg == deg[1:].min()
        exps = zip(*(ax[batch].tolist() for ax in coords))
        values = kernel.arr.reshape(-1)[idx[batch]].tolist()
        for m, c in zip(exps, values):
            factors[m] = -c
            kernel.power(m, c)
    return FactoredSeries(s.nvars, factors)


def _peel_sparse(sparse: _Terms, factors: dict) -> bool:
    """The degree sweep of ``factorize`` on the support, recording each
    peeled factor; False at the first peel over the limit, which is left
    undone.  Peels of one degree change only higher degrees, so the
    batch read before them stays valid throughout."""
    while batch := sparse.lowest():
        for m, c in batch:
            if not sparse.power(m, c):
                return False
            factors[m] = -c
    return True


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
        for i, col in enumerate(series._layout.unpack(keys), 1):
            flat[i::width] = col
    else:
        raise SeriesError(f"not a series: {series!r}")
    row = "%d" + " %d" * series.nvars + "\n"
    return head + row * len(terms) % tuple(flat)


def series_from_text(text: str) -> Union[FactoredSeries, TruncatedSeries]:
    """Parse the format produced by :func:`series_to_text`.

    Blank lines and lines that start with ``#`` are skipped.  An expanded
    series whose header declares a grid above ``MAX_CELLS`` is refused
    before any term line is read.  Term lines are read in chunks of at
    most ``_CHUNK_LINES`` lines, each checked by columns for the field
    count, integer fields, the box (expanded only), a repeated exponent
    and a zero power (factored only).  If a chunk fails a check, the text
    is read again one line at a time, checking each line in that order,
    so the first bad line decides the error.
    """
    # chunks are cut from the end of the reversed lines, so the lines
    # already read are freed while the terms are built
    lines = text.splitlines()
    lines.reverse()
    line = ""
    while not line or line[0] == "#":
        if not lines:
            raise SeriesError("empty series text")
        line = lines.pop().strip()
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

    layout = _layout(nvars, bound) if expanded else None
    terms = _read_chunks(lines, nvars + 1, layout, "#" in text)
    if terms is None:
        _raise_first_bad_line(text, nvars + 1, bound, expanded)
    if not expanded:
        return FactoredSeries(nvars, terms)
    return TruncatedSeries._from_keys(nvars, bound, terms)


def _read_chunks(lines: list, width: int, layout: Union[_Layout, None],
                 comments: bool) -> Union[dict, None]:
    """The terms of the reversed term lines ``lines``, which are used up,
    read ``_CHUNK_LINES`` lines at a time; None once a chunk fails a
    check.  ``layout`` is the box of an expanded series, whose terms are
    keyed by packed exponent, and None for a factored one, keyed by
    exponent tuple.

    A chunk is split and checked on its columns, then added to the terms
    by one ``dict.update``; a repeated exponent shows as a dict that grew
    by less than the chunk.  A factored chunk's tokens are converted by
    one ``map(int)``.  An expanded chunk's coefficients are, and its
    exponents are read by ``_Layout.read``, which converts each distinct
    token of a column once.  Lines with coefficient 0
    are kept until the end, so that a repeat of one is still a duplicate.
    """
    terms: dict = {}
    zero = False
    while lines:
        chunk = lines[-_CHUNK_LINES:]
        del lines[-_CHUNK_LINES:]
        # blank lines split into nothing
        rows = list(filter(None, map(str.split, reversed(chunk))))
        if comments:
            rows = [t for t in rows if t[0][0] != "#"]
        if not rows:
            continue
        if set(map(len, rows)) != {width}:
            return None
        if layout is None:
            try:
                vals = list(map(int, chain.from_iterable(rows)))
            except ValueError:
                return None
            coefs = vals[::width]
            if 0 in coefs:
                return None
            exps = zip(*(vals[i::width] for i in range(1, width)))
        else:
            tokens = list(chain.from_iterable(rows))
            try:
                coefs = list(map(int, tokens[::width]))
            except ValueError:
                return None
            exps = layout.read([tokens[i::width] for i in range(1, width)])
            if exps is None:
                return None
            zero = zero or 0 in coefs
        size = len(terms) + len(coefs)
        terms.update(zip(exps, coefs))
        if len(terms) != size:
            return None
    return {m: c for m, c in terms.items() if c} if zero else terms


def _raise_first_bad_line(text: str, width: int, bound: int,
                          expanded: bool) -> None:
    """Raise the error of the first bad term line of a text whose header
    is good, checking one line at a time."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    # exponents seen so far, of zero lines too
    seen = set()
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != width:
            raise SeriesError(f"expected {width} fields: {ln!r}")
        try:
            vals = list(map(int, toks))
        except ValueError as exc:
            raise SeriesError(f"non-integer field: {ln!r}") from exc
        m = tuple(vals[1:])
        if expanded and (min(m) < 0 or max(m) > bound):
            raise SeriesError(f"exponent {m} outside grid [0, {bound}]")
        if m in seen:
            raise SeriesError(f"duplicate exponent {m}")
        if not (vals[0] or expanded):
            raise SeriesError(f"zero power at {m}")
        seen.add(m)
    raise AssertionError("a chunk of term lines failed a check that "
                         "each of its lines passes")
