"""Exact multivariate series arithmetic over the integers.

Two representations are used throughout the package: a factored form
``prod (1 - t^m)^k`` with integer exponent vectors ``m`` and integer powers
``k``, and a dense truncated expansion on the grid ``[0, bound]^nvars``.

Three operations connect them: ``expand`` multiplies out a product,
``factorize`` peels the product back off a unit series, and
``divide_torus`` divides by ``(t_1 ... t_r - 1)`` for the definitional
oracle.  All three run the same in-place shift-add passes.

Storage contract of the dense grid: coefficients are held in an ``int64``
numpy array whenever a bound proves that every value fits, and in a
``dtype=object`` array of Python ints otherwise.  Each operation measures
the magnitude of its input from the array itself (never from a stored
figure, since callers may write into ``coeffs`` directly), and runs a pass
in ``int64`` only when that measurement certifies the result below
``2^63``; otherwise it promotes to ``object`` first.  No fixed-width
operation runs unchecked, so there is no floating point and no overflow,
and every coefficient handed out is a Python int.  A grid may have at most
``MAX_CELLS`` cells; larger ones are refused before anything is allocated.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Union

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

_INT64 = np.dtype(np.int64)
_OBJECT = np.dtype(object)
# int64 holds every |c| < 2^63; a shift-add pass on values below 2^62
# stays below 2^63
_INT64_LIMIT = 2 ** 63
_PASS_LIMIT = 2 ** 62


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


def _nonzero_cells(arr: np.ndarray) -> tuple:
    """Flat indices, exponents (one index array per axis) and total
    degrees of the nonzero cells, in row-major order, which is lex order."""
    idx = np.flatnonzero(arr)
    coords = np.unravel_index(idx, arr.shape)
    return idx, coords, np.sum(coords, axis=0)


class _Kernel:
    """Shift-add passes in place on one coefficient buffer.

    While the buffer is int64, ``mag`` is a certified upper bound on its
    ``max |c|``, measured from the buffer itself on entry.  A pass adds or
    subtracts a shifted copy of the buffer, so it at most doubles
    ``max |c|``.  Before a pass the bound could not certify, the buffer is
    measured again, and if its values really are that large it is
    promoted to ``object``; ``arr`` may therefore be replaced by a new
    array.
    """

    __slots__ = ("arr", "mag")

    def __init__(self, arr: np.ndarray):
        self.arr = arr
        self.mag = _magnitude(arr) if arr.dtype == _INT64 else None

    def _shift_add(self, m, sign: int) -> None:
        if self.mag is not None:
            if self.mag >= _PASS_LIMIT:
                self.mag = _magnitude(self.arr)
            if self.mag >= _PASS_LIMIT:
                self.arr = self.arr.astype(object)
                self.mag = None
            else:
                self.mag *= 2
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
        if self.mag is not None:
            total = sum(abs(c) for c in coefs)
            if self.mag * total >= _INT64_LIMIT:
                self.mag = _magnitude(self.arr)
            if self.mag * total >= _INT64_LIMIT:
                self.arr = self.arr.astype(object)
                self.mag = None
            else:
                self.mag *= total
        orig = self.arr.copy()
        for j, c in enumerate(coefs):
            if j and c:
                src, dst = _views(self.arr.shape, tuple(j * e for e in m))
                self.arr[dst] += c * orig[src]

    def power(self, m, k: int) -> None:
        """Multiply by ``(1 - t^m)^k`` for any integer ``k``.

        Two schedules.  Unit by unit, a positive power subtracts one
        shifted copy per unit, and a negative power multiplies by
        ``1/(1 - t^m) = sum_j t^{jm}`` once per unit by the doubling
        trick: adding a copy of the partial sum shifted by ``2^i * m``
        doubles the number of geometric terms accumulated, so a unit takes
        O(log bound) passes.  Binomially, only the terms
        ``j <= bound // max(m)`` of ``sum_j binom(k, j) (-t^m)^j`` reach
        the grid, so that many scaled passes do any ``k``, however large;
        they read from a copy of the whole grid, so this schedule runs
        only where it takes at most half the passes of the other.
        """
        bound = self.arr.shape[0] - 1
        top = max(m)
        if top > bound or k == 0:
            return
        reach = bound // top
        unit = 1 if k > 0 else reach.bit_length()
        if 2 * (reach + 1) <= abs(k) * unit:
            coefs = [1]
            for j in range(1, reach + 1):
                coefs.append(-coefs[-1] * (k - j + 1) // j)
            self._binomial(m, coefs)
            return
        for _ in range(abs(k)):
            if k > 0:
                self._shift_add(m, -1)
            else:
                step = m
                while all(s <= bound for s in step):
                    self._shift_add(step, 1)
                    step = tuple(2 * s for s in step)


class TruncatedSeries:
    """Dense series truncated to the grid ``[0, bound]^nvars``.

    ``coeffs`` is an int64 array when a bound proves every coefficient
    fits, and a ``dtype=object`` array of Python ints otherwise (see the
    module docstring); ``zeros`` starts in int64.  Direct writes into
    ``coeffs`` are allowed as long as the value fits the array's dtype,
    because ``factorize`` and ``divide_torus`` re-measure their input and
    work on a copy.  Indexing and ``nonzero_terms`` always return Python
    ints.
    """

    __slots__ = ("nvars", "bound", "coeffs")

    def __init__(self, nvars: int, bound: int, coeffs: np.ndarray):
        _check_grid(nvars, bound)
        shape = (bound + 1,) * nvars
        if coeffs.shape != shape or coeffs.dtype not in (_INT64, _OBJECT):
            raise SeriesError("coefficient array has wrong shape or dtype")
        self.nvars = nvars
        self.bound = bound
        self.coeffs = coeffs

    @classmethod
    def zeros(cls, nvars: int, bound: int) -> "TruncatedSeries":
        _check_grid(nvars, bound)
        arr = np.zeros((bound + 1,) * nvars, dtype=np.int64)
        return cls(nvars, bound, arr)

    @classmethod
    def one(cls, nvars: int, bound: int) -> "TruncatedSeries":
        out = cls.zeros(nvars, bound)
        out.coeffs[(0,) * nvars] = 1
        return out

    def __getitem__(self, m) -> int:
        return int(self.coeffs[tuple(m)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.nvars == other.nvars and self.bound == other.bound
                and bool(np.array_equal(self.coeffs, other.coeffs)))

    def __repr__(self) -> str:
        terms = list(self.nonzero_terms())
        shown = ", ".join(f"{m}: {c}" for m, c in terms[:6])
        more = "" if len(terms) <= 6 else f", ... {len(terms)} terms"
        return (f"TruncatedSeries(nvars={self.nvars}, bound={self.bound}, "
                f"{{{shown}{more}}})")

    def nonzero_terms(self) -> Iterator:
        """Yield ``(exponent, coefficient)`` in glex order.

        Row-major flat order is lex order, so a stable sort of the nonzero
        cells by total degree gives glex order.
        """
        idx, coords, deg = _nonzero_cells(self.coeffs)
        order = np.argsort(deg, kind="stable")
        exps = zip(*(ax[order].tolist() for ax in coords))
        return zip(exps, self.coeffs.reshape(-1)[idx[order]].tolist())


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
    items = []
    for m, k in f.items():
        mm = tuple(m[i] for i in idx)
        if not any(mm):
            raise SeriesError(f"factor at {m} degenerates under projection")
        items.append((mm, k))
    return FactoredSeries(len(keep), items)


def expand(f: FactoredSeries, bound: int) -> TruncatedSeries:
    """Dense expansion on ``[0, bound]^nvars``, exact within the grid."""
    kernel = _Kernel(TruncatedSeries.one(f.nvars, bound).coeffs)
    for m, k in f.items():
        kernel.power(m, k)
    return TruncatedSeries(f.nvars, bound, kernel.arr)


def factorize(s: TruncatedSeries) -> FactoredSeries:
    """Write ``s`` as ``prod (1 - t^m)^{k_m}``, exactly on the grid.

    Sweeps the total degree upwards.  Once every nonconstant term of
    degree below ``d`` is cleared, each remaining term ``c * t^m`` of
    degree ``d`` is accounted for by the factor ``(1 - t^m)^{-c}``, and
    multiplying by ``(1 - t^m)^c`` clears it while changing only cells
    of degree above ``d``; so all terms of degree ``d`` are peeled in
    one batch.  Requires constant term 1.  Factors supported beyond
    the grid are invisible; the result reproduces the input exactly
    within the bound.
    """
    if s.coeffs[(0,) * s.nvars] != 1:
        raise SeriesError("factorization needs constant term 1")
    kernel = _Kernel(s.coeffs.copy())
    factors: dict = {}
    while True:
        # the origin comes first, and peeling keeps it at 1
        idx, coords, deg = _nonzero_cells(kernel.arr)
        if idx.size == 1:
            break
        batch = deg == deg[1:].min()
        exps = zip(*(ax[batch].tolist() for ax in coords))
        values = kernel.arr.reshape(-1)[idx[batch]].tolist()
        for m, c in zip(exps, values):
            factors[m] = -c
            kernel.power(m, c)
    return FactoredSeries(s.nvars, factors)


def divide_torus(p_prime: TruncatedSeries) -> TruncatedSeries:
    """Divide by ``(t_1 ... t_r - 1)`` exactly on the grid.

    Since ``(t^1 - 1) = -(1 - t^1)``, this is geometric accumulation at the
    all-ones shift followed by a sign flip.  The flip runs in int64 only
    when the measured ``max |c|`` is below ``2^63``: negating ``INT64_MIN``
    would wrap.
    """
    kernel = _Kernel(p_prime.coeffs.copy())
    kernel.power((1,) * p_prime.nvars, -1)
    arr = kernel.arr
    if arr.dtype == _INT64 and _magnitude(arr) >= _INT64_LIMIT:
        arr = arr.astype(object)
    return TruncatedSeries(p_prime.nvars, p_prime.bound, -arr)


def series_to_text(series: Union[FactoredSeries, TruncatedSeries]) -> str:
    """Render a series in the line-oriented interchange format.

    Header ``vars R mode {factored|expanded} bound B`` (bound 0 for the
    factored form), then one ``k e1 ... eR`` line per term in glex order.
    """
    lines = []
    if isinstance(series, FactoredSeries):
        lines.append(f"vars {series.nvars} mode factored bound 0")
        terms = series.items()
    elif isinstance(series, TruncatedSeries):
        lines.append(f"vars {series.nvars} mode expanded bound {series.bound}")
        terms = series.nonzero_terms()
    else:
        raise SeriesError(f"not a series: {series!r}")
    lines.extend(" ".join(map(str, (c, *m))) for m, c in terms)
    return "\n".join(lines) + "\n"


def series_from_text(text: str) -> Union[FactoredSeries, TruncatedSeries]:
    """Parse the format produced by :func:`series_to_text`.

    An expanded series whose header declares a grid above ``MAX_CELLS``
    is refused before any term line is read.
    """
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
    if mode == "expanded":
        _check_grid(nvars, bound)

    entries = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) != nvars + 1:
            raise SeriesError(f"expected {nvars + 1} fields: {ln!r}")
        try:
            vals = [int(t) for t in toks]
        except ValueError as exc:
            raise SeriesError(f"non-integer field: {ln!r}") from exc
        entries.append((tuple(vals[1:]), vals[0]))

    if mode == "factored":
        if bound != 0:
            raise SeriesError("factored series must declare bound 0")
        seen = set()
        for m, k in entries:
            if m in seen:
                raise SeriesError(f"duplicate factor exponent {m}")
            seen.add(m)
            if k == 0:
                raise SeriesError(f"zero power at {m}")
        return FactoredSeries(nvars, entries)

    seen = set()
    for m, c in entries:
        if any(e < 0 or e > bound for e in m):
            raise SeriesError(f"exponent {m} outside grid [0, {bound}]")
        if m in seen:
            raise SeriesError(f"duplicate exponent {m}")
        seen.add(m)
    top = max((abs(c) for _, c in entries), default=0)
    arr = np.zeros((bound + 1,) * nvars,
                   dtype=np.int64 if top < _INT64_LIMIT else object)
    for m, c in entries:
        arr[m] = c
    return TruncatedSeries(nvars, bound, arr)
