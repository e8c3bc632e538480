"""Byte-stable JSON and CSV emission.

Output files are regression artifacts: reruns with the same config must
produce identical bytes. JSON objects are therefore emitted with sorted
keys and floats formatted to 17 significant digits (enough to round-trip
float64 exactly); CSVs use LF line endings and the same float format.

The JSON emitter is one walk over the document, a generator that yields
its text in pieces, with two consumers: :func:`dumps_canonical` joins
every piece once, and :func:`dump_canonical` writes each piece to every
output as it is yielded, leaving the batching to the streams' own
buffers, so no whole-document string is built and a large document holds
at most one kernel block and one piece of text. A scalar, or an object
whose values are all scalars, is one piece, with the separator,
indentation and key before it. Lists, tuples and other objects share one
container loop over ``(label, item)`` pairs, the label empty for a list
item and the escaped key for an object member. :func:`_inline` keeps its
own loop over a flat object's members: it makes each such record one
piece, and going through the shared pairs there made the walk over a
list of records 18-19% slower. A 1-D or 2-D float64 ``ndarray`` gives
the same bytes as its ``.tolist()`` would. A 1-D one is written as that
list. A 2-D one (the ``analyze`` matrices) is one piece per block of
values from a vectorized kernel: for each value it computes the
correctly rounded 17-digit integer and the decimal exponent with exact
float arithmetic, lays out the ``%.17g`` text and the separator after it
in a ``uint8`` buffer, and keeps the bytes that text uses. Values outside
the kernel's range (zero, magnitudes below 1e-4 or from 1e16 up, and
the non-finite ones, which it refuses) go through :func:`format_float`.
Object keys and string values go through one escaper, the one
``json.dumps`` uses for a string, so both come out as ASCII that
``json.loads`` reads back.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import require_type
from .simulate import SimulationTrace

TRACE_HEADER = "tick,dead,sleep,active,inactive,battery"

_BLOCK = 1 << 14  # values per kernel pass: its buffers stay near 1 MB
_POW10 = np.array([float(10**p) for p in range(23)])  # exact up to 10**22
_SPLIT = float(2**27 + 1)  # Veltkamp splitter for float64

# Byte columns of one value's cell in the kernel buffer. _DIGITS holds
# "000" and the 17 digits, written as five 4-digit groups; _FRACTION is a
# copy of it. The sign, the integer digits, the point and the fraction
# digits are then runs whose places depend only on the sign, the exponent
# and the trailing zeros, so one keep-mask row per such triple selects the
# text. The separator after the value starts at _NUMBER; a value the
# kernel leaves to format_float has its text written from column 0.
_SIGN, _DIGITS, _POINT, _FRACTION, _NUMBER = 3, 4, 24, 28, 48
_FALLBACK_WIDTH = 24  # longest %.17g text: "-2.2250738585072014e-308"


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"refusing to serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def dumps_canonical(value) -> str:
    """Serialize to JSON with sorted keys and fixed float formatting."""
    return "".join(_pieces(value, 0))


def dump_canonical(value, streams: Sequence[TextIO]) -> int:
    """Write the text of :func:`dumps_canonical` and a newline to every stream.

    Returns the length of the text without its newline. Each piece of the
    walk is written to every stream as it is yielded, so an error raised
    by the walk (a non-finite value, a key that is not a string) can leave
    part of the text written.
    """
    written = 0
    for piece in chain(_pieces(value, 0), ["\n"]):
        for stream in streams:
            stream.write(piece)
        written += len(piece)
        del piece  # not held while the walk formats the next block
    return written - 1


def _pieces(value, indent: int) -> Iterator[str]:
    """The canonical text of ``value``, nested at ``indent``, piece by piece."""
    text = _inline(value, indent)
    if text is not None:
        yield text
        return
    if isinstance(value, np.ndarray):
        yield from _array_pieces(value, indent)
        return
    if isinstance(value, (list, tuple)):
        brackets, items = "[]", zip(repeat(""), value)
    elif isinstance(value, dict):
        brackets, items = "{}", _members(value)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} canonically")
    inner = " " * (indent + 2)
    sep = brackets[0] + "\n"
    for label, item in items:
        text = _inline(item, indent + 2)  # the whole item, never "", or None
        yield f"{sep}{inner}{label}{text or ''}"
        if text is None:
            yield from _pieces(item, indent + 2)
        sep = ",\n"
    yield "\n" + " " * indent + brackets[1] if value else brackets


def _members(obj: dict) -> Iterator[tuple[str, object]]:
    """``(label, value)`` per key of ``obj`` in sorted order, the label its escaped key and ": "."""
    for key in sorted(obj):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        yield encode_basestring_ascii(key) + ": ", obj[key]


def _inline(value, indent: int | None) -> str | None:
    """The text of a scalar or, given an ``indent``, of a non-empty object of scalars; else None."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if indent is None or not isinstance(value, dict) or not value:
        return None
    inner = " " * (indent + 2)
    parts = []
    for key in sorted(value):  # the walk's order up to the first non-scalar: its errors
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        text = _inline(value[key], None)
        if text is None:
            return None
        parts.append(f"{inner}{encode_basestring_ascii(key)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n" + " " * indent + "}"


def _array_pieces(a: np.ndarray, indent: int) -> Iterator[str]:
    """The text ``a.tolist()`` would give, for a 1-D or 2-D float64 array; a piece per block for a matrix."""
    if a.dtype != np.float64 or a.ndim not in (1, 2):
        raise TypeError(f"cannot serialize a {a.ndim}-D {a.dtype} ndarray canonically")
    if a.ndim == 1 or a.size == 0:
        yield from _pieces(a.tolist(), indent)
        return
    outer, inner = " " * (indent + 2), " " * (indent + 4)
    yield f"[\n{outer}[\n{inner}"
    # after a value: an item, a row, the end
    cells, keep_rows = _cell_tables((",\n" + inner, f"\n{outer}],\n{outer}[\n{inner}", ""))
    flat = a.ravel()
    row = a.shape[1]
    for start in range(0, flat.size, _BLOCK):
        x = flat[start:start + _BLOCK]
        kind = np.zeros(x.size, np.intp)  # index into the suffixes
        kind[(row - 1 - start) % row::row] = 1
        if start + _BLOCK >= flat.size:
            kind[-1] = 2
        yield _format_block(x, kind, cells, keep_rows)
    yield f"\n{outer}]\n{' ' * indent}]"


def _cell_tables(suffixes: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The fixed bytes of a cell per suffix, and its keep mask per (number code, suffix)."""
    number_keep = _kernel_tables()[0]
    width = -(-(_NUMBER + max(map(len, suffixes))) // 4) * 4  # whole uint32 words
    cells = np.zeros((len(suffixes), width), np.uint8)
    keep = np.zeros((len(number_keep), len(suffixes), width), bool)
    cells[:, _SIGN] = ord("-")
    cells[:, _POINT] = ord(".")
    keep[:, :, :_NUMBER] = number_keep[:, None]
    for i, suffix in enumerate(suffixes):
        cells[i, _NUMBER:_NUMBER + len(suffix)] = list(suffix.encode())
        keep[:, i, _NUMBER:_NUMBER + len(suffix)] = True
    return cells, keep.reshape(-1, width)


def _format_block(x: np.ndarray, kind: np.ndarray, cells: np.ndarray,
                  keep_rows: np.ndarray) -> str:
    """``%.17g`` of each value in ``x``, each followed by its ``kind``'s suffix; refuses non-finite ones."""
    _, group_text, group_zeros = _kernel_tables()
    ax = np.abs(x)
    in_range = (ax >= 1e-4) & (ax < 1e16)
    digits, exp10 = _digits17(np.where(in_range, ax, 1.0))
    hi, lo = _divmod(digits, 10**8)
    groups = np.empty((5, x.size), np.intp)
    groups[3], groups[4] = _divmod(lo, 10**4)
    hi, groups[2] = _divmod(hi, 10**4)
    groups[0], groups[1] = _divmod(hi, 10**4)
    zeros = group_zeros[groups[:0:-1]]  # groups 4, 3, 2, 1; group 0 is never 0
    trailing = zeros[3]
    for z in zeros[2::-1]:
        trailing = z + (z == 4) * trailing

    buf = np.take(cells, kind, axis=0)
    text = group_text[groups].T
    words = buf.view(np.uint32)
    words[:, _DIGITS // 4:_DIGITS // 4 + 5] = text
    words[:, _FRACTION // 4:_FRACTION // 4 + 5] = text
    code = ((exp10 + 4) * 17 + trailing) * 2 + (x < 0)
    keep = np.take(keep_rows, code * len(cells) + kind, axis=0)
    if not in_range.all():
        odd = np.flatnonzero(~in_range)
        texts = np.array([format_float(v) for v in x[odd].tolist()], dtype=f"S{_FALLBACK_WIDTH}")
        texts = texts.view(np.uint8).reshape(odd.size, _FALLBACK_WIDTH)  # NUL-padded
        buf[odd, :_FALLBACK_WIDTH] = texts
        keep[odd, :_NUMBER] = False
        keep[odd, :_FALLBACK_WIDTH] = texts != 0
    return buf[keep].tobytes().decode("ascii")


def _divmod(a: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of non-negative integers ``a`` by ``d``.

    Not ``np.divmod`` or ``%``: only ``//`` takes numpy's fast path for a
    scalar divisor (about 4x faster on a kernel block with numpy 2.4).
    """
    q = a // d
    return q, a - q * d


def _digits17(ax: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``%.17e`` of each ``1e-4 <= ax < 1e16``: the 17-digit integer and the exponent.

    ``x * 10**p`` is split exactly into ``h + l`` (Dekker's product). Here
    ``h >= 1e16 > 2**53`` is an even integer, so ``h + rint(l)`` is the
    product rounded half to even. The exponent estimated from the binary
    one is exact or one too low; a too-low one gives 18 digits and is
    redone. No value in the range rounds up to ``10**17``: the float64
    just below a power of ten is ~1e-16 of it away, the half-unit 5e-18.
    """
    _, exp2 = np.frexp(ax)
    exp10 = ((exp2.astype(np.int64) - 1) * 78913) >> 18  # floor((exp2 - 1) * log10(2))
    digits = _rounded_product(ax, _POW10[16 - exp10])
    low = digits >= 10**17
    if low.any():
        exp10[low] += 1
        digits[low] = _rounded_product(ax[low], _POW10[16 - exp10[low]])
    return digits, exp10


def _rounded_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` rounded half to even, exact when it is at least 2**53."""
    h = a * b
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = b * _SPLIT
    b_hi = t - (t - b)
    b_lo = b - b_hi
    l = ((a_hi * b_hi - h) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return h.astype(np.int64) + np.rint(l).astype(np.int64)


@functools.cache
def _kernel_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep-mask rows of the number columns, and the text and trailing zeros of 0..9999."""
    exp10 = np.arange(-4, 16)[:, None, None, None]
    trailing = np.arange(17)[None, :, None, None]
    negative = np.arange(2)[None, None, :, None]
    col = np.arange(_NUMBER)
    digit, fraction = col - _DIGITS, col - _FRACTION
    number_keep = (
        ((col == _SIGN) & (negative == 1))
        | np.where(exp10 < 0, digit == 2, (digit >= 3) & (digit < 4 + exp10))
        | ((col == _POINT) & (16 - exp10 - trailing > 0))
        | ((fraction >= 4 + exp10) & (fraction < 20 - trailing))
    ).reshape(-1, _NUMBER)
    group = np.arange(10_000)
    text = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    zeros = sum((group % 10**p == 0).astype(np.intp) for p in range(1, 5))
    return number_keep, (text + ord("0")).astype(np.uint8).view(np.uint32).ravel(), zeros


def write_json(path: str | Path, value) -> None:
    """Write ``value`` as a canonical JSON file that ends in a newline."""
    with Path(path).open("w") as f:
        dump_canonical(value, [f])


def trace_to_csv(trace: SimulationTrace) -> str:
    lines = [TRACE_HEADER]
    for rec in require_type("trace", trace, SimulationTrace).per_tick:
        lines.append(
            f"{rec.tick},{rec.dead},{rec.sleep},{rec.active},{rec.inactive},"
            f"{format_float(rec.battery)}"
        )
    return "\n".join(lines) + "\n"


def write_trace_csv(path: str | Path, trace: SimulationTrace) -> None:
    Path(path).write_text(trace_to_csv(trace))
