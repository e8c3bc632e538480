"""The one-pass canonical JSON emitter against its recursive reference.

``canonical_oracle.dumps_canonical`` is the emitter as first written;
:func:`sleepwatch.serialize.dumps_canonical` must give the same text for
every document whose keys need no escaping (the oracle writes keys
raw) and raise the same error for every value it refuses. Keys and
string values are escaped as ``json.dumps`` escapes a string. A float64
array must give the bytes of its ``.tolist()``, whose floats are
``format(x, ".17g")``: the vectorized digit kernel is checked against
that on the values where its arithmetic is most likely to slip.
:func:`sleepwatch.serialize.dump_canonical` streams the same walk and
must write exactly that text and a newline to every stream it is given,
one piece of the walk per write, holding no more than one piece and one
kernel block of it at a time.
"""

from __future__ import annotations

import io
import json
import tracemalloc
from decimal import Decimal
from enum import IntEnum

import numpy as np
import pytest

from canonical_oracle import dumps_canonical as oracle_dumps
from conftest import random_float64
from sleepwatch import cli, serialize
from sleepwatch.config import load_config
from sleepwatch.errors import ConfigInvalid
from sleepwatch.serialize import dump_canonical, dumps_canonical, write_json

EDGE_FLOATS = (-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 0.1, 1 / 3, 1e308)
SCALARS = (0, -7, 2**70, True, False, None, "", "plain", 'quote " and \\ slash', "café\n")
ODD_ONES = (3, True, np.float64(0.1))


def float_row(rng: np.random.Generator) -> list[float]:
    n = int(rng.integers(1, 8))
    picks = rng.integers(0, len(EDGE_FLOATS) + 1, size=n)
    return [EDGE_FLOATS[k] if k < len(EDGE_FLOATS) else float(rng.normal() * 1e3) for k in picks]


def random_document(rng: np.random.Generator, depth: int = 0):
    kind = int(rng.integers(0, 8 if depth < 4 else 3))
    if kind == 0:
        return EDGE_FLOATS[int(rng.integers(0, len(EDGE_FLOATS)))]
    if kind == 1:
        return SCALARS[int(rng.integers(0, len(SCALARS)))]
    if kind == 2:
        return [] if rng.random() < 0.5 else {}
    if kind == 3:
        row = float_row(rng)
        return tuple(row) if rng.random() < 0.3 else row
    if kind == 4:  # a float row spoiled by one item that is not exactly float
        row = float_row(rng)
        row.insert(int(rng.integers(0, len(row) + 1)), ODD_ONES[int(rng.integers(0, len(ODD_ONES)))])
        return row
    if kind == 5:
        return tuple(random_document(rng, depth + 1) for _ in range(int(rng.integers(1, 4))))
    if kind == 6:
        return [random_document(rng, depth + 1) for _ in range(int(rng.integers(1, 5)))]
    return {f"k{int(rng.integers(0, 100))}": random_document(rng, depth + 1)
            for _ in range(int(rng.integers(1, 5)))}


def refusal(dumps, value) -> tuple[type, str]:
    with pytest.raises((TypeError, ValueError)) as exc:
        dumps(value)
    return type(exc.value), str(exc.value)


def analyze_report(tmp_path, n_deployed: int) -> dict:
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"network": {"n_deployed": n_deployed, "initial_dead": 1}}))
    return cli._analyze_report(load_config(config))


def test_analyze_report_matches_oracle(tmp_path):
    for n_deployed in (40, 200):  # 200: 159 rows, more than one kernel block
        report = analyze_report(tmp_path, n_deployed)
        visits = report["expected_visits"]["oracle"]
        assert isinstance(visits, np.ndarray) and len(visits) > 1
        assert dumps_canonical(report) == oracle_dumps(report)


def test_analyze_report_holds_one_deviation_temporary(tmp_path):
    # at N = 1000 each 799 x 799 visit matrix takes 5.1 MB; |closed - oracle|
    # built as two more full-size temporaries brought the peak to 20.5 MB
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"network": {"n_deployed": 1000, "initial_dead": 1}}))
    parsed = load_config(config)
    tracemalloc.start()
    try:
        report = cli._analyze_report(parsed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["expected_visits"]["oracle"].shape == (799, 799)
    assert peak < 18_000_000


@pytest.mark.parametrize("seed", range(40))
def test_seeded_documents_match_oracle(seed):
    rng = np.random.default_rng(seed)
    doc = {"root": [random_document(rng) for _ in range(6)], "edges": list(EDGE_FLOATS)}
    assert dumps_canonical(doc) == oracle_dumps(doc)


@pytest.mark.parametrize("value", [*EDGE_FLOATS, *SCALARS, *ODD_ONES, [], (), {}, [[]], [{}]],
                         ids=repr)
def test_top_level_values_match_oracle(value):
    assert dumps_canonical(value) == oracle_dumps(value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_non_finite_in_float_row_raises_as_oracle(bad, where):
    row = [0.5, 1.5, 2.5, 3.5]
    row[{"first": 0, "middle": 2, "last": 3}[where]] = bad
    if where == "first":
        row[2] = -bad  # a later bad item must not be the one reported
    for doc in (row, tuple(row), {"a": [1.0], "b": {"c": row}}):
        expected = refusal(oracle_dumps, doc)
        assert expected[0] is ValueError
        assert refusal(dumps_canonical, doc) == expected


@pytest.mark.parametrize("doc", [
    {1: 0.5},
    {"a": [0.5], "b": {2: [1.0]}},
    [0.5, {"ok": 1, "nested": {(1, 2): None}}],
], ids=["flat", "nested", "in-list"])
def test_non_string_key_raises_as_oracle(doc):
    expected = refusal(oracle_dumps, doc)
    assert expected[0] is TypeError
    assert refusal(dumps_canonical, doc) == expected


@pytest.mark.parametrize("doc", [{1.5}, [0.5, {2.5}], {"a": [0.5, 1.5], "b": set()}],
                         ids=["bare", "in-list", "in-dict"])
def test_set_raises_as_oracle(doc):
    expected = refusal(oracle_dumps, doc)
    assert expected[0] is TypeError
    assert refusal(dumps_canonical, doc) == expected


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


def record(i: int) -> dict:
    """A flat object of six scalars, like one online verdict."""
    return {"decision": "normal", "observed": None if i % 3 else 100.0 + i / 7,
            "baseline": 1234.5678901234567 + i, "theta": 0.8, "source": Label("analytic"),
            "detail": f"window {i}: rate {i / 13} steps/tick"}


FLAT_DOCUMENTS = {
    "records": [record(i) for i in range(5)],
    "flat-in-object": {"a": record(1), "b": {}, "c": {"d": record(2), "e": [record(3), {}]}},
    "mixed-object": {"a": 1, "b": [record(4), 2.5, {"x": True}], "c": "z", "d": {"e": False}},
    "subclasses": {"f": np.float64(0.1), "g": [np.float64(-1e300), {"h": np.float64(2.5)}],
                   "i": Level.HIGH, "j": [Level.LOW, {"k": Level.LOW}], "l": Label("s\"t"),
                   "m": {"n": Label(""), "o": np.float64(5e-324)}},
    "empty-and-nested": [{}, [], {"a": {}}, [{}], {"a": []}, {"a": {"b": None}}, [[{"a": 1}]]],
}


@pytest.mark.parametrize("doc", FLAT_DOCUMENTS.values(), ids=FLAT_DOCUMENTS.keys())
def test_flat_objects_and_scalar_subclasses_match_oracle(doc):
    text = dumps_canonical(doc)
    assert text == oracle_dumps(doc)
    assert streamed(doc) == ([text + "\n"] * 2, len(text))


@pytest.mark.parametrize("doc", [
    {"a": 0.5, "b": float("nan"), "c": float("inf")},
    [{"a": 1, "b": {"c": 2, "d": -float("inf")}}],
    [{2: 0.5, 1: float("nan")}],
    [{"a": 1, "b": 2, "c": {2.5}, "d": float("nan")}],
    {"a": 1, "b": np.int64(3), "c": float("nan")},
    [{"a": None, "b": "x", "c": [np.int64(3)]}],
], ids=["nan-in-flat", "inf-in-nested-flat", "non-string-key", "set-after-scalars",
        "numpy-int", "numpy-int-in-list"])
def test_flat_object_refusals_raise_as_oracle(doc):
    expected = refusal(oracle_dumps, doc)
    assert refusal(dumps_canonical, doc) == expected
    assert refusal(lambda value: dump_canonical(value, [io.StringIO()]), doc) == expected


ODD_KEYS = ('a"b', "\\", "\t", "\x00", "\u00e9", "\ud800")


@pytest.mark.parametrize("key", ODD_KEYS, ids=["quote", "backslash", "tab", "nul", "e-acute",
                                                "lone-surrogate"])
def test_keys_that_need_escaping_round_trip_as_ascii(key):
    doc = {key: key, "nested": {key: [key, 0.5]}}
    text = dumps_canonical(doc)
    assert text.isascii()
    assert json.loads(text) == doc


def test_strings_escape_as_json_dumps():
    rng = np.random.default_rng(20121)
    common = [chr(c) for c in (*range(0x80), 0xE9, 0x2028, 0xD800, 0xDFFF, 0xFFFF, 0x1F600)]
    for _ in range(400):
        size = int(rng.integers(0, 12))
        if rng.random() < 0.5:
            text = "".join(common[int(i)] for i in rng.integers(0, len(common), size=size))
        else:
            text = "".join(chr(int(c)) for c in rng.integers(0, 0x110000, size=size))
        assert dumps_canonical(text) == json.dumps(text)
        assert dumps_canonical({text: 0}) == f"{{\n  {json.dumps(text)}: 0\n}}"


def assert_kernel_matches_format(values) -> None:
    """Each value's ``format(x, ".17g")``, as a list and through the kernel as a row and a column.

    A 1-D array is written as its list, so the kernel sees the values as a
    one-row and a one-column matrix; each must give the bytes of its list.
    """
    array = np.asarray(values, dtype=np.float64)
    texts = [format(x, ".17g") for x in array.tolist()]
    assert dumps_canonical(array) == dumps_canonical(array.tolist()) == (
        "[\n  " + ",\n  ".join(texts) + "\n]")
    row, column = array.reshape(1, -1), array.reshape(-1, 1)
    for matrix, rows in ((row, [texts]), (column, [[t] for t in texts])):
        text = dumps_canonical(matrix)
        assert text == dumps_canonical(matrix.tolist())
        assert text == "[\n  [\n    " + "\n  ],\n  [\n    ".join(
            ",\n    ".join(r) for r in rows) + "\n  ]\n]"


def test_powers_of_ten_and_their_neighbours():
    values = []
    for e in range(-6, 19):
        p = float(f"1e{e}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    assert_kernel_matches_format(values + [-v for v in values])


def test_half_way_ties_round_to_even():
    assert dumps_canonical(np.array([1 + 2**-17, 1 + 3 * 2**-17])) == (
        "[\n  1.0000076293945312,\n  1.0000228881835938\n]")
    rng = np.random.default_rng(17)
    ties = []
    for digits in range(1, 16):  # n + odd / 2**(18 - digits), n of that many digits
        whole = rng.integers(10 ** (digits - 1), 10**digits, size=200)
        odd = 2 * rng.integers(0, 2 ** (17 - digits), size=200) + 1
        ties += (whole + odd * 2.0 ** (digits - 18)).tolist()
    for zeros in range(4):  # 0.(zeros)ddd: odd / 2**(18 + zeros) in [10**-(zeros + 1), 10**-zeros)
        scale = 2 ** (18 + zeros)
        odd = 2 * rng.integers(scale // 10 ** (zeros + 1) // 2 + 1, scale // 10**zeros // 2, size=200) + 1
        ties += (odd / scale).tolist()
    for x in ties:  # each is exactly half-way between two 17-digit decimals
        exact = Decimal(x).as_tuple().digits
        assert len(exact) == 18 and exact[-1] == 5, x
    assert_kernel_matches_format(ties + [-x for x in ties])


def test_integers_and_the_switch_to_exponent_form():
    ints = [float(i) for i in range(1001)]
    near = []
    for centre in (2.0**53, 1e15, 1e16, 1e17):
        x = centre
        for _ in range(6):
            x = np.nextafter(x, 0.0)
        for _ in range(12):
            near.append(x)
            x = np.nextafter(x, np.inf)
    # the last three split into digit groups of 0000 and of 9999
    assert_kernel_matches_format(ints + near + [2.0**53 + 2, 9007199254740993.0, 99999999999999984.0,
                                                10000.000000000002, 9999.9999999999982,
                                                99999999.999999985])


def test_zero_subnormals_and_negatives():
    assert_kernel_matches_format([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                  -2.2250738585072014e-308, 1e-300, -1.5, -1e-5, -0.1,
                                  -123.456, 1e308, -1.7976931348623157e308])


class KernelCalls:
    """Wraps ``serialize._format_block`` and counts its calls."""

    def __init__(self, monkeypatch) -> None:
        self.calls = 0
        kernel = serialize._format_block

        def counted(*args):
            self.calls += 1
            return kernel(*args)

        monkeypatch.setattr(serialize, "_format_block", counted)


@pytest.mark.parametrize("exactness_test", [
    test_powers_of_ten_and_their_neighbours,
    test_half_way_ties_round_to_even,
    test_integers_and_the_switch_to_exponent_form,
    test_zero_subnormals_and_negatives,
], ids=lambda test: test.__name__)
def test_exactness_tests_run_the_kernel(exactness_test, monkeypatch):
    kernel = KernelCalls(monkeypatch)
    exactness_test()
    assert kernel.calls >= 1


def test_vector_is_written_as_its_list(monkeypatch):
    kernel = KernelCalls(monkeypatch)
    vector = np.random.default_rng(1).random(2 * serialize._BLOCK + 5) * 1e3
    pieces = list(serialize._pieces({"v": vector}, 0))
    assert pieces == list(serialize._pieces({"v": vector.tolist()}, 0))
    assert kernel.calls == 0


@pytest.mark.parametrize("seed", range(5))
def test_random_bit_patterns(seed):
    values = random_float64(np.random.default_rng(seed), 40_000)
    assert_kernel_matches_format(values)
    matrix = values.reshape(200, 200)
    assert dumps_canonical({"m": matrix}) == dumps_canonical({"m": matrix.tolist()})


@pytest.mark.parametrize("shape", [(0,), (0, 3), (3, 0), (1,), (1, 5), (5, 1), (1, 1), (4, 3)],
                         ids=str)
def test_small_arrays_nested_at_several_indents(shape):
    array = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) / 7
    doc = {"a": array, "b": {"c": array, "d": [array, {"e": (array, -array)}]}}
    assert dumps_canonical(doc) == oracle_dumps(doc)


def test_arrays_spanning_several_blocks():
    rng = np.random.default_rng(2012)
    matrix = rng.random((3 * serialize._BLOCK // 331 + 2, 331)) * 1e3  # blocks end mid-row
    vector = -rng.random(2 * serialize._BLOCK + 5)
    doc = {"m": matrix, "v": vector, "f": np.asfortranarray(matrix[:60])}
    assert dumps_canonical(doc) == oracle_dumps(doc)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", [(0, 0), (1, 2), (2, 3)], ids=["first", "middle", "last"])
def test_non_finite_in_array_raises_as_list(bad, where):
    matrix = np.arange(1.0, 13.0).reshape(3, 4)
    matrix[where] = bad
    if where == (0, 0):
        matrix[1, 2] = -bad  # a later bad item must not be the one reported
    expected = (ValueError, f"refusing to serialize non-finite value {bad!r}")
    for doc in (matrix, {"a": [1.0], "b": {"c": matrix}}, matrix.ravel()):
        assert refusal(oracle_dumps, doc) == expected
        assert refusal(dumps_canonical, doc) == expected


@pytest.mark.parametrize("array, message", [
    (np.arange(3, dtype=np.int64), "cannot serialize a 1-D int64 ndarray canonically"),
    (np.zeros((2, 2, 2)), "cannot serialize a 3-D float64 ndarray canonically"),
    (np.zeros(2, np.float32), "cannot serialize a 1-D float32 ndarray canonically"),
    (np.array(0.5), "cannot serialize a 0-D float64 ndarray canonically"),
], ids=["int", "3-D", "float32", "0-D"])
def test_other_arrays_raise_type_error(array, message):
    for doc in (array, {"a": [0.5], "b": array}):
        assert refusal(oracle_dumps, doc) == (TypeError, message)
        assert refusal(dumps_canonical, doc) == (TypeError, message)


def streamed(value, copies: int = 2) -> tuple[list[str], int]:
    """What :func:`dump_canonical` writes to each of ``copies`` streams, and its return value."""
    streams = [io.StringIO() for _ in range(copies)]
    length = dump_canonical(value, streams)
    return [stream.getvalue() for stream in streams], length


@pytest.mark.parametrize("seed", range(10))
def test_streamed_seeded_documents_match_dumps(seed):
    rng = np.random.default_rng(seed)
    doc = {"root": [random_document(rng) for _ in range(6)], "edges": list(EDGE_FLOATS)}
    text = dumps_canonical(doc)
    assert streamed(doc) == ([text + "\n"] * 2, len(text))


@pytest.mark.parametrize("n_deployed", [40, 400])  # 400: 319 rows, several MiB of text
def test_streamed_analyze_report_matches_dumps(tmp_path, n_deployed):
    report = analyze_report(tmp_path, n_deployed)
    text = dumps_canonical(report)
    assert (len(text) > 2 << 20) == (n_deployed == 400)
    assert streamed(report) == ([text + "\n"] * 2, len(text))


def test_streamed_long_plain_list_matches_dumps():
    # a list of scalars, not an array: its items are written as they are walked
    doc = {"ticks": list(range(300_000)), "tail": [0.5] * 3}
    text = dumps_canonical(doc)
    assert len(text) > 2 << 20
    assert streamed(doc, copies=1) == ([text + "\n"], len(text))
    sink = CountingSink()
    dump_canonical(doc, [sink])
    assert sink.writes > 300_000  # one per item


LATE_NAN = np.arange(300_000.0).reshape(600, 500)
LATE_NAN[-1, -1] = np.nan  # found after several kernel blocks have been written


@pytest.mark.parametrize("doc", [
    {"a": [0.5], "b": {"c": [1.0, float("nan")]}},
    {"a": np.array([[0.5, 1.5], [np.inf, 2.5]])},
    {"a": LATE_NAN},
    {"a": [0.5], "b": {2: [1.0]}},
    [0.5, {1.5}],
], ids=["nan", "inf-in-array", "late-nan", "int-key", "set"])
def test_streaming_raises_as_dumps(doc):
    expected = refusal(oracle_dumps, doc)
    assert refusal(dumps_canonical, doc) == expected
    assert refusal(lambda value: dump_canonical(value, [io.StringIO()]), doc) == expected


def test_late_nan_is_refused_after_kernel_blocks_are_written(monkeypatch):
    # no pre-scan: the kernel meets the NaN in the last block, after writing the others
    kernel = KernelCalls(monkeypatch)
    stream = io.StringIO()
    with pytest.raises(ValueError, match="^refusing to serialize non-finite value nan$"):
        dump_canonical({"a": LATE_NAN}, [stream])
    assert kernel.calls == -(-LATE_NAN.size // serialize._BLOCK)
    assert len(stream.getvalue()) > (kernel.calls - 1) * serialize._BLOCK


class CountingSink:
    """A text stream that keeps only the number of characters written to it."""

    def __init__(self) -> None:
        self.chars = 0
        self.writes = 0

    def write(self, text: str) -> int:
        self.chars += len(text)
        self.writes += 1
        return len(text)


def traced_peak(value) -> tuple[int, int]:
    """The length :func:`dump_canonical` returns for ``value`` and its ``tracemalloc`` peak."""
    sink = CountingSink()
    tracemalloc.start()
    try:
        length = dump_canonical(value, [sink])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars == length + 1
    return length, peak


def test_streaming_holds_one_chunk_and_one_kernel_block(tmp_path):
    # the kernel's buffers for one block of a 2-D array are set by the block, not the document
    block = np.random.default_rng(400).random((128, 128))
    assert block.size == serialize._BLOCK
    serialize._kernel_tables()  # built once per process, not per block
    _, block_peak = traced_peak({"x": {"m": block}})
    length, peak = traced_peak(analyze_report(tmp_path, 400))
    # holding its pieces, a 1 MiB join of them, or one block's text while the next
    # block is formatted would break the bound
    assert length > 5 << 20
    assert peak < block_peak + 500_000


def test_records_hold_less_than_three_times_their_text():
    # every scalar record is one piece, written as it is yielded; a piece per key
    # and per value, each held until one join, took 5.5 times the text
    records = [record(i) for i in range(2000)]
    length, peak = traced_peak(records)
    assert length < 1 << 20
    assert peak < 3 * length


def test_record_list_is_one_write_per_record():
    sink = CountingSink()
    dump_canonical([record(i) for i in range(2000)], [sink])
    assert sink.writes == 2000 + 2  # a record each, the closing bracket, the newline


def test_long_text_is_written_whole(tmp_path):
    doc = {"m": np.arange(200_000.0).reshape(-1, 400) / 7}
    text = dumps_canonical(doc)
    assert len(text) > 2 << 20  # written in several kernel blocks
    write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_text() == text + "\n"
    assert streamed(doc) == ([text + "\n"] * 2, len(text))


class WriteLog(list):
    """A text stream that keeps each write as one item."""

    def write(self, text: str) -> int:
        self.append(text)
        return len(text)


@pytest.mark.parametrize("doc", [
    [record(i) for i in range(50)],
    {"ticks": list(range(5000)), "tail": [0.5] * 3},
    {"m": np.arange(3.0 * serialize._BLOCK).reshape(-1, 96) / 7},
], ids=["flat-records", "long-plain-list", "2-D-array"])
def test_each_write_is_one_piece_or_the_newline(doc):
    text = dumps_canonical(doc)
    log = WriteLog()
    assert dump_canonical(doc, [log]) == len(text)
    assert log == [*serialize._pieces(doc, 0), "\n"]
    assert all(log) and "".join(log) == text + "\n"


@pytest.mark.parametrize("n_deployed", [2, 5, 20, 200])  # 200: 1.4 MB, more than one block
def test_analyze_out_file_equals_stdout_and_oracle(tmp_path, capsys, n_deployed):
    # the oracle builds the whole text at once; both streamed outputs must be its bytes
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"network": {"n_deployed": n_deployed}}))
    assert cli.main(["analyze", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    stdout = capsys.readouterr().out
    assert (tmp_path / "out" / "analyze.json").read_text() == stdout
    assert stdout == oracle_dumps(cli._analyze_report(load_config(config))) + "\n"


def test_write_trace_csv_refuses_what_is_not_a_trace(tmp_path):
    with pytest.raises(ConfigInvalid, match="^trace must be a SimulationTrace, got int$"):
        serialize.write_trace_csv(tmp_path / "run.csv", 3)
    assert not (tmp_path / "run.csv").exists()
