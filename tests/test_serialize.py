"""The one-pass canonical JSON emitter against its recursive reference.

``canonical_oracle.dumps_canonical`` is the emitter as first written;
:func:`sleepwatch.serialize.dumps_canonical` must give the same text for
every document whose keys need no escaping (the oracle writes keys
raw) and raise the same error for every value it refuses. Keys and
string values are escaped as ``json.dumps`` escapes a string.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from canonical_oracle import dumps_canonical as oracle_dumps
from sleepwatch import cli
from sleepwatch.config import load_config
from sleepwatch.serialize import dumps_canonical

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


def test_analyze_report_matches_oracle(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"network": {"n_deployed": 40, "initial_dead": 1}}))
    report = cli._analyze_report(load_config(config))
    assert len(report["expected_visits"]["oracle"]) > 1
    assert dumps_canonical(report) == oracle_dumps(report)


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
