import json

import numpy as np
import pytest

from floquet_forge import Bond, Gauge, ValidationError
from floquet_forge.serialization import (
    bond_id,
    fmt_float,
    json_text,
    offset_id,
    write_csv,
    write_json,
)


def test_fmt_float_roundtrips():
    for x in (0.0, -1.5, 1 / 3, 1e-17, 2.3e300, np.pi):
        assert float(fmt_float(x)) == x
    with pytest.raises(ValidationError):
        fmt_float(float("nan"))
    with pytest.raises(ValidationError):
        fmt_float(float("inf"))


def test_write_csv_formats_cells(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["a", "b", "c"], [[1, 0.5, "x"], [2, 1 / 3, True]])
    lines = p.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1].startswith("1,0.5,")
    assert float(lines[2].split(",")[1]) == 1 / 3


def test_json_text_renders_domain_types():
    obj = {
        "gauge": Gauge.STATIC_FREE,
        "value": 1.5 - 0.25j,
        "grid": np.array([1.0, 2.0]),
        "count": 3,
        "note": None,
        "flag": False,
    }
    text = json_text(obj)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["gauge"] == "static-free"
    assert parsed["value"] == {"re": 1.5, "im": -0.25}
    assert parsed["grid"] == [1.0, 2.0]
    assert parsed["note"] is None and parsed["flag"] is False


def test_json_text_is_deterministic():
    obj = {"b": [1, 2, 3], "a": {"nested": 0.1}}
    assert json_text(obj) == json_text(obj)
    # insertion order is preserved, not sorted
    assert json_text(obj).index('"b"') < json_text(obj).index('"a"')


def test_write_json_and_ids(tmp_path):
    p = tmp_path / "o.json"
    write_json(p, {"x": 1})
    assert json.loads(p.read_text()) == {"x": 1}
    assert offset_id((1, -1)) == "1_-1"
    assert offset_id((0,)) == "0"
    assert bond_id(Bond(2, 0, (1, -1), -1.0)) == "2<-0@1_-1"


def test_json_strings_round_trip_every_control_character():
    # json.dumps escapes the strings: \b \t \n \f \r get their short forms,
    # the other control characters \u00XX; quotes and backslashes are
    # escaped; DEL, U+2028 and other non-ASCII text pass through
    text = "".join(map(chr, range(0x20))) + '"\\\x7f\u2028é'
    obj = {text: [text, {"k": text}]}
    assert json.loads(json_text(obj)) == obj
    assert json_text("é\t") == '"é\\t"\n'
