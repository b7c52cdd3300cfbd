"""Round-trip and validation tests for the key-value document format."""

import pytest
from hypothesis import given
import hypothesis.strategies as st

from cknsym.kvdoc import (
    DocumentError,
    format_kv,
    format_value,
    get_float,
    get_int,
    get_ints,
    parse_kv,
    require_keys,
)


def test_parse_basic_pairs():
    text = "alpha: 3\nname: two bumps\n"
    assert parse_kv(text) == {"alpha": "3", "name": "two bumps"}


def test_parse_skips_comments_and_blanks():
    text = "# header comment\n\nkey: value\n   # indented comment\n"
    assert parse_kv(text) == {"key": "value"}


def test_parse_splits_on_first_colon_only():
    assert parse_kv("path: C:/tmp/x\n") == {"path": "C:/tmp/x"}


def test_parse_rejects_missing_colon():
    with pytest.raises(DocumentError):
        parse_kv("just some words\n")


def test_parse_rejects_empty_key():
    with pytest.raises(DocumentError):
        parse_kv(": orphan value\n")


def test_parse_rejects_duplicate_keys():
    with pytest.raises(DocumentError):
        parse_kv("k: 1\nk: 2\n")


def test_format_preserves_order():
    text = format_kv({"b": "2", "a": "1"})
    assert text == "b: 2\na: 1\n"


# keys must survive the format unchanged: no colons, comment markers,
# newlines, or surrounding whitespace
_key = st.text(
    st.characters(min_codepoint=33, max_codepoint=126, exclude_characters=":#"),
    min_size=1, max_size=12).filter(lambda s: s.strip() == s)
_value = st.text(
    st.characters(min_codepoint=32, max_codepoint=126),
    max_size=30).filter(lambda s: s.strip() == s)


@given(st.dictionaries(_key, _value, max_size=8))
def test_round_trip(pairs):
    assert parse_kv(format_kv(pairs)) == pairs


def test_require_keys_accepts_exact_and_optional():
    pairs = {"n": "4", "alpha": "0"}
    require_keys(pairs, ("n",), optional=("alpha", "m"))


def test_require_keys_rejects_missing():
    with pytest.raises(DocumentError, match="missing"):
        require_keys({"alpha": "0"}, ("n", "alpha"))


def test_require_keys_rejects_unknown():
    with pytest.raises(DocumentError, match="unknown"):
        require_keys({"n": "4", "typo": "1"}, ("n",))


def test_format_value_per_type():
    assert format_value(True) == "yes" and format_value(False) == "no"
    assert format_value(0.1) == "0.10000000000000001"
    assert float(format_value(1 / 3)) == 1 / 3
    assert format_value((1, 0, 2)) == "1,0,2" and format_value(()) == ""
    assert format_value(7) == "7" and format_value("a_less_b") == "a_less_b"


def test_typed_readers_round_trip_and_default():
    pairs = {"i": format_value(-3), "f": format_value(2.5e-7), "m": format_value((2, 0))}
    assert get_int(pairs, "i") == -3 and get_int(pairs, "absent", 4) == 4
    assert get_float(pairs, "f", 0.0) == 2.5e-7 and get_float(pairs, "absent", 1.5) == 1.5
    assert get_ints(pairs, "m") == (2, 0) and get_ints(pairs, "absent") == ()


@pytest.mark.parametrize("read, message", [
    (lambda p: get_int(p, "absent"), "missing key 'absent'"),
    (lambda p: get_int(p, "x"), "key 'x' must be an integer, got '1.5'"),
    (lambda p: get_float(p, "y", 0.0), "key 'y' must be a number, got 'one'"),
    (lambda p: get_ints(p, "y"), "key 'y' must be comma-separated integers"),
])
def test_typed_readers_reject_bad_values(read, message):
    with pytest.raises(DocumentError) as exc:
        read({"x": "1.5", "y": "one"})
    assert str(exc.value) == message
