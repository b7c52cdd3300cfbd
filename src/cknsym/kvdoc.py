"""Tiny `key: value` document format used for configs and reports.

One pair per line, `#` starts a comment, blank lines are skipped.  Order is
preserved so that emitted documents are byte-stable across runs.  This is
deliberately dumber than TOML/YAML: every value is a string.  The value
format lives here, in ``format_value`` and the typed readers, so every
document writes and reads a number, flag or integer tuple the same way;
floats carry 17 significant digits, which keeps round-trips exact.
"""

from __future__ import annotations

import operator
import sys


class DocumentError(ValueError):
    """Malformed key-value document."""


def parse_kv(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise DocumentError(f"line {lineno}: expected 'key: value', got {raw!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if not key:
            raise DocumentError(f"line {lineno}: empty key")
        if key in pairs:
            raise DocumentError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value.strip()
    return pairs


def format_kv(pairs: dict[str, str]) -> str:
    lines = [f"{key}: {value}" for key, value in pairs.items()]
    return "\n".join(lines) + "\n"


def require_keys(pairs: dict[str, str], required: tuple[str, ...],
                 optional: tuple[str, ...] = ()) -> None:
    """Reject missing required keys and any key outside required+optional."""
    missing = [k for k in required if k not in pairs]
    if missing:
        raise DocumentError(f"missing keys: {', '.join(missing)}")
    allowed = set(required) | set(optional)
    unknown = [k for k in pairs if k not in allowed]
    if unknown:
        raise DocumentError(f"unknown keys: {', '.join(sorted(unknown))}")


def exact_int(value, error: type[Exception], message: str, low: int,
              high: float = float("inf")) -> int:
    """The int of an integer ``value`` in [low, high], else ``error(message.format(value))``.
    Numpy integers are accepted; bools are refused: ``format_value`` writes yes/no."""
    if type(value) is int and low <= value <= high:  # the common case, checked first
        return value
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or not low <= number <= high:
        raise error(message.format(value))
    return number


def exact_float(value, error: type[Exception], message: str) -> float:
    """The float of ``value``, a float or an int within the float range (a JSON
    number), else ``error(message.format(value))``: bools and strings are refused."""
    if isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max):
        return float(value)
    raise error(message.format(value))


def format_value(value) -> str:
    """yes/no for a flag, 17 significant digits for a float, commas between
    the ints of a tuple, ``str`` otherwise."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _get(pairs: dict[str, str], key: str, default, parse, kind: str):
    if key not in pairs:
        if default is None:
            raise DocumentError(f"missing key {key!r}")
        return default
    try:
        return parse(pairs[key])
    except ValueError as exc:
        raise DocumentError(f"key {key!r} must be {kind}, got {pairs[key]!r}") from exc


def get_int(pairs: dict[str, str], key: str, default: int | None = None) -> int:
    """The integer under ``key``; ``default`` when absent, required when None."""
    return _get(pairs, key, default, int, "an integer")


def get_float(pairs: dict[str, str], key: str, default: float) -> float:
    return _get(pairs, key, default, float, "a number")


def get_ints(pairs: dict[str, str], key: str) -> tuple[int, ...]:
    """Comma-separated integers; an absent or empty value is the empty tuple."""
    raw = pairs.get(key, "")
    if not raw:
        return ()
    try:
        return tuple(int(v) for v in raw.split(","))
    except ValueError as exc:
        raise DocumentError(f"key {key!r} must be comma-separated integers") from exc
