"""The CLI's JSON writer, which only --format json requests load.  It
writes what json.dumps(value, indent=2, sort_keys=True) wrote, without
loading json."""

from __future__ import annotations

import re

_ESCAPES = {c: "\\" + e for c, e in zip("\n\r\t\b\f", "nrtbf")}


def _escape(match) -> str:
    """json's ensure_ascii escape of a character outside printable ASCII."""
    c = match.group()
    if c in _ESCAPES:
        return _ESCAPES[c]
    n = ord(c)
    if n < 0x10000:
        return "\\u%04x" % n
    n -= 0x10000  # beyond the BMP: a surrogate pair
    return "\\u%04x\\u%04x" % (0xD800 | n >> 10, 0xDC00 | n & 0x3FF)


def dumps(value, indent: str = "\n") -> str:
    """value as json.dumps(value, indent=2, sort_keys=True) writes it, for
    what a payload holds: dicts with str keys, lists, tuples, str, int,
    bool and None.  Anything else raises TypeError."""
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        text = value.replace("\\", "\\\\").replace('"', '\\"')
        if not (value.isascii() and value.isprintable()):
            text = re.sub(r"[^ -~]", _escape, text)
        return '"' + text + '"'
    inner = indent + "  "
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("keys must be str, not %r" % (list(value),))
        items = [dumps(k) + ": " + dumps(v, inner) for k, v in sorted(value.items())]
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        items, ends = [dumps(v, inner) for v in value], "[]"
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(value).__name__)
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends
