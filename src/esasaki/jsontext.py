"""JSON text with the bytes of ``json.dump(..., indent=1)``, assembled
from parts.

Artifacts are JSON indented by one space, and the encoder indents in
pure Python.  The large parts of an artifact (a flow's arrays, the
elements of a group diagram's K) are formatted outside it and joined
here with the encoder's text of the rest.  Encoded JSON holds no raw
newline inside a string, so text moves one level deeper by indenting
each of its newlines.
"""

from __future__ import annotations

import json

__all__ = ["indented_json", "object_json"]


def indented_json(obj, depth: int, sort_keys: bool = False) -> str:
    """json.dump(indent=1, sort_keys=sort_keys) text of obj nested
    ``depth`` levels deep."""
    return json.dumps(obj, indent=1, sort_keys=sort_keys).replace("\n", "\n" + " " * depth)


def object_json(values: dict, texts: dict) -> str:
    """json.dump(indent=1, sort_keys=True) text of the non-empty object
    holding the entries of ``values`` and those of ``texts``, whose
    values are given as their JSON text at depth 0."""
    items = {key: indented_json(value, 1, sort_keys=True) for key, value in values.items()}
    items.update((key, text.replace("\n", "\n ")) for key, text in texts.items())
    return "{" + ",".join(f"\n {json.dumps(key)}: {items[key]}" for key in sorted(items)) + "\n}"
