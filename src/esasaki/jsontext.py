"""JSON text with the bytes of ``json.dump(..., indent=1)``, assembled
from parts.

Artifacts are JSON indented by one space, and the encoder indents in
pure Python.  The large parts of an artifact (a flow's arrays, the
reports of many points) are formatted or written outside it and joined
here with the encoder's text of the rest.  Encoded JSON holds no raw
newline inside a string, so text moves one level deeper by indenting
each of its newlines.
"""

from __future__ import annotations

import json

__all__ = ["indented_json"]


def indented_json(obj, depth: int, sort_keys: bool = False) -> str:
    """json.dump(indent=1, sort_keys=sort_keys) text of obj nested
    ``depth`` levels deep."""
    return json.dumps(obj, indent=1, sort_keys=sort_keys).replace("\n", "\n" + " " * depth)
