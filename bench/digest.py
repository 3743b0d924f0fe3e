"""The canonical digest of a `to_obj()` result, shared by the generator and the checks."""

from __future__ import annotations

import hashlib
import json


def digest(obj) -> str:
    """First 12 hex digits of the SHA-256 of the canonical JSON of obj."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
