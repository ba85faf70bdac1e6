"""The JSON shape checker shared by the recovery trace and the analysis
reports (hand-rolled: the repo has no jsonschema dependency)."""

from __future__ import annotations

from typing import Dict, List, Tuple

#: an object's shape: field -> (type, required)
Schema = Dict[str, Tuple[type, bool]]


def check_fields(obj: dict, schema: Schema, where: str = "") -> List[str]:
    """Problem strings for ``obj``'s missing required fields and fields of
    the wrong type (empty means valid). ``where`` names a nested object
    in the messages (``summary missing 'x'``, ``summary.x is ...``);
    without it they read ``missing field 'x'``, ``field 'x' is ...``."""
    problems: List[str] = []
    for key, (typ, required) in schema.items():
        if key not in obj:
            if required:
                problems.append(
                    f"{where} missing {key!r}" if where else f"missing field {key!r}"
                )
        elif not isinstance(obj[key], typ):
            name = f"{where}.{key}" if where else f"field {key!r}"
            problems.append(
                f"{name} is {type(obj[key]).__name__}, expected {typ.__name__}"
            )
    return problems
