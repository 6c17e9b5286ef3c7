"""The schema layer shared by the five versioned ``zeus.*`` reports.

Each report module states its JSON shape once, as a table in this
small declarative language, and :func:`validate` checks a document
against it:

* a dict is a record: key -> shape; a key ending in ``?`` is optional;
* a type, or a tuple of types, is a leaf checked with ``isinstance``;
* ``[shape]`` is a list whose every item has *shape*;
* ``{str: T}`` is an object mapping names (rules, endpoints, phases)
  to values of the type (or tuple of types) *T*;
* :class:`OneOf` is a string from a fixed set.

A path names a value the way the messages do: ``design.name``,
``prover.nets[].pairs[].a``; a top-level key is ``report.<key>``.  The
checks raise ``ValueError("<kind> report: missing <path>")``,
``"<kind> report: <path> must be <types>, got <type>"`` or
``"<kind> report: bad <what> <value>"``.  What a shape cannot state
(series lengths, counts that must agree, event order, 0/1 bits) each
report's validator checks after :func:`validate` returns.

The module also builds the two blocks the reports share: the ``design``
block (:func:`design_block`, shape :data:`DESIGN`) and the SARIF 2.1.0
log that ``zeusc lint`` and ``zeusc timing`` write (:func:`sarif_log`);
:func:`json_text` is the one JSON text form every report is written in.
"""

from __future__ import annotations

import json

_DESIGN_COUNTS = ("nets", "gates", "connections", "registers")

#: The ``design`` block: the design's name and its netlist counts.
DESIGN = {"name": str, **{key: int for key in _DESIGN_COUNTS}}

#: A number, and a number or null.
NUM = (int, float)
OPT_NUM = (int, float, type(None))


class OneOf:
    """A string from *values*; *what* names it in the error message."""

    def __init__(self, what: str, *values: str):
        self.what = what
        self.values = values


def validate(kind: str, schema_id: str, doc, shape: dict) -> None:
    """Raise ``ValueError`` unless *doc* is a dict whose ``schema`` is
    *schema_id* and whose keys follow the record *shape*."""
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} report must be a dict")
    if doc.get("schema") != schema_id:
        raise ValueError(f"{kind} report: schema must be {schema_id!r}, "
                         f"got {doc.get('schema')!r}")
    _record(kind, doc, shape, "")


def check(kind: str, value, shape, path: str) -> None:
    """Raise ``ValueError`` unless *value*, found at *path*, has
    *shape* (for values a validator walks itself, such as the nodes
    of a tree of unbounded depth)."""
    if isinstance(shape, (type, tuple)):
        _expect(kind, value, shape, path)
    elif isinstance(shape, OneOf):
        _expect(kind, value, str, path)
        if value not in shape.values:
            raise ValueError(f"{kind} report: bad {shape.what} {value!r}")
    elif isinstance(shape, list):
        _expect(kind, value, list, path)
        for item in value:
            check(kind, item, shape[0], path + "[]")
    else:
        _expect(kind, value, dict, path)
        if str not in shape:
            _record(kind, value, shape, path)
            return
        want = shape[str]
        for name, item in value.items():
            if not isinstance(item, want):
                names = (want,) if isinstance(want, type) else want
                raise ValueError(
                    f"{kind} report: {path}[{name!r}] must be "
                    f"{' or '.join(t.__name__ for t in names)}")


def _expect(kind: str, value, types, path: str) -> None:
    if not isinstance(value, types):
        label = path if "." in path or "[" in path else f"report.{path}"
        raise ValueError(f"{kind} report: {label} must be {types}, "
                         f"got {type(value).__name__}")


def _record(kind: str, obj: dict, shape: dict, path: str) -> None:
    for key, sub in shape.items():
        name = key.rstrip("?")
        if name not in obj:
            if not key.endswith("?"):
                raise ValueError(
                    f"{kind} report: missing {path or 'report'}.{name}")
        # A leaf of the right type needs no further call.
        elif not (isinstance(sub, (type, tuple))
                  and isinstance(obj[name], sub)):
            check(kind, obj[name], sub, f"{path}.{name}" if path else name)


def json_text(doc) -> str:
    """*doc* as the JSON text every report is written in: two-space
    indent, sorted keys, one trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def design_block(name: str, stats: dict) -> dict:
    """The ``design`` block of a report on the design *name*, from its
    ``Netlist.stats()``."""
    return {"name": name, **{key: stats.get(key, 0)
                             for key in _DESIGN_COUNTS}}


def sarif_log(tool: str, rules: list[dict], results: list[dict]) -> str:
    """A minimal SARIF 2.1.0 log as JSON text: one run of *tool* with
    its *rules* and *results*."""
    log = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {
                "name": tool,
                "informationUri":
                    "https://example.invalid/zeus-reproduction",
                "rules": rules,
            }},
            "results": results,
        }],
    }
    return json_text(log)
