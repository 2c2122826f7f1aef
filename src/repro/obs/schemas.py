"""Schema registry: one table from schema id to validator/loader.

Every machine-readable artifact the project emits carries a ``schema``
tag (JSON documents) or a tagged start record (JSONL streams).  This
module is the single place those ids are declared: each entry names the
loader that validates a file of that schema, the producing CLI, and the
container kind (``json`` document vs ``jsonl`` stream), so tools can
dispatch on the tag instead of hard-coding filenames.

Use :func:`check_schema` at the top of a loader to reject a wrong or
missing schema tag with the uniform message every loader shares::

    unsupported <kind> schema 'got' (expected 'repro-x/1')

and :func:`load_document` to sniff a file's schema and dispatch to the
registered loader.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(frozen=True)
class SchemaEntry:
    """One registered schema: id, loader, and provenance metadata."""

    schema: str
    #: Human label used in wrong-schema errors ("benchmark", "steady log"...).
    kind: str
    #: ``"json"`` for one-document files, ``"jsonl"`` for line streams.
    container: str
    #: Dotted path of the loader/validator function (resolved lazily so
    #: registering a schema never imports its module).
    loader: str
    #: CLI invocation that produces documents of this schema.
    producer: str = ""
    #: Older schema ids the loader still accepts.
    compat: tuple = field(default_factory=tuple)

    def load(self, path):
        """Resolve the loader lazily and run it on ``path``."""
        mod_name, _, fn_name = self.loader.rpartition(".")
        import importlib

        fn = getattr(importlib.import_module(mod_name), fn_name)
        return fn(path)


#: schema id -> :class:`SchemaEntry`; populated below and via
#: :func:`register_schema`.
REGISTRY = {}


def register_schema(schema, *, kind, container, loader, producer="",
                    compat=()):
    """Register (or replace) a schema entry; returns the entry."""
    entry = SchemaEntry(schema=schema, kind=kind, container=container,
                        loader=loader, producer=producer,
                        compat=tuple(compat))
    REGISTRY[schema] = entry
    return entry


def schema_ids():
    """All registered schema ids, sorted."""
    return sorted(REGISTRY)


def check_schema(got, expected, kind, where=None):
    """Raise the uniform wrong-schema ``ValueError`` unless ``got`` matches.

    ``expected`` is one schema id or a tuple of acceptable ids (newest
    first); ``kind`` is the human label ("benchmark", "steady log"...);
    ``where`` optionally prefixes the message with a location (a path or
    ``"line N"``).  Returns ``got`` on success so callers can chain.
    """
    accepted = (expected,) if isinstance(expected, str) else tuple(expected)
    if got in accepted:
        return got
    if len(accepted) == 1:
        want = repr(accepted[0])
    else:
        want = f"one of {accepted!r}"
    msg = f"unsupported {kind} schema {got!r} (expected {want})"
    if where:
        msg = f"{where}: {msg}"
    raise ValueError(msg)


def sniff_schema(path):
    """Read just enough of ``path`` to return its schema id (or None).

    JSON documents carry a top-level ``"schema"`` key; JSONL streams
    carry it on the first line's start record.  Returns ``None`` when
    the file is unreadable, not JSON, or untagged.
    """
    try:
        with open(path) as fh:
            head = fh.readline()
            if not head.strip():
                return None
            try:
                record = json.loads(head)
            except ValueError:
                # Pretty-printed JSON document: load the whole file.
                fh.seek(0)
                record = json.load(fh)
    except (OSError, ValueError):
        return None
    if isinstance(record, dict):
        return record.get("schema")
    return None


def load_document(path):
    """Sniff ``path``'s schema and dispatch to the registered loader.

    Returns ``(schema_id, loaded)``.  Raises ``ValueError`` when the
    schema is missing or unregistered.
    """
    schema = sniff_schema(path)
    if schema is None:
        raise ValueError(f"{path}: no schema tag found")
    entry = REGISTRY.get(schema)
    if entry is None:
        # A compat id of a registered entry still dispatches.
        for cand in REGISTRY.values():
            if schema in cand.compat:
                entry = cand
                break
    if entry is None:
        check_schema(schema, tuple(schema_ids()), "document", where=path)
    return schema, entry.load(path)


# ---------------------------------------------------------------------------
# Built-in schemas.  Loaders are dotted paths, resolved lazily.
# ---------------------------------------------------------------------------

register_schema(
    "repro-metrics/1", kind="metrics", container="json",
    loader="repro.obs.schemas._load_metrics",
    producer="repro-experiments figures --metrics-out",
)
register_schema(
    "repro-profile/1", kind="attribution", container="json",
    loader="repro.obs.schemas._load_attrib",
    producer="repro-experiments profile --attrib-out",
)
register_schema(
    "repro-diff/2", kind="diff", container="json",
    loader="repro.obs.schemas._load_diff",
    producer="repro-experiments diff <baseline> <candidate> --json-out",
)
register_schema(
    "repro-steady/1", kind="steady log", container="jsonl",
    loader="repro.obs.steadylog.read_steady_log",
    producer="repro-experiments steady --steady-out",
)
register_schema(
    "repro-sweep/1", kind="sweep log", container="jsonl",
    loader="repro.obs.sweeplog.read_sweep_log",
    producer="repro-experiments figures --sweep-log",
)
register_schema(
    "repro-decisions/1", kind="decisions log", container="jsonl",
    loader="repro.obs.decisions.read_decisions_log",
    producer="repro-experiments decisions --decisions-out",
)


# -- thin loaders for documents whose producers are CLI-side ----------------

def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_metrics(path):
    doc = _load_json(path)
    check_schema(doc.get("schema"), "repro-metrics/1", "metrics", where=path)
    if not isinstance(doc.get("cells"), list):
        raise ValueError(f"{path}: metrics document has no cells list")
    return doc


def _load_attrib(path):
    doc = _load_json(path)
    check_schema(doc.get("schema"), "repro-profile/1", "attribution",
                 where=path)
    if not isinstance(doc.get("cells"), list):
        raise ValueError(f"{path}: attribution document has no cells list")
    return doc


def _load_diff(path):
    doc = _load_json(path)
    check_schema(doc.get("schema"), "repro-diff/2", "diff", where=path)
    if not isinstance(doc.get("cells"), list):
        raise ValueError(f"{path}: diff document has no cells list")
    return doc
