"""Canonical JSON documents for algebras.

An algebra document is a single JSON object with keys, in order: ``name``,
``size``, ``labels``, ``order`` (the string "chain" or an n x n 0/1 array),
``unit``, ``product``, optional ``ldiv``/``rdiv`` (derived when absent),
optional ``zero``, optional ``masks`` (whose presence marks a partial
algebra).  Unknown keys are rejected.  Canonical serialization keeps that
key order and uses no insignificant whitespace, so equal documents are
byte-equal.
"""

from __future__ import annotations

import json
import os
import tempfile

from .algebra import (
    CHAIN,
    FiniteRL,
    FormatError,
    make_algebra,
)

_ALGEBRA_KEYS = ("name", "size", "labels", "order", "unit", "product", "ldiv", "rdiv", "zero", "masks")
_MASK_KEYS = ("product", "ldiv", "rdiv")


def _table_out(table):
    return [list(row) for row in table]


def _mask_out(mask):
    return [[1 if v else 0 for v in row] for row in mask]


def algebra_to_document(alg: FiniteRL) -> dict:
    doc = {
        "name": alg.name,
        "size": alg.size,
        "labels": list(alg.labels),
        "order": CHAIN if alg.leq is None else _mask_out(alg.leq),
        "unit": alg.unit,
        "product": _table_out(alg.product),
        "ldiv": _table_out(alg.ldiv),
        "rdiv": _table_out(alg.rdiv),
    }
    if alg.zero is not None:
        doc["zero"] = alg.zero
    if alg.masks is not None:
        doc["masks"] = {key: _mask_out(mask) for key, mask in zip(_MASK_KEYS, alg.masks)}
    return doc


def document_to_algebra(doc: dict) -> FiniteRL:
    if not isinstance(doc, dict):
        raise FormatError("algebra document must be a JSON object")
    unknown = set(doc) - set(_ALGEBRA_KEYS)
    if unknown:
        raise FormatError(f"unknown document fields: {sorted(unknown)}")
    for key in ("size", "labels", "order", "unit", "product"):
        if key not in doc:
            raise FormatError(f"missing document field {key!r}")
    size = doc["size"]
    order = doc["order"]
    if order != CHAIN and not isinstance(order, list):
        raise FormatError("order must be \"chain\" or a 0/1 array")
    masks = doc.get("masks")
    if "masks" in doc:
        if not isinstance(masks, dict) or set(masks) != set(_MASK_KEYS):
            raise FormatError("masks must contain exactly product, ldiv, rdiv")
        masks = [masks[key] for key in _MASK_KEYS]
    alg = make_algebra(
        product=doc["product"],
        unit=doc["unit"],
        order=order,
        labels=doc["labels"],
        ldiv=doc.get("ldiv"),
        rdiv=doc.get("rdiv"),
        zero=doc.get("zero"),
        name=doc.get("name", ""),
        masks=masks,
    )
    if alg.size != size:
        raise FormatError("size field disagrees with the tables")
    return alg


def dumps_canonical(doc) -> str:
    """Serialize with documented key order and no insignificant whitespace."""
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def canonical_tables_json(alg: FiniteRL) -> str:
    """Compact text of the document's structural fields (no name, labels or
    masks; ``zero`` always, null when unpointed), used to print a found
    amalgam; compare tables with ``tables_equal``."""
    doc = {key: v for key, v in algebra_to_document(alg).items() if key not in ("name", "labels", "masks")}
    doc["zero"] = alg.zero
    return dumps_canonical(doc)


def load_algebra(path: str) -> FiniteRL:
    with open(path, encoding="utf-8") as fh:
        return document_to_algebra(json.load(fh))


def write_atomic(path: str, text: str):
    """Write via a temp file and rename, so readers never see partial output;
    the file gets the mode ``open(path, "w")`` gives a new one, not 0600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
