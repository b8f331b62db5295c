import json

import pytest

from reslat import (
    FormatError,
    algebra_to_document,
    canonical_tables_json,
    document_to_algebra,
    document_to_vformation,
    dumps_canonical,
    godel,
    tables_equal,
    vformation_to_document,
    vs_b,
    vs_formation,
    vs_k_triple,
    with_zero,
)


def test_algebra_document_round_trip(small_chain_pool):
    for alg in small_chain_pool:
        doc = algebra_to_document(alg)
        back = document_to_algebra(json.loads(dumps_canonical(doc)))
        assert tables_equal(back, alg)
        assert back.labels == alg.labels and back.name == alg.name


def test_index_order_array_round_trips_as_chain():
    doc = algebra_to_document(godel(3))
    assert doc["order"] == "chain"
    doc["order"] = [[int(x <= y) for y in range(3)] for x in range(3)]
    alg = document_to_algebra(doc)
    assert tables_equal(alg, godel(3))
    assert algebra_to_document(alg) == algebra_to_document(godel(3))


def test_partial_document_round_trip():
    K = vs_k_triple().K
    doc = algebra_to_document(K)
    back = document_to_algebra(json.loads(dumps_canonical(doc)))
    assert back.masks is not None
    assert tables_equal(back, K)  # masks included


def test_canonical_key_order_and_whitespace():
    doc = algebra_to_document(with_zero(vs_b(), 0))
    text = dumps_canonical(doc)
    assert " " not in text
    keys = list(json.loads(text).keys())
    assert keys == ["name", "size", "labels", "order", "unit", "product", "ldiv", "rdiv", "zero"]
    # byte-for-byte stable
    assert text == dumps_canonical(algebra_to_document(with_zero(vs_b(), 0)))


def test_unknown_fields_rejected():
    doc = algebra_to_document(vs_b())
    doc["flavour"] = "grape"
    with pytest.raises(FormatError):
        document_to_algebra(doc)


def test_missing_fields_rejected():
    doc = algebra_to_document(vs_b())
    del doc["product"]
    with pytest.raises(FormatError):
        document_to_algebra(doc)


def test_divisions_derived_when_absent():
    doc = algebra_to_document(vs_b())
    del doc["ldiv"]
    del doc["rdiv"]
    back = document_to_algebra(doc)
    assert back.ldiv == vs_b().ldiv and back.rdiv == vs_b().rdiv


def test_size_mismatch_rejected():
    doc = algebra_to_document(vs_b())
    doc["size"] = 5
    with pytest.raises(FormatError):
        document_to_algebra(doc)


def test_vformation_document_round_trip():
    vs = vs_formation()
    doc = vformation_to_document(vs)
    back = document_to_vformation(json.loads(dumps_canonical(doc)))
    assert back.i == vs.i and back.j == vs.j
    assert tables_equal(back.B, vs.B)


def test_vformation_accepts_builtin_names():
    vf = document_to_vformation(
        {"A": "VS.A", "B": "VS.B", "C": "VS.C", "i": [0, 2, 3], "j": [0, 3, 4]}
    )
    assert vf.B.labels == ("u", "b", "v", "1")
    with pytest.raises(FormatError):
        document_to_vformation({"A": "VS.A", "B": "VS.B", "C": "VS.C", "i": [0, 2, 3]})


def test_vformation_document_must_be_an_object_of_known_fields():
    with pytest.raises(FormatError, match="must be a JSON object"):
        document_to_vformation(["VS.A", "VS.B", "VS.C"])
    doc = {"A": "VS.A", "B": "VS.B", "C": "VS.C", "i": [0, 2, 3], "j": [0, 3, 4], "k": [0]}
    with pytest.raises(FormatError, match=r"unknown V-formation fields: \['k'\]"):
        document_to_vformation(doc)


def _tables_json_field_by_field(alg):
    """The structural fields written out one by one, as the tables text was
    built before it was derived from the document: the oracle for it."""
    doc = {
        "size": alg.size,
        "order": "chain" if alg.leq is None else [[1 if v else 0 for v in row] for row in alg.leq],
        "unit": alg.unit,
        "product": [list(row) for row in alg.product],
        "ldiv": [list(row) for row in alg.ldiv],
        "rdiv": [list(row) for row in alg.rdiv],
        "zero": alg.zero,
    }
    return dumps_canonical(doc)


def test_canonical_tables_json_is_the_documents_structural_part(small_chain_pool):
    for alg in [*small_chain_pool, with_zero(vs_b(), 0), vs_k_triple().K]:
        assert canonical_tables_json(alg) == _tables_json_field_by_field(alg)


def test_canonical_tables_json_is_label_independent():
    from reslat import relabel

    b = vs_b()
    assert canonical_tables_json(b) == canonical_tables_json(relabel(b, ("p", "q", "r", "s")))
    assert canonical_tables_json(b) != canonical_tables_json(with_zero(b, 0))
