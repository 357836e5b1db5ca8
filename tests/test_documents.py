from __future__ import annotations

from decimal import Decimal
from functools import partial

import pytest

from conftest import exec_world_doc, taxonomy_doc_classes

from csskit.documents import (
    build_world,
    document_to_text,
    endpoints_from_doc,
    load_document_text,
    offer_from_doc,
    product_from_doc,
    request_from_doc,
)
from csskit.errors import DocumentInvalidError, ParseError


def request_doc() -> dict:
    return {
        "schema": "css.request/1",
        "requestId": "req-42",
        "requiredCapabilities": [
            {"key": "cap-drill", "expression": "Drilling and (depth <= 12 mm)"},
            {"key": "cap-screw", "expression": "Screwing and (torque <= 4)"},
        ],
        "tender": {
            "quantity": 3,
            "maxUnitPrice": Decimal("5.00"),
            "maxCo2PerUnit": Decimal("2.5"),
            "deliveryDeadline": "2026-09-01T00:00:00Z",
            "requiredCertifications": ["iso9001"],
            "ndaRequired": True,
        },
        "submittedAt": "2026-08-01T00:00:00Z",
        "responseDeadline": "2026-08-20T00:00:00Z",
    }


def offer_doc() -> dict:
    return {
        "schema": "css.offer/1",
        "offerId": "off-7",
        "providerId": "provider-x",
        "requestId": "req-42",
        "coveredCapKeys": ["cap-drill"],
        "providedCapabilities": {"cap-drill": "Drilling and (depth <= 15 mm)"},
        "unitPrice": Decimal("4.50"),
        "co2PerUnit": Decimal("1.2"),
        "deliveryDate": "2026-08-25T00:00:00Z",
        "certifications": ["iso9001"],
        "ndaAccepted": True,
        "validUntil": "2026-08-30T00:00:00Z",
        "exclusiveGroup": "lot-a",
    }


def test_unknown_schema_rejected():
    with pytest.raises(DocumentInvalidError):
        load_document_text('{"schema": "css.mystery/1"}')


def test_malformed_json_is_parse_error():
    with pytest.raises(ParseError):
        load_document_text("{not json")


def test_unknown_fields_rejected(base_world):
    doc = request_doc()
    doc["surprise"] = 1
    with pytest.raises(DocumentInvalidError) as excinfo:
        request_from_doc(doc, base_world)
    assert "surprise" in str(excinfo.value)


def test_missing_fields_rejected(base_world):
    doc = offer_doc()
    del doc["unitPrice"]
    with pytest.raises(DocumentInvalidError):
        offer_from_doc(doc, base_world)


def test_world_round_trip():
    doc = exec_world_doc()
    text = document_to_text(doc)
    assert build_world([load_document_text(text)]) == build_world([doc])


def test_world_with_service_catalog_round_trips():
    doc = exec_world_doc()
    doc["catalog"] = [
        {
            "offerId": "cat-1",
            "providerId": "provider-x",
            "requestId": "template",
            "coveredCapKeys": ["cap-drill"],
            "providedCapabilities": {"cap-drill": "Drilling and (depth <= 15 mm)"},
            "unitPrice": Decimal("4.50"),
            "co2PerUnit": Decimal("1.2"),
            "deliveryDate": "2026-08-25T00:00:00Z",
            "validUntil": "2026-08-30T00:00:00Z",
        }
    ]
    world = build_world([doc])
    assert world.service_catalog[0].offer_id == "cat-1"
    text = document_to_text(doc)
    assert build_world([load_document_text(text)]) == world


def test_world_from_separate_taxonomy_doc():
    doc = exec_world_doc()
    del doc["taxonomy"]
    tax_doc = {"schema": "css.taxonomy/1", "classes": taxonomy_doc_classes()}
    world = build_world([doc, tax_doc])
    assert world.taxonomy.has_class("Drilling")


def test_world_requires_exactly_one_taxonomy():
    doc = exec_world_doc()
    tax_doc = {"schema": "css.taxonomy/1", "classes": taxonomy_doc_classes()}
    with pytest.raises(DocumentInvalidError):
        build_world([doc, tax_doc])  # inline plus separate
    bare = exec_world_doc()
    del bare["taxonomy"]
    with pytest.raises(DocumentInvalidError):
        build_world([bare])


def test_product_round_trip(base_world):
    world_doc = exec_world_doc()
    world = build_world([world_doc])
    doc = {"schema": "css.product/1", **world_doc["products"][0]}
    product = product_from_doc(doc, world)
    assert product == world.products[0]
    assert product_from_doc(load_document_text(document_to_text(doc)), world) == product


def test_request_round_trip(base_world):
    request = request_from_doc(request_doc(), base_world)
    text = document_to_text(request_doc())
    again = request_from_doc(load_document_text(text), base_world)
    assert again == request
    assert again.tender.max_unit_price == Decimal("5.00")


def test_offer_round_trip(base_world):
    offer = offer_from_doc(offer_doc(), base_world)
    text = document_to_text(offer_doc())
    again = offer_from_doc(load_document_text(text), base_world)
    assert again == offer
    assert str(again.unit_price) == "4.50"  # decimal digits survive


def test_request_validation_rules(base_world):
    bad = request_doc()
    bad["requiredCapabilities"].append(
        {"key": "cap-drill", "expression": "Drilling"}
    )
    with pytest.raises(DocumentInvalidError):
        request_from_doc(bad, base_world)

    backwards = request_doc()
    backwards["responseDeadline"] = "2026-07-01T00:00:00Z"
    with pytest.raises(DocumentInvalidError):
        request_from_doc(backwards, base_world)


@pytest.mark.parametrize("field", ["unitPrice", "co2PerUnit"])
def test_offer_negative_amount_rejected(base_world, field):
    doc = offer_doc()
    doc[field] = Decimal("-0.01")
    with pytest.raises(DocumentInvalidError) as excinfo:
        offer_from_doc(doc, base_world)
    assert field in str(excinfo.value)
    doc[field] = Decimal(0)
    assert offer_from_doc(doc, base_world)


@pytest.mark.parametrize("path", [
    "css.world/1.resources[0].skills[0].hasFeasibilityCheck",
    "css.world/1.resources[0].skills[0].hasPreconditionCheck",
    "css.request/1.tender.ndaRequired",
    "css.offer/1.ndaAccepted",
])
@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_document_booleans_are_checked_not_coerced(base_world, path, value):
    """A flag must be JSON true or false; "false" must not load as true."""
    field = path.rpartition(".")[2]
    if path.startswith("css.world/1"):
        doc = exec_world_doc()
        doc["resources"][0]["skills"][0][field] = value
        load = partial(build_world, [doc])
    elif path.startswith("css.request/1"):
        doc = request_doc()
        doc["tender"][field] = value
        load = partial(request_from_doc, doc, base_world)
    else:
        doc = offer_doc()
        doc[field] = value
        load = partial(offer_from_doc, doc, base_world)
    with pytest.raises(DocumentInvalidError) as excinfo:
        load()
    assert str(excinfo.value).startswith(f"{path}: ")


def test_offer_with_bad_expression(base_world):
    doc = offer_doc()
    doc["providedCapabilities"] = {"cap-drill": "Drilling and (depth <= fast)"}
    with pytest.raises(DocumentInvalidError):
        offer_from_doc(doc, base_world)


def test_endpoints_doc():
    doc = {
        "schema": "css.endpoints/1",
        "endpoints": {"r-driller-a": "127.0.0.1:7007"},
    }
    assert endpoints_from_doc(doc) == {"r-driller-a": "127.0.0.1:7007"}
    with pytest.raises(DocumentInvalidError):
        endpoints_from_doc({"schema": "css.endpoints/1", "endpoints": {"r": 7}})
