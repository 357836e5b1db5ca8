from __future__ import annotations

from decimal import Decimal
from functools import partial

import pytest

from conftest import exec_world_doc, taxonomy_doc_classes

from csskit import jsonio
from csskit.documents import (
    build_world,
    document_to_text,
    endpoints_from_doc,
    load_document_text,
    offer_from_doc,
    product_from_doc,
    request_from_doc,
    taxonomy_from_doc,
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


@pytest.mark.parametrize("text, key", [
    ('{"schema": "css.offer/1", "schema": "css.world/1"}', "schema"),
    ('{"schema": "css.world/1", "taxonomy": {"classes": [], "classes": []}}', "classes"),
], ids=["top-level", "nested"])
def test_a_repeated_key_is_a_parse_error(text, key):
    """A repeated key is refused, not read as its last value, at any depth."""
    with pytest.raises(ParseError) as excinfo:
        load_document_text(text)
    assert excinfo.value.message == f"duplicate object key {key!r}"


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
    text = jsonio.dumps(doc)
    assert build_world([load_document_text(text)]) == build_world([doc])


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


def _taxonomy_doc() -> dict:
    return {"schema": "css.taxonomy/1", "classes": taxonomy_doc_classes()}


@pytest.mark.parametrize("build, message", [
    (lambda: load_document_text('[{"schema": "css.world/1"}]'), "document root must be an object"),
    (lambda: build_world([exec_world_doc(), offer_doc()]),
     "cannot build a world from schema 'css.offer/1'"),
    (lambda: build_world([_taxonomy_doc(), _taxonomy_doc()]),
     "more than one css.taxonomy/1 document given"),
], ids=["array root", "offer among world documents", "two taxonomies"])
def test_document_assembly_faults_say_what_is_wrong(build, message):
    with pytest.raises(DocumentInvalidError) as excinfo:
        build()
    assert excinfo.value.message == message


def test_product_round_trip(base_world):
    world_doc = exec_world_doc()
    world = build_world([world_doc])
    doc = {"schema": "css.product/1", **world_doc["products"][0]}
    product = product_from_doc(doc, world)
    assert product == world.products[0]
    assert product_from_doc(load_document_text(jsonio.dumps(doc)), world) == product


def test_request_round_trip(base_world):
    request = request_from_doc(request_doc(), base_world)
    text = jsonio.dumps(request_doc())
    again = request_from_doc(load_document_text(text), base_world)
    assert again == request
    assert again.tender.max_unit_price == Decimal("5.00")


def test_offer_round_trip(base_world):
    offer = offer_from_doc(offer_doc(), base_world)
    text = jsonio.dumps(offer_doc())
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


@pytest.mark.parametrize("endpoint", ["h:0", "h:65535", "::1:7007"])
def test_endpoints_doc_accepts_host_port(endpoint):
    doc = {"schema": "css.endpoints/1", "endpoints": {"r": endpoint}}
    assert endpoints_from_doc(doc) == {"r": endpoint}


@pytest.mark.parametrize(
    "endpoint",
    [
        "h", "h:", ":1", "h:7x", "h:-1", "h:+1", "h:65536",
        pytest.param("h:" + "7" * 5000, id="h:port-of-5000-digits"),
    ],
)
def test_endpoints_doc_rejects_what_is_not_host_port(endpoint):
    doc = {"schema": "css.endpoints/1", "endpoints": {"r": "h:1", "r2": endpoint}}
    with pytest.raises(DocumentInvalidError) as excinfo:
        endpoints_from_doc(doc)
    assert excinfo.value.message == (
        "css.endpoints/1.endpoints[r2]: expected host:port with a port from 0 to 65535"
    )


def _load_in_world(load, doc):
    return load(doc, build_world([exec_world_doc()]))


@pytest.mark.parametrize("schema, load, doc", [
    ("css.taxonomy/1", taxonomy_from_doc,
     {"schema": "css.product/1", "classes": taxonomy_doc_classes()}),
    ("css.product/1", partial(_load_in_world, product_from_doc),
     {**exec_world_doc()["products"][0], "schema": "css.offer/1"}),
    ("css.request/1", partial(_load_in_world, request_from_doc),
     {**request_doc(), "schema": "css.offer/1"}),
    ("css.offer/1", partial(_load_in_world, offer_from_doc),
     {**offer_doc(), "schema": "css.request/1"}),
    ("css.endpoints/1", endpoints_from_doc,
     {"schema": "css.world/1", "endpoints": {"r-driller-a": "h:1"}}),
], ids=["taxonomy", "product", "request", "offer", "endpoints"])
def test_standalone_readers_check_their_schema(schema, load, doc):
    doc = dict(doc)
    found = doc["schema"]
    with pytest.raises(DocumentInvalidError) as excinfo:
        load(doc)
    assert excinfo.value.message == (
        f"{schema}: expected schema {schema!r}, found {found!r}"
    )
    del doc["schema"]
    with pytest.raises(DocumentInvalidError) as excinfo:
        load(doc)
    assert excinfo.value.message == f"{schema}: expected schema {schema!r}, found None"


# ---------------------------------------------------------------------------
# golden messages: one fault at a time in each record kind
# ---------------------------------------------------------------------------

DROP = object()


#: record kind -> (base document, path of the record in it, loader)
RECORD_KINDS = {
    "class": (exec_world_doc, "taxonomy/classes/0", build_world),
    "property": (exec_world_doc, "properties/0", build_world),
    "parameter": (exec_world_doc, "resources/0/skills/0/parameters/0", build_world),
    "skill": (exec_world_doc, "resources/0/skills/0", build_world),
    "capability": (exec_world_doc, "resources/0/capabilities/0", build_world),
    "resource": (exec_world_doc, "resources/0", build_world),
    "step": (exec_world_doc, "products/0/steps/0", build_world),
    "product": (exec_world_doc, "products/0", build_world),
    "taxonomy": (exec_world_doc, "taxonomy", build_world),
    "world": (exec_world_doc, "", build_world),
    "product-doc": (
        lambda: {"schema": "css.product/1", **exec_world_doc()["products"][0]},
        "",
        partial(_load_in_world, product_from_doc),
    ),
    "taxonomy-doc": (
        lambda: {"schema": "css.taxonomy/1", "classes": taxonomy_doc_classes()},
        "",
        taxonomy_from_doc,
    ),
    "request": (request_doc, "", partial(_load_in_world, request_from_doc)),
    "request-key": (
        request_doc, "requiredCapabilities/0", partial(_load_in_world, request_from_doc)
    ),
    "tender": (request_doc, "tender", partial(_load_in_world, request_from_doc)),
    "offer": (offer_doc, "", partial(_load_in_world, offer_from_doc)),
    "endpoints": (
        lambda: {"schema": "css.endpoints/1", "endpoints": {"r-driller-a": "h:1"}},
        "",
        endpoints_from_doc,
    ),
}


def _step_into(node, part: str):
    return node[int(part)] if isinstance(node, list) else node[part]


def _mutate(doc: dict, record: str, faults: dict) -> None:
    for path, value in faults.items():
        parts = [p for p in f"{record}/{path}".split("/") if p]
        node = doc
        for part in parts[:-1]:
            node = _step_into(node, part)
        if value is DROP:
            del node[parts[-1]]
        else:
            node[parts[-1]] = value


W = "css.world/1"
CLS = f"{W}.taxonomy.classes[0]"
PROP = f"{W}.properties[0]"
RES = f"{W}.resources[0]"
SKILL = f"{RES}.skills[0]"
PARAM = f"{SKILL}.parameters[0]"
CAP = f"{RES}.capabilities[0]"
STEP = f"{W}.products[0].steps[0]"
REQ = "css.request/1"
KEY = f"{REQ}.requiredCapabilities[0]"
TENDER = f"{REQ}.tender"
OFF = "css.offer/1"

#: (record kind, {field path: wrong value or DROP}, message). A case with two
#: faults pins which of them is reported first. Every message reads as it did
#: before the typed readers, except where a comment says otherwise and except
#: that a non-string timestamp or expression now names its path once.
GOLDEN_MESSAGES = [
    ("class", {"id": 5},
     f"{CLS}.id: expected a non-empty string"),
    ("class", {"parent": 5},
     f"{CLS}.parent: expected a string"),
    # newly checked
    ("class", {"label": 5},
     f"{CLS}.label: expected a string"),
    ("class", {"id": DROP},
     f"{CLS}: missing required fields ['id']"),
    ("class", {"surprise": 1},
     f"{CLS}: unknown fields ['surprise']"),
    ("class", {"parent": 5, "id": 5},
     f"{CLS}.parent: expected a string"),
    ("property", {"id": 5},
     f"{PROP}.id: expected a non-empty string"),
    ("property", {"datatype": 5},
     f"{PROP}.datatype: expected a non-empty string"),
    ("property", {"unit": 5},
     f"{PROP}.unit: expected a string"),
    ("property", {"enumValues": "steel"},
     f"{PROP}.enumValues: expected a list of strings"),
    ("property", {"enumValues": [1]},
     f"{PROP}.enumValues: expected a list of strings"),
    ("property", {"declaredRange": "0..100"},
     f"{PROP}.declaredRange: expected [lower, upper] numbers"),
    ("property", {"datatype": DROP},
     f"{PROP}: missing required fields ['datatype']"),
    ("property", {"surprise": 1},
     f"{PROP}: unknown fields ['surprise']"),
    ("property", {"enumValues": "steel", "id": 5},
     f"{PROP}.enumValues: expected a list of strings"),
    ("parameter", {"paramId": 5},
     f"{PARAM}.paramId: expected a non-empty string"),
    ("parameter", {"direction": 5},
     f"{PARAM}.direction: expected a non-empty string"),
    ("parameter", {"datatype": 5},
     f"{PARAM}.datatype: expected a non-empty string"),
    ("parameter", {"unit": 5},
     f"{PARAM}.unit: expected a string"),
    ("parameter", {"paramId": DROP},
     f"{PARAM}: missing required fields ['paramId']"),
    ("parameter", {"surprise": 1},
     f"{PARAM}: unknown fields ['surprise']"),
    ("skill", {"skillId": 5},
     f"{SKILL}.skillId: expected a non-empty string"),
    ("skill", {"capabilityRef": 5},
     f"{SKILL}.capabilityRef: expected a non-empty string"),
    # newly checked
    ("skill", {"name": ["x"]},
     f"{SKILL}.name: expected a string"),
    ("skill", {"parameters": {}},
     f"{SKILL}.parameters: expected a list"),
    ("skill", {"hasFeasibilityCheck": "yes"},
     f"{SKILL}.hasFeasibilityCheck: expected true or false"),
    ("skill", {"hasPreconditionCheck": "yes"},
     f"{SKILL}.hasPreconditionCheck: expected true or false"),
    # newly checked
    ("skill", {"stateMachineProfile": 5},
     f"{SKILL}.stateMachineProfile: expected a string"),
    ("skill", {"skillId": DROP},
     f"{SKILL}: missing required fields ['skillId']"),
    ("skill", {"surprise": 1},
     f"{SKILL}: unknown fields ['surprise']"),
    ("skill", {"parameters": {}, "skillId": 5},
     f"{SKILL}.parameters: expected a list"),
    ("capability", {"id": 5},
     f"{CAP}.id: expected a non-empty string"),
    ("capability", {"iri": 5},
     f"{CAP}.iri: expected a non-empty string"),
    ("capability", {"expression": 5},
     f"{CAP}.expression: expected a non-empty string"),
    ("capability", {"expression": "Drilling and (depth <= fast)"},
     f"{CAP}.expression: non-numeric literal 'fast' on integer property 'depth'"),
    ("capability", {"propertyToParameter": []},
     f"{CAP}.propertyToParameter: expected a string-to-string map"),
    ("capability", {"iri": DROP},
     f"{CAP}: missing required fields ['iri']"),
    ("capability", {"surprise": 1},
     f"{CAP}: unknown fields ['surprise']"),
    ("capability", {"propertyToParameter": [], "expression": 5},
     f"{CAP}.propertyToParameter: expected a string-to-string map"),
    ("resource", {"id": 5},
     f"{RES}.id: expected a non-empty string"),
    # reworded: each resource case below that ends in "expected a list"
    # read "{RES}: capabilities/skills must be lists" before
    ("resource", {"capabilities": {}},
     f"{RES}.capabilities: expected a list"),
    ("resource", {"skills": {}},
     f"{RES}.skills: expected a list"),
    ("resource", {"id": DROP},
     f"{RES}: missing required fields ['id']"),
    ("resource", {"surprise": 1},
     f"{RES}: unknown fields ['surprise']"),
    ("resource", {"capabilities/0/id": 5, "skills": {}},
     f"{RES}.skills: expected a list"),
    ("resource", {"id": 5, "skills": {}},
     f"{RES}.skills: expected a list"),
    ("step", {"id": 5},
     f"{STEP}.id: expected a non-empty string"),
    ("step", {"requiredCapability": 5},
     f"{STEP}.requiredCapability: expected a non-empty string"),
    ("step", {"requiredCapability": "Drilling and (speed <= 3)"},
     f"{STEP}.requiredCapability: property 'speed' is not defined"),
    ("step", {"parameterValues": []},
     f"{STEP}.parameterValues: expected an object"),
    ("step", {"requiredCapability": DROP},
     f"{STEP}: missing required fields ['requiredCapability']"),
    ("step", {"surprise": 1},
     f"{STEP}: unknown fields ['surprise']"),
    ("step", {"parameterValues": [], "requiredCapability": 5},
     f"{STEP}.parameterValues: expected an object"),
    ("product", {"id": 5},
     f"{W}.products[0].id: expected a non-empty string"),
    ("product", {"steps": {}},
     f"{W}.products[0].steps: expected a list"),
    ("product", {"steps": DROP},
     f"{W}.products[0]: missing required fields ['steps']"),
    ("product", {"surprise": 1},
     f"{W}.products[0]: unknown fields ['surprise']"),
    ("product", {"steps": {}, "id": 5},
     f"{W}.products[0].steps: expected a list"),
    ("product-doc", {"id": 5},
     "css.product/1.id: expected a non-empty string"),
    ("product-doc", {"steps": {}},
     "css.product/1.steps: expected a list"),
    ("product-doc", {"id": DROP},
     "css.product/1: missing required fields ['id']"),
    ("product-doc", {"surprise": 1},
     "css.product/1: unknown fields ['surprise']"),
    ("taxonomy", {"classes": "x"},
     f"{W}.taxonomy.classes: expected a list"),
    ("taxonomy", {"classes": DROP},
     f"{W}.taxonomy: missing required fields ['classes']"),
    ("taxonomy", {"surprise": 1},
     f"{W}.taxonomy: unknown fields ['surprise']"),
    ("taxonomy-doc", {"classes": "x"},
     "css.taxonomy/1.classes: expected a list"),
    ("taxonomy-doc", {"classes": DROP},
     "css.taxonomy/1: missing required fields ['classes']"),
    ("taxonomy-doc", {"surprise": 1},
     "css.taxonomy/1: unknown fields ['surprise']"),
    ("world", {"taxonomy": 5},
     f"{W}.taxonomy: expected an object"),
    ("world", {"properties": {}},
     f"{W}.properties: expected a list"),
    ("world", {"resources": {}},
     f"{W}.resources: expected a list"),
    ("world", {"products": {}},
     f"{W}.products: expected a list"),
    ("world", {"catalog": {}},
     f"{W}: unknown fields ['catalog']"),
    ("world", {"catalog": [{key: value for key, value in offer_doc().items() if key != "schema"}]},
     f"{W}: unknown fields ['catalog']"),
    ("world", {"catalog": [], "surprise": 1},
     f"{W}: unknown fields ['catalog', 'surprise']"),
    ("world", {"properties": DROP},
     f"{W}: missing required fields ['properties']"),
    ("world", {"surprise": 1},
     f"{W}: unknown fields ['surprise']"),
    ("world", {"properties": {}, "resources": {}},
     f"{W}.properties: expected a list"),
    ("world", {"resources/0/id": 5, "products/0/id": 5},
     f"{RES}.id: expected a non-empty string"),
    ("world", {"properties/0/id": 5, "taxonomy/classes/0/id": 5},
     f"{CLS}.id: expected a non-empty string"),
    ("request", {"requestId": 5},
     f"{REQ}.requestId: expected a non-empty string"),
    ("request", {"requiredCapabilities": {}},
     f"{REQ}.requiredCapabilities: expected a non-empty list"),
    ("request", {"requiredCapabilities": []},
     f"{REQ}.requiredCapabilities: expected a non-empty list"),
    ("request", {"tender": []},
     f"{TENDER}: expected an object"),
    ("request", {"submittedAt": 5},
     f"{REQ}.submittedAt: expected a non-empty string"),
    ("request", {"responseDeadline": 5},
     f"{REQ}.responseDeadline: expected a non-empty string"),
    ("request", {"requestId": DROP},
     f"{REQ}: missing required fields ['requestId']"),
    ("request", {"surprise": 1},
     f"{REQ}: unknown fields ['surprise']"),
    ("request", {"requiredCapabilities": {}, "tender": []},
     f"{REQ}.requiredCapabilities: expected a non-empty list"),
    ("request", {"tender": [], "requestId": 5},
     f"{TENDER}: expected an object"),
    ("request-key", {"key": 5},
     f"{KEY}.key: expected a non-empty string"),
    ("request-key", {"expression": 5},
     f"{KEY}.expression: expected a non-empty string"),
    ("request-key", {"expression": "Drilling and (depth <= fast)"},
     f"{KEY}.expression: non-numeric literal 'fast' on integer property 'depth'"),
    ("request-key", {"key": DROP},
     f"{KEY}: missing required fields ['key']"),
    ("request-key", {"surprise": 1},
     f"{KEY}: unknown fields ['surprise']"),
    ("request-key", {"key": 5, "expression": 5},
     f"{KEY}.expression: expected a non-empty string"),
    ("tender", {"quantity": "3"},
     f"{TENDER}.quantity: expected a positive integer"),
    ("tender", {"maxUnitPrice": "5"},
     f"{TENDER}.maxUnitPrice: expected a number"),
    ("tender", {"maxCo2PerUnit": "5"},
     f"{TENDER}.maxCo2PerUnit: expected a number"),
    ("tender", {"deliveryDeadline": 5},
     f"{TENDER}.deliveryDeadline: expected a non-empty string"),
    ("tender", {"requiredCertifications": "iso9001"},
     f"{TENDER}.requiredCertifications: expected a list of strings"),
    ("tender", {"ndaRequired": "yes"},
     f"{TENDER}.ndaRequired: expected true or false"),
    ("tender", {"quantity": DROP},
     f"{TENDER}: missing required fields ['quantity']"),
    ("tender", {"surprise": 1},
     f"{TENDER}: unknown fields ['surprise']"),
    ("tender", {"requiredCertifications": "iso9001", "quantity": "3"},
     f"{TENDER}.quantity: expected a positive integer"),
    ("tender", {"ndaRequired": "yes", "maxUnitPrice": "5"},
     f"{TENDER}.maxUnitPrice: expected a number"),
    ("offer", {"offerId": 5},
     f"{OFF}.offerId: expected a non-empty string"),
    ("offer", {"providerId": 5},
     f"{OFF}.providerId: expected a non-empty string"),
    ("offer", {"requestId": 5},
     f"{OFF}.requestId: expected a non-empty string"),
    ("offer", {"coveredCapKeys": "cap-drill"},
     f"{OFF}.coveredCapKeys: expected a non-empty list of strings"),
    ("offer", {"coveredCapKeys": []},
     f"{OFF}.coveredCapKeys: expected a non-empty list of strings"),
    ("offer", {"providedCapabilities": []},
     f"{OFF}.providedCapabilities: expected an object"),
    ("offer", {"providedCapabilities": {"cap-drill": 5}},
     f"{OFF}.providedCapabilities[cap-drill]: expected an expression string"),
    ("offer", {"providedCapabilities": {"cap-drill": "Drilling and (depth <= fast)"}},
     f"{OFF}.providedCapabilities[cap-drill]: "
     "non-numeric literal 'fast' on integer property 'depth'"),
    ("offer", {"unitPrice": "4.50"},
     f"{OFF}.unitPrice: expected a number"),
    ("offer", {"co2PerUnit": "1.2"},
     f"{OFF}.co2PerUnit: expected a number"),
    ("offer", {"deliveryDate": 5},
     f"{OFF}.deliveryDate: expected a non-empty string"),
    ("offer", {"validUntil": 5},
     f"{OFF}.validUntil: expected a non-empty string"),
    ("offer", {"certifications": "iso9001"},
     f"{OFF}.certifications: expected a list of strings"),
    ("offer", {"ndaAccepted": "yes"},
     f"{OFF}.ndaAccepted: expected true or false"),
    ("offer", {"exclusiveGroup": 5},
     f"{OFF}.exclusiveGroup: expected a string"),
    ("offer", {"unitPrice": DROP},
     f"{OFF}: missing required fields ['unitPrice']"),
    ("offer", {"surprise": 1},
     f"{OFF}: unknown fields ['surprise']"),
    ("offer", {"providedCapabilities": [], "coveredCapKeys": "cap-drill"},
     f"{OFF}.coveredCapKeys: expected a non-empty list of strings"),
    ("offer", {"unitPrice": "4.50", "exclusiveGroup": 5, "certifications": "x"},
     f"{OFF}.certifications: expected a list of strings"),
    ("offer", {"offerId": 5, "unitPrice": Decimal("-1")},
     f"{OFF}.unitPrice: must not be negative"),
    ("endpoints", {"endpoints": []},
     "css.endpoints/1.endpoints: expected a map of resource id to host:port"),
    ("endpoints", {"endpoints": {"r-driller-a": 7}},
     "css.endpoints/1.endpoints: expected a map of resource id to host:port"),
    ("endpoints", {"endpoints": DROP},
     "css.endpoints/1: missing required fields ['endpoints']"),
    ("endpoints", {"surprise": 1},
     "css.endpoints/1: unknown fields ['surprise']"),
]


def _golden_id(case) -> str:
    kind, faults, _ = case
    return kind + ":" + ",".join(
        f"{path}-{'drop' if value is DROP else type(value).__name__}"
        for path, value in faults.items()
    )


@pytest.mark.parametrize("case", GOLDEN_MESSAGES, ids=_golden_id)
def test_golden_document_messages(case):
    kind, faults, message = case
    make, record, load = RECORD_KINDS[kind]
    doc = make()
    _mutate(doc, record, faults)
    with pytest.raises(DocumentInvalidError) as excinfo:
        load([doc] if load is build_world else doc)
    assert excinfo.value.message == message


def test_document_to_text_writes_a_lone_surrogate_as_its_escape():
    doc = {**offer_doc(), "offerId": "\ud800"}
    text = document_to_text(doc)
    text.encode("utf-8")  # a raw lone surrogate would raise UnicodeEncodeError
    assert '"offerId":"\\ud800",' in text
    assert load_document_text(text) == doc


def test_document_to_text_of_a_document_without_a_lone_surrogate_is_its_json_line():
    doc = exec_world_doc()
    doc["properties"][0]["id"] = "dépth \U0001f529"
    assert document_to_text(doc) == jsonio.dumps(doc) + "\n"
