"""On-disk document formats: worlds, taxonomies, products, requests, offers.

Every document is a UTF-8 JSON tree with a top-level ``schema`` field. Parsing
is strict, so interop documents fail loudly instead of drifting: each reader
checks its document's ``schema`` value before any other field, unknown fields
are rejected, and every field is read through one small set of typed readers
(``_string``, ``_optional_string``, ``_list``, ``_strings``, ``_decimal``,
``_bool``, ``_timestamp``, ``_expression``) that report a fault under the
field's path. Capability expressions travel as grammar strings and are
resolved against the world being assembled. csskit only reads documents;
``document_to_text`` renders a document tree that a caller has built.
"""

from __future__ import annotations

from decimal import Decimal
from pathlib import Path

from . import jsonio
from .errors import CssError, DocumentInvalidError
from .expressions import CapabilityExpression, parse_expression
from .market import ServiceOffer, ServiceRequest, TenderCriteria
from .model import (
    STATE_MACHINE_PROFILE,
    Capability,
    ParameterSpec,
    ProcessStep,
    Product,
    PropertyDefinition,
    Resource,
    SkillDescriptor,
    WorldModel,
)
from .taxonomy import Taxonomy, TaxonomyClass
from .values import parse_timestamp

SCHEMA_TAXONOMY = "css.taxonomy/1"
SCHEMA_WORLD = "css.world/1"
SCHEMA_PRODUCT = "css.product/1"
SCHEMA_REQUEST = "css.request/1"
SCHEMA_OFFER = "css.offer/1"
SCHEMA_ENDPOINTS = "css.endpoints/1"

KNOWN_SCHEMAS = (
    SCHEMA_TAXONOMY,
    SCHEMA_WORLD,
    SCHEMA_PRODUCT,
    SCHEMA_REQUEST,
    SCHEMA_OFFER,
    SCHEMA_ENDPOINTS,
)

def load_document_text(text: str) -> dict:
    data = jsonio.loads(text)
    if not isinstance(data, dict):
        raise DocumentInvalidError("document root must be an object")
    schema = data.get("schema")
    if schema not in KNOWN_SCHEMAS:
        raise DocumentInvalidError(f"unknown schema {schema!r}")
    return data


def load_document_file(path: str | Path) -> dict:
    return load_document_text(Path(path).read_text(encoding="utf-8"))


def document_to_text(doc: dict) -> str:
    """``doc`` as one line of ``jsonio.dumps_utf8``, the one UTF-8 writer, and an LF."""
    return jsonio.dumps_utf8(doc) + "\n"


# ---------------------------------------------------------------------------
# typed readers
# ---------------------------------------------------------------------------

def _expect(obj, where: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise DocumentInvalidError(f"{where}: expected an object")
    unknown = sorted(set(obj) - required - set(optional))
    if unknown:
        raise DocumentInvalidError(f"{where}: unknown fields {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        raise DocumentInvalidError(f"{where}: missing required fields {missing}")
    return obj


def _document(doc, schema: str, required: set[str], optional: set[str] = frozenset()) -> dict:
    """Check a standalone document's ``schema`` value, then its fields."""
    if isinstance(doc, dict) and doc.get("schema") != schema:
        raise DocumentInvalidError(
            f"{schema}: expected schema {schema!r}, found {doc.get('schema')!r}"
        )
    return _expect(doc, schema, {"schema", *required}, optional)


def _string(obj, key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise DocumentInvalidError(f"{where}.{key}: expected a non-empty string")
    return value


def _optional_string(obj, key: str, where: str, default: str | None = None) -> str | None:
    value = obj.get(key, default)
    if value is not None and not isinstance(value, str):
        raise DocumentInvalidError(f"{where}.{key}: expected a string")
    return value


def _list(obj, key: str, where: str, nonempty: bool = False, strings: bool = False) -> list:
    value = obj.get(key, [])
    if (
        not isinstance(value, list)
        or (nonempty and not value)
        or (strings and not all(isinstance(v, str) for v in value))
    ):
        kind = "a non-empty list" if nonempty else "a list"
        raise DocumentInvalidError(
            f"{where}.{key}: expected {kind}{' of strings' if strings else ''}"
        )
    return value


def _strings(obj, key: str, where: str, nonempty: bool = False) -> list[str]:
    return _list(obj, key, where, nonempty, strings=True)


def _decimal(obj, key: str, where: str) -> Decimal:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, Decimal)):
        raise DocumentInvalidError(f"{where}.{key}: expected a number")
    return value if isinstance(value, Decimal) else Decimal(value)


def _bool(obj, key: str, where: str) -> bool:
    value = obj.get(key, False)
    if not isinstance(value, bool):
        raise DocumentInvalidError(f"{where}.{key}: expected true or false")
    return value


def _timestamp(obj, key: str, where: str):
    text = _string(obj, key, where)
    try:
        return parse_timestamp(text)
    except CssError as exc:
        raise DocumentInvalidError(f"{where}.{key}: {exc.message}") from exc


def _expression(
    obj, key: str, where: str, world: WorldModel, path: str = ""
) -> CapabilityExpression:
    """Parse the expression string ``obj[key]`` against ``world``. A fault is
    reported under ``where.key``; an entry of a map, whose caller has checked
    that it is a string, is parsed as found and reported under ``path``."""
    text = obj[key] if path else _string(obj, key, where)
    try:
        return parse_expression(text, world)
    except CssError as exc:
        raise DocumentInvalidError(f"{path or f'{where}.{key}'}: {exc.message}") from exc


# ---------------------------------------------------------------------------
# taxonomy and world
# ---------------------------------------------------------------------------

def taxonomy_from_doc(doc: dict) -> Taxonomy:
    return _parse_taxonomy(_document(doc, SCHEMA_TAXONOMY, {"classes"}), SCHEMA_TAXONOMY)


def _parse_taxonomy(body: dict, where: str) -> Taxonomy:
    classes = []
    for i, item in enumerate(_list(body, "classes", where)):
        at = f"{where}.classes[{i}]"
        entry = _expect(item, at, {"id"}, {"parent", "label"})
        parent = _optional_string(entry, "parent", at)
        label = _optional_string(entry, "label", at, "")
        classes.append(TaxonomyClass(id=_string(entry, "id", at), parent=parent, label=label))
    return Taxonomy(classes=tuple(classes))


def _parse_property(item, where: str) -> PropertyDefinition:
    entry = _expect(
        item, where, {"id", "datatype"}, {"unit", "enumValues", "declaredRange"}
    )
    enum_values = _strings(entry, "enumValues", where)
    declared = entry.get("declaredRange")
    if declared is not None and (
        not isinstance(declared, list)
        or len(declared) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, Decimal)) for v in declared)
    ):
        raise DocumentInvalidError(f"{where}.declaredRange: expected [lower, upper] numbers")
    unit = _optional_string(entry, "unit", where)
    return PropertyDefinition(
        id=_string(entry, "id", where),
        datatype=_string(entry, "datatype", where),
        unit=unit,
        enum_values=tuple(enum_values),
        declared_range=None if declared is None else (declared[0], declared[1]),
    )


def _parse_parameter(item, where: str) -> ParameterSpec:
    entry = _expect(
        item, where, {"paramId", "direction", "datatype"}, {"unit", "default"}
    )
    unit = _optional_string(entry, "unit", where)
    return ParameterSpec(
        param_id=_string(entry, "paramId", where),
        direction=_string(entry, "direction", where),
        datatype=_string(entry, "datatype", where),
        unit=unit,
        default=entry.get("default"),
    )


def _parse_skill(item, where: str) -> SkillDescriptor:
    entry = _expect(
        item,
        where,
        {"skillId", "capabilityRef"},
        {"name", "parameters", "hasFeasibilityCheck", "hasPreconditionCheck",
         "stateMachineProfile"},
    )
    parameters = _list(entry, "parameters", where)
    return SkillDescriptor(
        skill_id=_string(entry, "skillId", where),
        capability_ref=_string(entry, "capabilityRef", where),
        name=_optional_string(entry, "name", where),
        parameters=tuple(
            _parse_parameter(p, f"{where}.parameters[{i}]")
            for i, p in enumerate(parameters)
        ),
        has_feasibility_check=_bool(entry, "hasFeasibilityCheck", where),
        has_precondition_check=_bool(entry, "hasPreconditionCheck", where),
        state_machine_profile=_optional_string(
            entry, "stateMachineProfile", where, STATE_MACHINE_PROFILE
        ),
    )


def _parse_capability(item, where: str, world: WorldModel) -> Capability:
    entry = _expect(
        item, where, {"id", "iri", "expression"}, {"propertyToParameter"}
    )
    mapping = entry.get("propertyToParameter", {})
    if not isinstance(mapping, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
    ):
        raise DocumentInvalidError(
            f"{where}.propertyToParameter: expected a string-to-string map"
        )
    expression = _expression(entry, "expression", where, world)
    return Capability(
        id=_string(entry, "id", where),
        iri=_string(entry, "iri", where),
        expression=expression,
        property_to_parameter=dict(mapping),
    )


def _parse_resource(item, where: str, world: WorldModel) -> Resource:
    entry = _expect(item, where, {"id"}, {"capabilities", "skills"})
    capabilities = _list(entry, "capabilities", where)
    skills = _list(entry, "skills", where)
    return Resource(
        id=_string(entry, "id", where),
        provided_capabilities=tuple(
            _parse_capability(c, f"{where}.capabilities[{i}]", world)
            for i, c in enumerate(capabilities)
        ),
        skills=tuple(
            _parse_skill(s, f"{where}.skills[{i}]") for i, s in enumerate(skills)
        ),
    )


def _parse_step(item, where: str, world: WorldModel) -> ProcessStep:
    entry = _expect(
        item, where, {"id", "requiredCapability"}, {"parameterValues"}
    )
    values = entry.get("parameterValues", {})
    if not isinstance(values, dict):
        raise DocumentInvalidError(f"{where}.parameterValues: expected an object")
    required = _expression(entry, "requiredCapability", where, world)
    return ProcessStep(
        id=_string(entry, "id", where),
        required_capability=required,
        parameter_values=dict(values),
    )


def product_from_doc(doc: dict, world: WorldModel) -> Product:
    body = _document(doc, SCHEMA_PRODUCT, {"id", "steps"})
    return _parse_product(body, SCHEMA_PRODUCT, world)


def _parse_product(body: dict, where: str, world: WorldModel) -> Product:
    steps = _list(body, "steps", where)
    return Product(
        id=_string(body, "id", where),
        steps=tuple(
            _parse_step(step, f"{where}.steps[{i}]", world)
            for i, step in enumerate(steps)
        ),
    )


def build_world(docs: list[dict]) -> WorldModel:
    """Assemble a world from one css.world/1 plus optional taxonomy/product docs."""
    grouped = {SCHEMA_WORLD: [], SCHEMA_TAXONOMY: [], SCHEMA_PRODUCT: []}
    for doc in docs:
        if doc.get("schema") not in (SCHEMA_WORLD, SCHEMA_TAXONOMY, SCHEMA_PRODUCT):
            raise DocumentInvalidError(
                f"cannot build a world from schema {doc.get('schema')!r}"
            )
        grouped[doc["schema"]].append(doc)
    world_docs, taxonomy_docs, product_docs = grouped.values()
    if len(world_docs) > 1:
        raise DocumentInvalidError("more than one css.world/1 document given")
    if len(taxonomy_docs) > 1:
        raise DocumentInvalidError("more than one css.taxonomy/1 document given")

    body = None
    if world_docs:
        body = _document(
            world_docs[0],
            SCHEMA_WORLD,
            {"properties", "resources"},
            {"taxonomy", "products"},
        )

    taxonomy = None
    if taxonomy_docs:
        taxonomy = taxonomy_from_doc(taxonomy_docs[0])
    if body is not None and body.get("taxonomy") is not None:
        if taxonomy is not None:
            raise DocumentInvalidError(
                "taxonomy given both inline and as a separate document"
            )
        where = f"{SCHEMA_WORLD}.taxonomy"
        taxonomy = _parse_taxonomy(_expect(body["taxonomy"], where, {"classes"}), where)
    if taxonomy is None:
        raise DocumentInvalidError("no taxonomy provided")

    if body is None:
        return WorldModel(taxonomy=taxonomy)

    properties = tuple(
        _parse_property(p, f"{SCHEMA_WORLD}.properties[{i}]")
        for i, p in enumerate(_list(body, "properties", SCHEMA_WORLD))
    )
    world = WorldModel(taxonomy=taxonomy, property_defs=properties)
    resources = tuple(
        _parse_resource(r, f"{SCHEMA_WORLD}.resources[{i}]", world)
        for i, r in enumerate(_list(body, "resources", SCHEMA_WORLD))
    )
    products = []
    for i, item in enumerate(_list(body, "products", SCHEMA_WORLD)):
        where = f"{SCHEMA_WORLD}.products[{i}]"
        products.append(_parse_product(_expect(item, where, {"id", "steps"}), where, world))
    products += (product_from_doc(doc, world) for doc in product_docs)
    return WorldModel(
        taxonomy=taxonomy,
        property_defs=properties,
        resources=resources,
        products=tuple(products),
    )


# ---------------------------------------------------------------------------
# requests and offers
# ---------------------------------------------------------------------------

def request_from_doc(doc: dict, world: WorldModel) -> ServiceRequest:
    body = _document(
        doc,
        SCHEMA_REQUEST,
        {"requestId", "requiredCapabilities", "tender", "submittedAt", "responseDeadline"},
    )
    required = []
    for i, item in enumerate(
        _list(body, "requiredCapabilities", SCHEMA_REQUEST, nonempty=True)
    ):
        where = f"{SCHEMA_REQUEST}.requiredCapabilities[{i}]"
        entry = _expect(item, where, {"key", "expression"})
        expression = _expression(entry, "expression", where, world)
        required.append((_string(entry, "key", where), expression))

    tender_where = f"{SCHEMA_REQUEST}.tender"
    tender_body = _expect(
        body["tender"],
        tender_where,
        {"quantity", "maxUnitPrice", "maxCo2PerUnit", "deliveryDeadline"},
        {"requiredCertifications", "ndaRequired"},
    )
    quantity = tender_body.get("quantity")
    if isinstance(quantity, bool) or not isinstance(quantity, int) or quantity <= 0:
        raise DocumentInvalidError(f"{tender_where}.quantity: expected a positive integer")
    certifications = _strings(tender_body, "requiredCertifications", tender_where)
    tender = TenderCriteria(
        quantity=quantity,
        max_unit_price=_decimal(tender_body, "maxUnitPrice", tender_where),
        max_co2_per_unit=_decimal(tender_body, "maxCo2PerUnit", tender_where),
        delivery_deadline=_timestamp(tender_body, "deliveryDeadline", tender_where),
        required_certifications=frozenset(certifications),
        nda_required=_bool(tender_body, "ndaRequired", tender_where),
    )
    request = ServiceRequest(
        request_id=_string(body, "requestId", SCHEMA_REQUEST),
        required_capabilities=tuple(required),
        tender=tender,
        submitted_at=_timestamp(body, "submittedAt", SCHEMA_REQUEST),
        response_deadline=_timestamp(body, "responseDeadline", SCHEMA_REQUEST),
    )
    if len(set(request.cap_keys())) != len(request.cap_keys()):
        raise DocumentInvalidError(
            f"{SCHEMA_REQUEST}.requiredCapabilities: duplicate capability keys"
        )
    if request.response_deadline <= request.submitted_at:
        raise DocumentInvalidError(
            f"{SCHEMA_REQUEST}: responseDeadline must be after submittedAt"
        )
    return request


def offer_from_doc(doc: dict, world: WorldModel) -> ServiceOffer:
    where = SCHEMA_OFFER
    body = _document(
        doc,
        where,
        {
            "offerId", "providerId", "requestId", "coveredCapKeys", "providedCapabilities",
            "unitPrice", "co2PerUnit", "deliveryDate", "validUntil",
        },
        {"certifications", "ndaAccepted", "exclusiveGroup"},
    )
    covered = _strings(body, "coveredCapKeys", where, nonempty=True)
    raw_provided = body.get("providedCapabilities")
    if not isinstance(raw_provided, dict):
        raise DocumentInvalidError(f"{where}.providedCapabilities: expected an object")
    provided = {}
    for key, text in raw_provided.items():
        path = f"{where}.providedCapabilities[{key}]"
        if not isinstance(text, str):
            raise DocumentInvalidError(f"{path}: expected an expression string")
        provided[key] = _expression(raw_provided, key, where, world, path)
    certifications = _strings(body, "certifications", where)
    exclusive_group = _optional_string(body, "exclusiveGroup", where)
    # selection's cost bound needs non-negative prices; negative CO2 is meaningless
    amounts = {key: _decimal(body, key, where) for key in ("unitPrice", "co2PerUnit")}
    for key, amount in amounts.items():
        if amount < 0:
            raise DocumentInvalidError(f"{where}.{key}: must not be negative")
    return ServiceOffer(
        offer_id=_string(body, "offerId", where),
        provider_id=_string(body, "providerId", where),
        request_id=_string(body, "requestId", where),
        covered_cap_keys=tuple(covered),
        provided_capabilities=provided,
        unit_price=amounts["unitPrice"],
        co2_per_unit=amounts["co2PerUnit"],
        delivery_date=_timestamp(body, "deliveryDate", where),
        certifications=frozenset(certifications),
        nda_accepted=_bool(body, "ndaAccepted", where),
        valid_until=_timestamp(body, "validUntil", where),
        exclusive_group=exclusive_group,
    )


def endpoints_from_doc(doc: dict) -> dict[str, str]:
    endpoints = _document(doc, SCHEMA_ENDPOINTS, {"endpoints"})["endpoints"]
    if not isinstance(endpoints, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in endpoints.items()
    ):
        raise DocumentInvalidError(
            f"{SCHEMA_ENDPOINTS}.endpoints: expected a map of resource id to host:port"
        )
    for resource_id, endpoint in endpoints.items():
        host, _, port = endpoint.rpartition(":")
        # the length first: from Python 3.11 on, int() refuses a longer run of digits
        if not (
            host and len(port) <= jsonio.MAX_INT_DIGITS and port.isascii() and port.isdigit()
            and int(port) <= 65535
        ):
            raise DocumentInvalidError(
                f"{SCHEMA_ENDPOINTS}.endpoints[{resource_id}]: "
                "expected host:port with a port from 0 to 65535"
            )
    return dict(endpoints)
