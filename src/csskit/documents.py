"""On-disk document formats: worlds, taxonomies, products, requests, offers.

Every document is a UTF-8 JSON tree with a top-level ``schema`` field.
Parsing is strict: unknown schema strings and unknown fields are rejected,
so interop documents fail loudly instead of drifting. Capability
expressions travel as grammar strings and are resolved against the world
being assembled. csskit only reads documents; ``document_to_text`` renders
a document tree that a caller has built.
"""

from __future__ import annotations

from decimal import Decimal
from pathlib import Path

from . import jsonio
from .errors import CssError, DocumentInvalidError
from .expressions import parse_expression
from .market import ServiceOffer, ServiceRequest, TenderCriteria
from .model import (
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
    return jsonio.dumps(doc, indent=2) + "\n"


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


def _string(obj, key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise DocumentInvalidError(f"{where}.{key}: expected a non-empty string")
    return value


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
    try:
        return parse_timestamp(_string(obj, key, where))
    except CssError as exc:
        raise DocumentInvalidError(f"{where}.{key}: {exc.message}") from exc


# ---------------------------------------------------------------------------
# taxonomy and world
# ---------------------------------------------------------------------------

def taxonomy_from_doc(doc: dict) -> Taxonomy:
    body = _expect(doc, SCHEMA_TAXONOMY, {"schema", "classes"})
    return _parse_classes(body["classes"], SCHEMA_TAXONOMY)


def _parse_classes(raw, where: str) -> Taxonomy:
    if not isinstance(raw, list):
        raise DocumentInvalidError(f"{where}.classes: expected a list")
    classes = []
    for i, item in enumerate(raw):
        entry = _expect(item, f"{where}.classes[{i}]", {"id"}, {"parent", "label"})
        parent = entry.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise DocumentInvalidError(f"{where}.classes[{i}].parent: expected a string")
        classes.append(
            TaxonomyClass(
                id=_string(entry, "id", f"{where}.classes[{i}]"),
                parent=parent,
                label=entry.get("label", ""),
            )
        )
    return Taxonomy(classes=tuple(classes))


def _parse_property(item, where: str) -> PropertyDefinition:
    entry = _expect(
        item, where, {"id", "datatype"}, {"unit", "enumValues", "declaredRange"}
    )
    enum_values = entry.get("enumValues", [])
    if not isinstance(enum_values, list) or not all(
        isinstance(v, str) for v in enum_values
    ):
        raise DocumentInvalidError(f"{where}.enumValues: expected a list of strings")
    declared = entry.get("declaredRange")
    declared_range = None
    if declared is not None:
        if (
            not isinstance(declared, list)
            or len(declared) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, Decimal)) for v in declared)
        ):
            raise DocumentInvalidError(
                f"{where}.declaredRange: expected [lower, upper] numbers"
            )
        declared_range = (declared[0], declared[1])
    unit = entry.get("unit")
    if unit is not None and not isinstance(unit, str):
        raise DocumentInvalidError(f"{where}.unit: expected a string")
    return PropertyDefinition(
        id=_string(entry, "id", where),
        datatype=_string(entry, "datatype", where),
        unit=unit,
        enum_values=tuple(enum_values),
        declared_range=declared_range,
    )


def _parse_parameter(item, where: str) -> ParameterSpec:
    entry = _expect(
        item, where, {"paramId", "direction", "datatype"}, {"unit", "default"}
    )
    unit = entry.get("unit")
    if unit is not None and not isinstance(unit, str):
        raise DocumentInvalidError(f"{where}.unit: expected a string")
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
    raw_parameters = entry.get("parameters", [])
    if not isinstance(raw_parameters, list):
        raise DocumentInvalidError(f"{where}.parameters: expected a list")
    return SkillDescriptor(
        skill_id=_string(entry, "skillId", where),
        capability_ref=_string(entry, "capabilityRef", where),
        name=entry.get("name"),
        parameters=tuple(
            _parse_parameter(p, f"{where}.parameters[{i}]")
            for i, p in enumerate(raw_parameters)
        ),
        has_feasibility_check=_bool(entry, "hasFeasibilityCheck", where),
        has_precondition_check=_bool(entry, "hasPreconditionCheck", where),
        state_machine_profile=entry.get("stateMachineProfile", "PACKML-17"),
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
    try:
        expression = parse_expression(_string(entry, "expression", where), world)
    except CssError as exc:
        raise DocumentInvalidError(f"{where}.expression: {exc.message}") from exc
    return Capability(
        id=_string(entry, "id", where),
        iri=_string(entry, "iri", where),
        expression=expression,
        property_to_parameter=dict(mapping),
    )


def _parse_step(item, where: str, world: WorldModel) -> ProcessStep:
    entry = _expect(
        item, where, {"id", "requiredCapability"}, {"parameterValues"}
    )
    values = entry.get("parameterValues", {})
    if not isinstance(values, dict):
        raise DocumentInvalidError(f"{where}.parameterValues: expected an object")
    try:
        required = parse_expression(
            _string(entry, "requiredCapability", where), world
        )
    except CssError as exc:
        raise DocumentInvalidError(
            f"{where}.requiredCapability: {exc.message}"
        ) from exc
    return ProcessStep(
        id=_string(entry, "id", where),
        required_capability=required,
        parameter_values=dict(values),
    )


def product_from_doc(doc: dict, world: WorldModel) -> Product:
    body = _expect(doc, SCHEMA_PRODUCT, {"schema", "id", "steps"})
    return _parse_product_body(body, SCHEMA_PRODUCT, world)


def _parse_product_body(body: dict, where: str, world: WorldModel) -> Product:
    steps = body.get("steps")
    if not isinstance(steps, list):
        raise DocumentInvalidError(f"{where}.steps: expected a list")
    return Product(
        id=_string(body, "id", where),
        steps=tuple(
            _parse_step(step, f"{where}.steps[{i}]", world)
            for i, step in enumerate(steps)
        ),
    )


def build_world(docs: list[dict]) -> WorldModel:
    """Assemble a world from one css.world/1 plus optional taxonomy/product docs."""
    world_docs = [d for d in docs if d.get("schema") == SCHEMA_WORLD]
    taxonomy_docs = [d for d in docs if d.get("schema") == SCHEMA_TAXONOMY]
    product_docs = [d for d in docs if d.get("schema") == SCHEMA_PRODUCT]
    leftovers = [
        d
        for d in docs
        if d.get("schema") not in (SCHEMA_WORLD, SCHEMA_TAXONOMY, SCHEMA_PRODUCT)
    ]
    if leftovers:
        raise DocumentInvalidError(
            f"cannot build a world from schema {leftovers[0].get('schema')!r}"
        )
    if len(world_docs) > 1:
        raise DocumentInvalidError("more than one css.world/1 document given")
    if len(taxonomy_docs) > 1:
        raise DocumentInvalidError("more than one css.taxonomy/1 document given")

    body = None
    if world_docs:
        body = _expect(
            world_docs[0],
            SCHEMA_WORLD,
            {"schema", "properties", "resources"},
            {"taxonomy", "products", "catalog"},
        )

    taxonomy = None
    if taxonomy_docs:
        taxonomy = taxonomy_from_doc(taxonomy_docs[0])
    if body is not None and body.get("taxonomy") is not None:
        if taxonomy is not None:
            raise DocumentInvalidError(
                "taxonomy given both inline and as a separate document"
            )
        inline = _expect(body["taxonomy"], f"{SCHEMA_WORLD}.taxonomy", {"classes"})
        taxonomy = _parse_classes(inline["classes"], f"{SCHEMA_WORLD}.taxonomy")
    if taxonomy is None:
        raise DocumentInvalidError("no taxonomy provided")

    if body is None:
        return WorldModel(taxonomy=taxonomy)

    raw_properties = body.get("properties", [])
    if not isinstance(raw_properties, list):
        raise DocumentInvalidError(f"{SCHEMA_WORLD}.properties: expected a list")
    properties = tuple(
        _parse_property(p, f"{SCHEMA_WORLD}.properties[{i}]")
        for i, p in enumerate(raw_properties)
    )
    world = WorldModel(taxonomy=taxonomy, property_defs=properties)

    raw_resources = body.get("resources", [])
    if not isinstance(raw_resources, list):
        raise DocumentInvalidError(f"{SCHEMA_WORLD}.resources: expected a list")
    resources = []
    for i, item in enumerate(raw_resources):
        where = f"{SCHEMA_WORLD}.resources[{i}]"
        entry = _expect(item, where, {"id"}, {"capabilities", "skills"})
        raw_capabilities = entry.get("capabilities", [])
        raw_skills = entry.get("skills", [])
        if not isinstance(raw_capabilities, list) or not isinstance(raw_skills, list):
            raise DocumentInvalidError(f"{where}: capabilities/skills must be lists")
        resources.append(
            Resource(
                id=_string(entry, "id", where),
                provided_capabilities=tuple(
                    _parse_capability(c, f"{where}.capabilities[{j}]", world)
                    for j, c in enumerate(raw_capabilities)
                ),
                skills=tuple(
                    _parse_skill(s, f"{where}.skills[{j}]")
                    for j, s in enumerate(raw_skills)
                ),
            )
        )
    products = []
    raw_products = body.get("products", [])
    if not isinstance(raw_products, list):
        raise DocumentInvalidError(f"{SCHEMA_WORLD}.products: expected a list")
    for i, item in enumerate(raw_products):
        where = f"{SCHEMA_WORLD}.products[{i}]"
        entry = _expect(item, where, {"id", "steps"})
        products.append(_parse_product_body(entry, where, world))
    for doc in product_docs:
        products.append(product_from_doc(doc, world))

    catalog = []
    raw_catalog = body.get("catalog", [])
    if not isinstance(raw_catalog, list):
        raise DocumentInvalidError(f"{SCHEMA_WORLD}.catalog: expected a list")
    for i, item in enumerate(raw_catalog):
        catalog.append(_parse_offer_body(item, f"{SCHEMA_WORLD}.catalog[{i}]", world))

    return WorldModel(
        taxonomy=taxonomy,
        property_defs=properties,
        resources=tuple(resources),
        products=tuple(products),
        service_catalog=tuple(catalog),
    )


# ---------------------------------------------------------------------------
# requests and offers
# ---------------------------------------------------------------------------

def request_from_doc(doc: dict, world: WorldModel) -> ServiceRequest:
    body = _expect(
        doc,
        SCHEMA_REQUEST,
        {"schema", "requestId", "requiredCapabilities", "tender",
         "submittedAt", "responseDeadline"},
    )
    raw_required = body["requiredCapabilities"]
    if not isinstance(raw_required, list) or not raw_required:
        raise DocumentInvalidError(
            f"{SCHEMA_REQUEST}.requiredCapabilities: expected a non-empty list"
        )
    required = []
    for i, item in enumerate(raw_required):
        where = f"{SCHEMA_REQUEST}.requiredCapabilities[{i}]"
        entry = _expect(item, where, {"key", "expression"})
        try:
            expression = parse_expression(_string(entry, "expression", where), world)
        except CssError as exc:
            raise DocumentInvalidError(f"{where}.expression: {exc.message}") from exc
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
    certifications = tender_body.get("requiredCertifications", [])
    if not isinstance(certifications, list) or not all(
        isinstance(v, str) for v in certifications
    ):
        raise DocumentInvalidError(
            f"{tender_where}.requiredCertifications: expected a list of strings"
        )
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
    body = _expect(
        doc,
        SCHEMA_OFFER,
        {"schema", "offerId", "providerId", "requestId", "coveredCapKeys",
         "providedCapabilities", "unitPrice", "co2PerUnit", "deliveryDate",
         "validUntil"},
        {"certifications", "ndaAccepted", "exclusiveGroup"},
    )
    return _parse_offer_body(body, SCHEMA_OFFER, world)


def _parse_offer_body(body: dict, where: str, world: WorldModel) -> ServiceOffer:
    entry = _expect(
        body,
        where,
        {"offerId", "providerId", "requestId", "coveredCapKeys",
         "providedCapabilities", "unitPrice", "co2PerUnit", "deliveryDate",
         "validUntil"},
        {"schema", "certifications", "ndaAccepted", "exclusiveGroup"},
    )
    covered = entry.get("coveredCapKeys")
    if (
        not isinstance(covered, list)
        or not covered
        or not all(isinstance(v, str) for v in covered)
    ):
        raise DocumentInvalidError(
            f"{where}.coveredCapKeys: expected a non-empty list of strings"
        )
    raw_provided = entry.get("providedCapabilities")
    if not isinstance(raw_provided, dict):
        raise DocumentInvalidError(f"{where}.providedCapabilities: expected an object")
    provided = {}
    for key, text in raw_provided.items():
        if not isinstance(text, str):
            raise DocumentInvalidError(
                f"{where}.providedCapabilities[{key}]: expected an expression string"
            )
        try:
            provided[key] = parse_expression(text, world)
        except CssError as exc:
            raise DocumentInvalidError(
                f"{where}.providedCapabilities[{key}]: {exc.message}"
            ) from exc
    certifications = entry.get("certifications", [])
    if not isinstance(certifications, list) or not all(
        isinstance(v, str) for v in certifications
    ):
        raise DocumentInvalidError(
            f"{where}.certifications: expected a list of strings"
        )
    exclusive_group = entry.get("exclusiveGroup")
    if exclusive_group is not None and not isinstance(exclusive_group, str):
        raise DocumentInvalidError(f"{where}.exclusiveGroup: expected a string")
    # selection's cost bound needs non-negative prices; negative CO2 is meaningless
    amounts = {key: _decimal(entry, key, where) for key in ("unitPrice", "co2PerUnit")}
    for key, amount in amounts.items():
        if amount < 0:
            raise DocumentInvalidError(f"{where}.{key}: must not be negative")
    return ServiceOffer(
        offer_id=_string(entry, "offerId", where),
        provider_id=_string(entry, "providerId", where),
        request_id=_string(entry, "requestId", where),
        covered_cap_keys=tuple(covered),
        provided_capabilities=provided,
        unit_price=amounts["unitPrice"],
        co2_per_unit=amounts["co2PerUnit"],
        delivery_date=_timestamp(entry, "deliveryDate", where),
        certifications=frozenset(certifications),
        nda_accepted=_bool(entry, "ndaAccepted", where),
        valid_until=_timestamp(entry, "validUntil", where),
        exclusive_group=exclusive_group,
    )


def endpoints_from_doc(doc: dict) -> dict[str, str]:
    body = _expect(doc, SCHEMA_ENDPOINTS, {"schema", "endpoints"})
    endpoints = body["endpoints"]
    if not isinstance(endpoints, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in endpoints.items()
    ):
        raise DocumentInvalidError(
            f"{SCHEMA_ENDPOINTS}.endpoints: expected a map of resource id to host:port"
        )
    return dict(endpoints)
