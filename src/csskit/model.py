"""Production-world entity types and whole-model validation.

The world ties a class taxonomy and property definitions to resources (which
provide capabilities and expose skills) and products (whose process steps
require capabilities). All types are immutable value data after load and safe
to share between threads.

The skill → capability → parameter relation is decided only here: ``WorldModel``
pairs skills with capabilities, and ``bound_input`` binds properties to inputs.
A ``SkillDescriptor`` keeps its parameters by id and its inputs, so binding
looks a parameter up rather than scanning for it. ``WorldModel`` groups its
capabilities by class on first use and decides no class relation itself: the
matcher ranks the groups and decides each group's relation once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from functools import partial
from typing import TYPE_CHECKING

from . import expressions
from .errors import UnknownParameterError
from .taxonomy import Taxonomy
from .values import DATATYPES, Literal, UNIT_TABLE, literal_matches

if TYPE_CHECKING:
    from .expressions import CapabilityExpression, FeasibleSet, NormalForm

STATE_MACHINE_PROFILE = "PACKML-17"

#: runtime-assigned skill metadata; never writable and never a declared parameter
LOCAL_RUNTIME_ID_FIELD = "localRuntimeId"


@dataclass(frozen=True)
class PropertyDefinition:
    id: str
    datatype: str
    unit: str | None = None
    enum_values: tuple[str, ...] = ()
    declared_range: tuple[int | Decimal, int | Decimal] | None = None


@dataclass(frozen=True)
class Capability:
    """Implementation-independent description of a production function."""

    id: str
    iri: str
    expression: CapabilityExpression
    property_to_parameter: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ParameterSpec:
    param_id: str
    direction: str  # "input" | "output"
    datatype: str
    unit: str | None = None
    default: Literal | None = None


@dataclass(frozen=True)
class SkillDescriptor:
    """A skill's interface. Its parameters by id (the first of a duplicate id
    wins) and its inputs in order are kept when it is built, as ``WorldModel``
    keeps its lookups."""

    skill_id: str
    capability_ref: str
    name: str | None = None
    parameters: tuple[ParameterSpec, ...] = ()
    has_feasibility_check: bool = False
    has_precondition_check: bool = False
    state_machine_profile: str = STATE_MACHINE_PROFILE
    _by_id: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _inputs: tuple = field(init=False, repr=False, compare=False, hash=False, default=None)

    def __post_init__(self):
        by_id: dict = {}
        for spec in self.parameters:
            by_id.setdefault(spec.param_id, spec)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(
            self, "_inputs", tuple(p for p in self.parameters if p.direction == "input")
        )

    def input_parameters(self) -> tuple[ParameterSpec, ...]:
        return self._inputs

    def output_parameters(self) -> tuple[ParameterSpec, ...]:
        return tuple(p for p in self.parameters if p.direction == "output")

    def parameter(self, param_id: str) -> ParameterSpec | None:
        return self._by_id.get(param_id)


@dataclass(frozen=True)
class Resource:
    id: str
    provided_capabilities: tuple[Capability, ...] = ()
    skills: tuple[SkillDescriptor, ...] = ()


@dataclass(frozen=True)
class ProcessStep:
    id: str
    required_capability: CapabilityExpression
    parameter_values: dict[str, Literal] = field(default_factory=dict)


@dataclass(frozen=True)
class Product:
    id: str
    steps: tuple[ProcessStep, ...] = ()


@dataclass(frozen=True)
class WorldModel:
    """A loaded production world plus the lookups derived from it.

    Property, resource and product lookups are indexed when the world is
    built; on duplicate ids the first entry wins, as in model order. Each
    property's full domain, the validation report, the normal form of each
    capability the world owns, the skill index and the capabilities grouped by
    class are computed on first use and then kept, so building an invalid
    world never raises. The class groups are a plain index: the matcher's
    ``rank_providers`` walks them and decides each group's class relation
    once. The kept data is only correct because the world is never mutated
    after load: derive a changed world with ``dataclasses.replace``, which
    builds fresh lookups. Two threads filling the same entry store equal
    values.
    """

    taxonomy: Taxonomy
    property_defs: tuple[PropertyDefinition, ...] = ()
    resources: tuple[Resource, ...] = ()
    products: tuple[Product, ...] = ()
    _properties: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _resources: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _products: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _capabilities: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _domains: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _normal_forms: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _skill_index: tuple = field(init=False, repr=False, compare=False, hash=False, default=None)
    _class_groups: dict = field(init=False, repr=False, compare=False, hash=False, default=None)
    _report: ValidationReport | None = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self):
        object.__setattr__(self, "_properties", _first_by_id(self.property_defs))
        object.__setattr__(self, "_resources", _first_by_id(self.resources))
        object.__setattr__(self, "_products", _first_by_id(self.products))
        object.__setattr__(
            self, "_capabilities", _first_by_id(c for _, c in self.capabilities())
        )
        object.__setattr__(self, "_domains", {})
        object.__setattr__(self, "_normal_forms", {})

    def property_def(self, property_id: str) -> PropertyDefinition | None:
        return self._properties.get(property_id)

    def capabilities(self):
        """(resource, capability) pairs in model order."""
        for resource in self.resources:
            for capability in resource.provided_capabilities:
                yield resource, capability

    def capabilities_by_class(self) -> dict[str, list[tuple[str, Capability]]]:
        """(resource id, capability) pairs grouped by their expression's class,
        each group in model order. Built on first use and kept; the matcher
        decides which groups are related to a required class."""
        if self._class_groups is None:
            groups: dict[str, list] = {}
            for resource, capability in self.capabilities():
                groups.setdefault(capability.expression.class_id, []).append(
                    (resource.id, capability)
                )
            object.__setattr__(self, "_class_groups", groups)
        return self._class_groups

    def resource(self, resource_id: str) -> Resource | None:
        return self._resources.get(resource_id)

    def product(self, product_id: str) -> Product | None:
        return self._products.get(product_id)

    def domain(self, property_id: str) -> FeasibleSet:
        """The unconstrained feasible set of a defined property."""
        domain = self._domains.get(property_id)
        if domain is None:
            domain = expressions.full_domain(self.property_def(property_id))
            self._domains[property_id] = domain
        return domain

    def normal_form(self, capability: Capability) -> NormalForm:
        """The capability's normal form; kept only when the world owns it."""
        if self._capabilities.get(capability.id) is not capability:
            return expressions.normalize(capability.expression, self)
        nf = self._normal_forms.get(capability.id)
        if nf is None:
            nf = expressions.normalize(capability.expression, self)
            self._normal_forms[capability.id] = nf
        return nf

    def capability_named(self, resource_id: str, skill: SkillDescriptor) -> Capability | None:
        """The resource's own capability that a skill's ref names by iri or id, or None."""
        return self._skills()[0].get((resource_id, skill.capability_ref))

    def skill_implementing(self, resource_id: str, capability: Capability):
        """The resource's lowest-id skill that names the capability, or None."""
        return self._skills()[1].get((resource_id, capability.id))

    def _skills(self) -> tuple[dict, dict]:
        """Both directions of the skill → capability relation, kept from first use."""
        if self._skill_index is None:
            named, implementing = {}, {}
            for resource, capability in self.capabilities():
                for ref in (capability.iri, capability.id):
                    named.setdefault((resource.id, ref), capability)
            for resource in self.resources:
                for skill in sorted(resource.skills, key=lambda s: s.skill_id):
                    if (capability := named.get((resource.id, skill.capability_ref))) is not None:
                        implementing.setdefault((resource.id, capability.id), skill)
            object.__setattr__(self, "_skill_index", (named, implementing))
        return self._skill_index


def bound_input(capability: Capability, skill: SkillDescriptor, property_id: str):
    """The skill input a capability property binds to: the parameter that
    ``propertyToParameter`` names, else the input named like the property, else
    None. An explicit target that is not an input raises UnknownParameterError."""
    target = capability.property_to_parameter.get(property_id)
    spec = skill.parameter(property_id if target is None else target)
    if spec is not None and spec.direction == "input":
        return spec
    if target is not None:
        raise UnknownParameterError(
            f"mapping targets {target!r}, which is not an input parameter "
            f"of skill {skill.skill_id!r}"
        )
    return None


def input_bindings(world: WorldModel, capability: Capability, skill: SkillDescriptor):
    """Each skill input's properties by ``bound_input``, in definition order, and
    warnings: a mapping to no input, an input bound twice or, without a default,
    never, and an input whose unit has another base unit than its property's."""
    bound: dict[str, list[PropertyDefinition]] = {}
    issues: list[str] = []
    for prop in world.property_defs:
        try:
            spec = bound_input(capability, skill, prop.id)
        except UnknownParameterError as exc:
            issues.append(exc.message)
            continue
        if spec is not None:
            props = bound.setdefault(spec.param_id, [])
            if props:
                issues.append(
                    f"input {spec.param_id!r} is bound by both {props[0].id!r} and {prop.id!r}"
                )
            props.append(prop)
            input_base = UNIT_TABLE.get(spec.unit, (None,))[0]
            property_base = UNIT_TABLE.get(prop.unit, (None,))[0]
            if input_base and property_base and input_base != property_base:
                issues.append(
                    f"input {spec.param_id!r} is in {spec.unit} ({input_base}), to which "
                    f"property {prop.id!r} in {prop.unit} ({property_base}) does not convert"
                )
    for spec in skill.input_parameters():
        if spec.default is None and spec.param_id not in bound:
            issues.append(f"input {spec.param_id!r} has no default and no property binds it")
    return bound, issues


def _first_by_id(items) -> dict:
    """Items by ``id``; on duplicate ids the first in order wins."""
    index: dict = {}
    for item in items:
        index.setdefault(item.id, item)
    return index


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning"
    path: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not any(issue.severity == "error" for issue in self.issues)

    def errors(self) -> tuple[ValidationIssue, ...]:
        return tuple(issue for issue in self.issues if issue.severity == "error")


def validate_model(world: WorldModel) -> ValidationReport:
    """Check every model invariant; problems become report entries, ordered by path.

    The report is computed once per world and then kept.
    """
    if world._report is None:
        object.__setattr__(world, "_report", _collect(partial(_check_model, world)))
    return world._report


def validate_product(world: WorldModel, product: Product) -> ValidationReport:
    """Check one product as ``validate_model`` checks each product of the world;
    only the world checks that product ids are unique."""
    return _collect(partial(_check_product, world, product))


def _collect(check) -> ValidationReport:
    """Run ``check(error, warning)``; what it reports becomes entries ordered by path."""
    issues: list[ValidationIssue] = []
    check(
        lambda path, message: issues.append(ValidationIssue("error", path, message)),
        lambda path, message: issues.append(ValidationIssue("warning", path, message)),
    )
    issues.sort(key=lambda issue: (issue.path, issue.message))
    return ValidationReport(issues=tuple(issues))


def _check_model(world: WorldModel, error, warning) -> None:
    for message in world.taxonomy.structural_issues():
        error("taxonomy", message)

    _validate_properties(world, error)
    _validate_resources(world, error, warning)
    product_ids: set[str] = set()
    for product in world.products:
        if product.id in product_ids:
            error(f"products[{product.id}]", f"duplicate product id {product.id!r}")
        product_ids.add(product.id)
        _check_product(world, product, error, warning)


def _validate_properties(world: WorldModel, error) -> None:
    seen: set[str] = set()
    for prop in world.property_defs:
        path = f"properties[{prop.id}]"
        if prop.id in seen:
            error(path, f"duplicate property id {prop.id!r}")
        seen.add(prop.id)
        if prop.datatype not in DATATYPES:
            error(path, f"unknown datatype {prop.datatype!r}")
            continue
        if prop.datatype == "enum" and not prop.enum_values:
            error(path, "enum property must declare enumValues")
        if prop.datatype != "enum" and prop.enum_values:
            error(path, "enumValues are only allowed on enum properties")
        if prop.unit is not None and prop.unit not in UNIT_TABLE:
            error(path, f"unit {prop.unit!r} is not in the scale table")
        if prop.declared_range is not None:
            lo, hi = prop.declared_range
            if prop.datatype not in ("integer", "real"):
                error(path, "declaredRange is only allowed on numeric properties")
            elif lo > hi:
                error(path, f"declaredRange lower {lo} exceeds upper {hi}")


def _validate_resources(world: WorldModel, error, warning) -> None:
    resource_ids: set[str] = set()
    capability_ids: set[str] = set()
    capability_iris: set[str] = set()
    skill_ids: set[str] = set()
    for resource in world.resources:
        rpath = f"resources[{resource.id}]"
        if resource.id in resource_ids:
            error(rpath, f"duplicate resource id {resource.id!r}")
        resource_ids.add(resource.id)

        for capability in resource.provided_capabilities:
            cpath = f"{rpath}.capabilities[{capability.id}]"
            if capability.id in capability_ids:
                error(cpath, f"duplicate capability id {capability.id!r}")
            capability_ids.add(capability.id)
            if capability.iri in capability_iris:
                error(cpath, f"duplicate capability iri {capability.iri!r}")
            capability_iris.add(capability.iri)
            for message in expressions.validate_expression(capability.expression, world):
                error(f"{cpath}.expression", message)

        for skill in resource.skills:
            spath = f"{rpath}.skills[{skill.skill_id}]"
            if skill.skill_id in skill_ids:
                error(spath, f"duplicate skill id {skill.skill_id!r}")
            skill_ids.add(skill.skill_id)
            capability = world.capability_named(resource.id, skill)
            if not skill.capability_ref:
                error(f"{spath}.capabilityRef", "capabilityRef must be specified")
            elif capability is None:
                error(
                    f"{spath}.capabilityRef",
                    f"dangling reference: {skill.capability_ref!r} names no capability",
                )
            else:
                for message in input_bindings(world, capability, skill)[1]:
                    warning(spath, message)
            for message in descriptor_issues(skill):
                error(spath, message)


def descriptor_issues(skill: SkillDescriptor) -> list[str]:
    """Structural defects of a skill descriptor (shared with host registration)."""
    messages: list[str] = []
    if skill.state_machine_profile != STATE_MACHINE_PROFILE:
        messages.append(
            f"unsupported state machine profile {skill.state_machine_profile!r}"
        )
    seen: set[str] = set()
    for spec in skill.parameters:
        if spec.param_id in seen:
            messages.append(f"duplicate parameter id {spec.param_id!r}")
        seen.add(spec.param_id)
        if spec.param_id.lower() == LOCAL_RUNTIME_ID_FIELD.lower():
            messages.append("localRuntimeId is runtime metadata, not a parameter")
        if spec.direction not in ("input", "output"):
            messages.append(
                f"parameter {spec.param_id!r} has invalid direction {spec.direction!r}"
            )
        if spec.datatype not in DATATYPES:
            messages.append(
                f"parameter {spec.param_id!r} has unknown datatype {spec.datatype!r}"
            )
        elif spec.default is not None and not literal_matches(spec.datatype, spec.default):
            messages.append(
                f"parameter {spec.param_id!r} default {spec.default!r} "
                f"is not a {spec.datatype} literal"
            )
        if spec.unit is not None and spec.unit not in UNIT_TABLE:
            messages.append(
                f"parameter {spec.param_id!r} unit {spec.unit!r} is not in the scale table"
            )
    return messages


def _check_product(world: WorldModel, product: Product, error, warning) -> None:
    ppath = f"products[{product.id}]"
    if not product.steps:
        warning(ppath, "product has no steps and cannot be orchestrated")
    step_ids: set[str] = set()
    for step in product.steps:
        spath = f"{ppath}.steps[{step.id}]"
        if step.id in step_ids:
            error(spath, f"duplicate step id {step.id!r}")
        step_ids.add(step.id)
        messages = expressions.validate_expression(step.required_capability, world)
        for message in messages:
            error(f"{spath}.requiredCapability", message)
        if messages:
            continue
        nf = expressions.normalize(step.required_capability, world)
        for property_id, value in step.parameter_values.items():
            vpath = f"{spath}.parameterValues[{property_id}]"
            prop = world.property_def(property_id)
            if prop is None:
                error(vpath, f"property {property_id!r} is not defined")
                continue
            if not literal_matches(prop.datatype, value):
                error(vpath, f"{value!r} is not a {prop.datatype} literal")
                continue
            if not nf.feasible_or_domain(property_id, world).contains(value):
                error(vpath, f"value {value!r} violates the step's own constraints")

