"""csskit: capabilities, skills and services for flexible production.

Describe production functions as constraint-bearing capabilities, decide
required-vs-provided compatibility by closed-world satisfiability, execute
matched functions as skills behind a standardized state machine and a
line-delimited wire protocol, and trade capability bundles as services
with commercial tender criteria.
"""

from .documents import (
    build_world,
    load_document_file,
    load_document_text,
)
from .errors import CssError
from .expressions import (
    Atom,
    CapabilityExpression,
    FeasibleSet,
    NormalForm,
    normalize,
    parse_expression,
)
from .hosting import CapabilityEnvelopeBehavior, build_resource_host
from .market import (
    Admissibility,
    Award,
    Contract,
    ServiceOffer,
    ServiceRequest,
    TenderCriteria,
    evaluate_offer,
    form_contract,
    select_offers,
)
from .matching import (
    MatchDegree,
    MatchResult,
    match_capabilities,
    rank_providers,
)
from .model import (
    Capability,
    ParameterSpec,
    ProcessStep,
    Product,
    PropertyDefinition,
    Resource,
    SkillDescriptor,
    ValidationReport,
    WorldModel,
    validate_model,
)
from .orchestrate import (
    ExecutionTrace,
    PlanEntry,
    ProductionPlan,
    bind_parameters,
    execute_plan,
    plan,
    trace_to_lines,
)
from .protocol import (
    Message,
    SkillClient,
    connect_loopback,
    connect_tcp,
    decode,
    encode,
    serve,
)
from .skills import (
    COMMANDS,
    STATES,
    FeasibilityResult,
    SkillBehavior,
    SkillFault,
    SkillHost,
    transition,
)
from .taxonomy import Taxonomy, TaxonomyClass, is_subclass_of

__version__ = "0.1.0"

__all__ = [
    "Admissibility",
    "Atom",
    "Award",
    "COMMANDS",
    "Capability",
    "CapabilityEnvelopeBehavior",
    "CapabilityExpression",
    "Contract",
    "CssError",
    "ExecutionTrace",
    "FeasibilityResult",
    "FeasibleSet",
    "MatchDegree",
    "MatchResult",
    "Message",
    "NormalForm",
    "ParameterSpec",
    "PlanEntry",
    "ProcessStep",
    "Product",
    "ProductionPlan",
    "PropertyDefinition",
    "Resource",
    "STATES",
    "ServiceOffer",
    "ServiceRequest",
    "SkillBehavior",
    "SkillClient",
    "SkillDescriptor",
    "SkillFault",
    "SkillHost",
    "Taxonomy",
    "TaxonomyClass",
    "TenderCriteria",
    "ValidationReport",
    "WorldModel",
    "bind_parameters",
    "build_resource_host",
    "build_world",
    "connect_loopback",
    "connect_tcp",
    "decode",
    "encode",
    "evaluate_offer",
    "execute_plan",
    "form_contract",
    "is_subclass_of",
    "load_document_file",
    "load_document_text",
    "match_capabilities",
    "normalize",
    "parse_expression",
    "plan",
    "rank_providers",
    "select_offers",
    "serve",
    "trace_to_lines",
    "transition",
    "validate_model",
]
