"""Commercial layer: tendered requests, offers, awards and contracts.

An offer is admissible when it envelopes every covered capability
requirement (match degree EXACT or PLUGIN) and satisfies all tender bounds.
Selection picks a set of admissible, unexpired offers covering every
requested capability key exactly once, never mixing mutually exclusive
offers, at minimal total cost; the search is exact for any number of
offers. Money and CO2 use exact decimal arithmetic; all bound comparisons
are inclusive.

A selection or an evaluation of several offers normalizes each requested
key once, on first use, and matches every offer covering that key against
that one normal form. Integer properties fold to plain ``int`` bounds, so
their comparisons need no ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal
from typing import TYPE_CHECKING, Iterator

from .errors import NoFeasibleCombinationError, OfferExpiredError, UnknownCapKeyError
from .expressions import normalize
from .matching import MatchDegree, match_normal_form
from .matching import match_capabilities  # noqa: F401 - bench/tracing.py patches this name

if TYPE_CHECKING:
    from .expressions import CapabilityExpression, NormalForm
    from .model import WorldModel

#: degrees that commit a provider commercially (full envelope of the need)
COVERING_DEGREES = (MatchDegree.EXACT, MatchDegree.PLUGIN)

#: how quantity is assigned to combined offers (see Award.quantity_allocation)
FULL_QUANTITY_PER_OFFER = "full-quantity-per-offer"


@dataclass(frozen=True)
class TenderCriteria:
    quantity: int
    max_unit_price: Decimal
    max_co2_per_unit: Decimal
    delivery_deadline: datetime
    required_certifications: frozenset[str] = frozenset()
    nda_required: bool = False


@dataclass(frozen=True)
class ServiceRequest:
    request_id: str
    required_capabilities: tuple[tuple[str, CapabilityExpression], ...]
    tender: TenderCriteria
    submitted_at: datetime
    response_deadline: datetime

    def cap_keys(self) -> tuple[str, ...]:
        return tuple(key for key, _ in self.required_capabilities)


@dataclass(frozen=True)
class ServiceOffer:
    offer_id: str
    provider_id: str
    request_id: str
    covered_cap_keys: tuple[str, ...]
    provided_capabilities: dict[str, CapabilityExpression]
    unit_price: Decimal
    co2_per_unit: Decimal
    delivery_date: datetime
    certifications: frozenset[str] = frozenset()
    nda_accepted: bool = False
    valid_until: datetime | None = None
    exclusive_group: str | None = None


@dataclass(frozen=True)
class Violation:
    criterion: str
    detail: str


@dataclass(frozen=True)
class Admissibility:
    admissible: bool
    violations: tuple[Violation, ...] = ()


@dataclass(frozen=True)
class Award:
    request_id: str
    selected_offers: tuple[ServiceOffer, ...]
    total_cost: Decimal
    strategy: str  # always "exact": selection is an exact, optimal search
    quantity_allocation: str = FULL_QUANTITY_PER_OFFER

    def offer_ids(self) -> tuple[str, ...]:
        return tuple(offer.offer_id for offer in self.selected_offers)


@dataclass(frozen=True)
class Contract:
    contract_id: str
    request_id: str
    accepted_offer_ids: tuple[str, ...]
    total_price: Decimal
    formed_at: datetime


def evaluate_offer(
    request: ServiceRequest,
    offer: ServiceOffer,
    world: WorldModel,
) -> Admissibility:
    """Check one offer against the request's capability and tender criteria."""
    return next(evaluate_offers(request, (offer,), world))


def evaluate_offers(
    request: ServiceRequest, offers, world: WorldModel
) -> Iterator[Admissibility]:
    """``evaluate_offer`` of each offer in turn. Each requested key is
    normalized once, on first use; a duplicated key keeps its first expression."""
    required: dict[str, CapabilityExpression] = {}
    for key, expression in request.required_capabilities:
        required.setdefault(key, expression)
    forms: dict[str, NormalForm] = {}
    for offer in offers:
        if offer.request_id != request.request_id:
            raise UnknownCapKeyError(
                f"offer {offer.offer_id!r} answers request {offer.request_id!r}, "
                f"not {request.request_id!r}"
            )
        for cap_key in offer.covered_cap_keys:
            if cap_key not in required:
                raise UnknownCapKeyError(f"request has no capability key {cap_key!r}")
            if cap_key not in offer.provided_capabilities:
                raise UnknownCapKeyError(
                    f"offer {offer.offer_id!r} covers {cap_key!r} without a "
                    "provided capability"
                )

        violations: list[Violation] = []
        for cap_key in offer.covered_cap_keys:
            if cap_key not in forms:
                forms[cap_key] = normalize(required[cap_key], world)
            degree = match_normal_form(
                forms[cap_key], offer.provided_capabilities[cap_key], world
            )
            if degree not in COVERING_DEGREES:
                violations.append(
                    Violation(
                        "capabilityCoverage",
                        f"{cap_key}: degree {degree.value} does not cover "
                        "the requirement",
                    )
                )
        violations += _tender_violations(request.tender, offer)
        yield Admissibility(admissible=not violations, violations=tuple(violations))


def _tender_violations(tender: TenderCriteria, offer: ServiceOffer) -> list[Violation]:
    violations: list[Violation] = []
    if offer.unit_price > tender.max_unit_price:
        violations.append(
            Violation(
                "maxUnitPrice",
                f"unit price {offer.unit_price} exceeds {tender.max_unit_price}",
            )
        )
    if offer.co2_per_unit > tender.max_co2_per_unit:
        violations.append(
            Violation(
                "maxCo2PerUnit",
                f"CO2 {offer.co2_per_unit} exceeds {tender.max_co2_per_unit}",
            )
        )
    if offer.delivery_date > tender.delivery_deadline:
        violations.append(
            Violation(
                "deliveryDeadline",
                f"delivery {offer.delivery_date.isoformat()} is after "
                f"{tender.delivery_deadline.isoformat()}",
            )
        )
    missing = tender.required_certifications - offer.certifications
    if missing:
        violations.append(
            Violation(
                "requiredCertifications",
                "missing certifications: " + ", ".join(sorted(missing)),
            )
        )
    if tender.nda_required and not offer.nda_accepted:
        violations.append(
            Violation("ndaRequired", "non-disclosure agreement not accepted")
        )
    return violations


def select_offers(
    request: ServiceRequest,
    offers,
    now: datetime,
    world: WorldModel,
) -> Award:
    """Cost-minimal covering combination of admissible, unexpired offers.

    The search is exact for any number of offers. It prunes on cost, so unit
    prices must be non-negative (offer documents reject negative ones). Cost
    ties break toward the lexicographically smallest sorted offer-id tuple;
    the award lists its offers in offer-id order.
    """
    live = [
        offer
        for offer in sorted(offers, key=lambda o: o.offer_id)
        if offer.valid_until is None or offer.valid_until >= now
    ]
    evaluated = zip(live, evaluate_offers(request, live, world))
    candidates = [offer for offer, result in evaluated if result.admissible]
    keys = sorted(set(request.cap_keys()))
    if not keys:
        raise NoFeasibleCombinationError("request has no capability keys")

    chosen = _least_cost_cover(keys, candidates)
    if chosen is None:
        raise NoFeasibleCombinationError(
            f"no admissible combination covers {keys}"
        )
    total = Decimal(request.tender.quantity) * sum(
        (offer.unit_price for offer in chosen), Decimal(0)
    )
    return Award(
        request_id=request.request_id,
        selected_offers=chosen,
        total_cost=total,
        strategy="exact",
    )


def _least_cost_cover(
    keys: list[str], candidates: list[ServiceOffer]
) -> tuple[ServiceOffer, ...] | None:
    """Least-cost exact cover of ``keys`` (Knuth's Algorithm X with a cost
    bound): branch on the lowest uncovered key, over the offers covering it
    that overlap no covered key and reuse no exclusive group."""
    bit = {key: 1 << i for i, key in enumerate(keys)}
    full = (1 << len(keys)) - 1
    covering: list[list[tuple[ServiceOffer, int]]] = [[] for _ in keys]
    for offer in candidates:
        mask = 0
        for key in offer.covered_cap_keys:
            mask |= bit[key]
        for i in range(len(keys)):
            if mask >> i & 1:
                covering[i].append((offer, mask))
    best: tuple[Decimal, tuple[str, ...], tuple[ServiceOffer, ...]] | None = None

    def walk(covered: int, groups: frozenset[str], cost: Decimal,
             chosen: list[ServiceOffer]) -> None:
        nonlocal best
        if best is not None and cost > best[0]:
            return  # strict, so equal-cost covers still reach the tie-break
        if covered == full:
            picked = tuple(sorted(chosen, key=lambda o: o.offer_id))
            ids = tuple(offer.offer_id for offer in picked)
            if best is None or (cost, ids) < best[:2]:
                best = (cost, ids, picked)
            return
        lowest = (~covered & (covered + 1)).bit_length() - 1
        for offer, mask in covering[lowest]:
            group = offer.exclusive_group
            if mask & covered or group in groups:
                continue
            chosen.append(offer)
            walk(covered | mask, (groups | {group}) if group else groups,
                 cost + offer.unit_price, chosen)
            chosen.pop()

    walk(0, frozenset(), Decimal(0), [])
    return None if best is None else best[2]


def form_contract(award: Award, accepted_at: datetime) -> Contract:
    """Bind an award into a contract; every selected offer must still be valid."""
    if not award.selected_offers:
        raise ValueError("cannot form a contract from an empty award")
    for offer in award.selected_offers:
        if offer.valid_until is not None and accepted_at > offer.valid_until:
            raise OfferExpiredError(
                offer.offer_id,
                f"offer {offer.offer_id!r} expired at "
                f"{offer.valid_until.isoformat()}",
            )
    return Contract(
        contract_id=f"contract-{award.request_id}",
        request_id=award.request_id,
        accepted_offer_ids=award.offer_ids(),
        total_price=award.total_cost,
        formed_at=accepted_at,
    )
