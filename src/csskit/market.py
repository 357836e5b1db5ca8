"""Commercial layer: tendered requests, offers, awards and contracts.

An offer is admissible when it envelopes every covered capability
requirement (match degree EXACT or PLUGIN) and satisfies all tender bounds.
Selection picks a set of admissible, unexpired offers covering every
requested capability key exactly once, never mixing mutually exclusive
offers, at minimal total cost; the search is exact for any number of
offers. Money and CO2 use exact decimal arithmetic; all bound comparisons
are inclusive.

Evaluation and selection share one structural check per offer and one
coverage decision per (offer, key); each requested key is normalized once, on
first use. ``evaluate_offers`` matches every covered key of every offer.
``select_offers`` matches lazily: it drops offers that break a tender
criterion before it searches, branches over each key's offers in (unit price,
offer id) order, skips an offer when one before it in that order was admitted
with the same key mask (see ``_least_cost_cover``), and matches an offer only
when the search first reaches it. So a
hand-built offer whose expression cannot be matched raises only if the search
reaches it; expressions read from documents were checked when they were
parsed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from datetime import datetime
from decimal import Decimal
from typing import TYPE_CHECKING, Callable, Iterator

from .errors import NoFeasibleCombinationError, OfferExpiredError, UnknownCapKeyError
from .expressions import normalize
from .matching import MatchDegree, match_normal_form
from .matching import match_capabilities  # noqa: F401 - bench/tracing.py patches this name

if TYPE_CHECKING:
    from .expressions import CapabilityExpression, NormalForm
    from .model import WorldModel

#: degrees that commit a provider commercially (full envelope of the need)
COVERING_DEGREES = (MatchDegree.EXACT, MatchDegree.PLUGIN)

#: how quantity is assigned to combined offers: each selected offer supplies it all
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
    """``evaluate_offer`` of each offer in turn: every covered key is matched.
    Each requested key is normalized once, on first use."""
    coverage = _Coverage(request, world)
    for offer in offers:
        coverage.check(offer)
        violations: list[Violation] = []
        for cap_key in offer.covered_cap_keys:
            degree = coverage.degree(cap_key, offer)
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


class _Coverage:
    """The capability side of one request, shared by evaluation and selection:
    the structural check of an offer, and the match degree of one covered key.
    A duplicated requested key keeps its first expression, and each requested
    key is normalized once, on first use."""

    def __init__(self, request: ServiceRequest, world: WorldModel):
        self._request_id = request.request_id
        self._required: dict[str, CapabilityExpression] = {}
        for key, expression in request.required_capabilities:
            self._required.setdefault(key, expression)
        self._forms: dict[str, NormalForm] = {}
        self._world = world

    def check(self, offer: ServiceOffer) -> None:
        """Raise ``UnknownCapKeyError`` unless the offer answers this request
        and provides a capability for each covered key the request names."""
        if offer.request_id != self._request_id:
            raise UnknownCapKeyError(
                f"offer {offer.offer_id!r} answers request {offer.request_id!r}, "
                f"not {self._request_id!r}"
            )
        for cap_key in offer.covered_cap_keys:
            if cap_key not in self._required:
                raise UnknownCapKeyError(f"request has no capability key {cap_key!r}")
            if cap_key not in offer.provided_capabilities:
                raise UnknownCapKeyError(
                    f"offer {offer.offer_id!r} covers {cap_key!r} without a "
                    "provided capability"
                )

    def degree(self, cap_key: str, offer: ServiceOffer) -> MatchDegree:
        form = self._forms.get(cap_key)
        if form is None:
            form = self._forms[cap_key] = normalize(self._required[cap_key], self._world)
        return match_normal_form(form, offer.provided_capabilities[cap_key], self._world)

    def covers(self, offer: ServiceOffer) -> bool:
        """Every covered key matches EXACT or PLUGIN; stops at the first that does not."""
        return all(
            self.degree(cap_key, offer) in COVERING_DEGREES
            for cap_key in offer.covered_cap_keys
        )


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

    Every unexpired offer is checked for structure (``UnknownCapKeyError``)
    and against the tender criteria first; an offer that breaks a criterion is
    never matched. The search is exact for any number of offers, and matches
    an offer's capabilities only when it first reaches that offer (see
    ``_least_cost_cover``), so an expression that cannot be matched raises only
    if the search reaches it. It prunes on cost, so unit prices must be
    non-negative (offer documents reject negative ones). Cost ties break
    toward the lexicographically smallest sorted offer-id tuple, and offers
    that share an id toward the one given first; the award lists its offers
    in offer-id order.
    """
    live = [
        offer
        for offer in sorted(offers, key=lambda o: o.offer_id)
        if offer.valid_until is None or offer.valid_until >= now
    ]
    coverage = _Coverage(request, world)
    for offer in live:
        coverage.check(offer)
    keys = sorted(set(request.cap_keys()))
    if not keys:
        raise NoFeasibleCombinationError("request has no capability keys")
    candidates = [
        offer for offer in live if not _tender_violations(request.tender, offer)
    ]
    chosen = _least_cost_cover(keys, candidates, coverage.covers)
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
    keys: list[str],
    candidates: list[ServiceOffer],
    covers: Callable[[ServiceOffer], bool],
) -> tuple[ServiceOffer, ...] | None:
    """Least (cost, sorted ids, input position) exact cover of ``keys`` by
    candidates, given in offer-id order, that ``covers`` admits.

    A branch and bound over Knuth's Algorithm X: branch on the lowest
    uncovered key, over the offers covering it in (unit price, offer id)
    order, and stop at the first whose price takes the cost above the best
    cover found (strictly, so equal-cost covers still reach the tie-break).
    Skip an offer that overlaps a covered key, reuses an exclusive group, or
    is dominated: an earlier offer at the same node was admitted and has the
    same key mask and no group or the same group. Swapping the dominated offer
    for that one gives a cover no dearer whose sorted ids and positions are
    smaller, so no least cover is lost. A group only one candidate carries
    excludes nothing and counts as no group. ``covers`` is asked once per
    offer, when the search first reaches it.
    """
    bit = {key: 1 << i for i, key in enumerate(keys)}
    full = (1 << len(keys)) - 1
    carriers = Counter(offer.exclusive_group for offer in candidates)
    covering: list[list[tuple[Decimal, str, int, int, str | None]]] = [[] for _ in keys]
    for position, offer in enumerate(candidates):
        mask = 0
        for key in offer.covered_cap_keys:
            mask |= bit[key]
        group = offer.exclusive_group if carriers[offer.exclusive_group] > 1 else None
        entry = (offer.unit_price, offer.offer_id, position, mask, group)
        for i in range(len(keys)):
            if mask >> i & 1:
                covering[i].append(entry)
    for branches in covering:
        branches.sort()  # positions are distinct, so masks and groups are never compared
    admitted: dict[int, bool] = {}
    best: tuple[Decimal, tuple[str, ...], list[int]] | None = None

    def walk(covered: int, groups: frozenset[str], cost: Decimal,
             chosen: list[int]) -> None:
        nonlocal best
        if covered == full:
            picked = sorted(chosen)
            ids = tuple(candidates[position].offer_id for position in picked)
            if best is None or (cost, ids, picked) < best:
                best = (cost, ids, picked)
            return
        lowest = (~covered & (covered + 1)).bit_length() - 1
        siblings: set[tuple[int, str | None]] = set()  # admitted (mask, group)
        for price, _, position, mask, group in covering[lowest]:
            if best is not None and cost + price > best[0]:
                break
            if mask & covered or group in groups:
                continue
            if (mask, None) in siblings or (mask, group) in siblings:
                continue
            if position not in admitted:
                admitted[position] = covers(candidates[position])
            if not admitted[position]:
                continue
            siblings.add((mask, group))
            chosen.append(position)
            walk(covered | mask, (groups | {group}) if group else groups,
                 cost + price, chosen)
            chosen.pop()

    walk(0, frozenset(), Decimal(0), [])
    return None if best is None else tuple(candidates[p] for p in best[2])


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
