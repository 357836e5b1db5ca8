from __future__ import annotations

import itertools
import random
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from decimal import Decimal

import pytest

from csskit.errors import (
    NoFeasibleCombinationError,
    OfferExpiredError,
    UnknownCapKeyError,
)
from csskit.expressions import parse_expression
from csskit.market import (
    Award,
    ServiceOffer,
    ServiceRequest,
    TenderCriteria,
    evaluate_offer,
    form_contract,
    select_offers,
)


def ts(text: str) -> datetime:
    return datetime.fromisoformat(text).replace(tzinfo=timezone.utc)


NOW = ts("2026-08-10T00:00:00")


@pytest.fixture
def request_two_caps(base_world) -> ServiceRequest:
    return ServiceRequest(
        request_id="req-1",
        required_capabilities=(
            ("cap-drill", parse_expression(
                "Drilling and (depth >= 10 mm) and (depth <= 12 mm)", base_world)),
            ("cap-screw", parse_expression(
                "Screwing and (torque <= 4)", base_world)),
        ),
        tender=TenderCriteria(
            quantity=1,
            max_unit_price=Decimal("10.00"),
            max_co2_per_unit=Decimal("2.0"),
            delivery_deadline=ts("2026-09-01T00:00:00"),
            required_certifications=frozenset({"iso9001"}),
            nda_required=True,
        ),
        submitted_at=ts("2026-08-01T00:00:00"),
        response_deadline=ts("2026-08-20T00:00:00"),
    )


def make_offer(base_world, offer_id="o-1", caps=("cap-drill",), price="4.50", **kw):
    provided = {
        "cap-drill": parse_expression("Drilling and (depth <= 15 mm)", base_world),
        "cap-screw": parse_expression("Screwing", base_world),
    }
    defaults = dict(
        offer_id=offer_id,
        provider_id="provider-x",
        request_id="req-1",
        covered_cap_keys=tuple(caps),
        provided_capabilities={k: provided[k] for k in caps},
        unit_price=Decimal(price),
        co2_per_unit=Decimal("1.0"),
        delivery_date=ts("2026-08-25T00:00:00"),
        certifications=frozenset({"iso9001"}),
        nda_accepted=True,
        valid_until=ts("2026-08-30T00:00:00"),
    )
    defaults.update(kw)
    return ServiceOffer(**defaults)


# --- evaluate_offer ---------------------------------------------------------------

def test_admissible_offer(base_world, request_two_caps):
    offer = make_offer(base_world, price="4.50")
    result = evaluate_offer(request_two_caps, offer, base_world)
    assert result.admissible and result.violations == ()


def test_price_violation(base_world, request_two_caps):
    capped = replace(
        request_two_caps,
        tender=replace(request_two_caps.tender, max_unit_price=Decimal("5.00")),
    )
    assert evaluate_offer(capped, make_offer(base_world, price="4.50"), base_world).admissible
    result = evaluate_offer(capped, make_offer(base_world, price="6.00"), base_world)
    assert not result.admissible
    assert [v.criterion for v in result.violations] == ["maxUnitPrice"]


def test_intersect_coverage_is_inadmissible(base_world, request_two_caps):
    narrow = parse_expression(
        "Drilling and (depth >= 11 mm) and (depth <= 20 mm)", base_world
    )
    offer = make_offer(base_world)
    offer = replace(offer, provided_capabilities={"cap-drill": narrow})
    result = evaluate_offer(request_two_caps, offer, base_world)
    assert not result.admissible
    assert [v.criterion for v in result.violations] == ["capabilityCoverage"]


def test_every_tender_criterion_is_reported(base_world, request_two_caps):
    offer = make_offer(
        base_world,
        price="16.00",
        co2_per_unit=Decimal("9.0"),
        delivery_date=ts("2026-09-05T00:00:00"),
        certifications=frozenset(),
        nda_accepted=False,
    )
    result = evaluate_offer(request_two_caps, offer, base_world)
    assert [v.criterion for v in result.violations] == [
        "maxUnitPrice",
        "maxCo2PerUnit",
        "deliveryDeadline",
        "requiredCertifications",
        "ndaRequired",
    ]


def test_unknown_cap_key(base_world, request_two_caps):
    offer = make_offer(base_world)
    offer = replace(offer, covered_cap_keys=("cap-paint",),
                    provided_capabilities={"cap-paint": offer.provided_capabilities["cap-drill"]})
    with pytest.raises(UnknownCapKeyError):
        evaluate_offer(request_two_caps, offer, base_world)


def test_admissibility_monotone_under_relaxed_bounds(base_world, request_two_caps):
    rng = random.Random(5)
    for _ in range(100):
        offer = make_offer(
            base_world,
            caps=("cap-drill", "cap-screw"),
            price=str(rng.randint(1, 9)),
            co2_per_unit=Decimal(rng.randint(0, 4)),
            delivery_date=NOW + timedelta(days=rng.randint(1, 40)),
        )
        before = evaluate_offer(request_two_caps, offer, base_world).admissible
        relaxed_tender = replace(
            request_two_caps.tender,
            max_unit_price=request_two_caps.tender.max_unit_price + 5,
            max_co2_per_unit=request_two_caps.tender.max_co2_per_unit + 5,
            delivery_deadline=request_two_caps.tender.delivery_deadline + timedelta(days=30),
        )
        relaxed = replace(request_two_caps, tender=relaxed_tender)
        after = evaluate_offer(relaxed, offer, base_world).admissible
        if before:
            assert after


# --- select_offers ----------------------------------------------------------------

def test_select_prefers_cheaper_split(base_world, request_two_caps):
    a = make_offer(base_world, "A", ("cap-drill",), "4.5")
    b = make_offer(base_world, "B", ("cap-screw",), "3.0")
    c = make_offer(base_world, "C", ("cap-drill", "cap-screw"), "8.0")
    # oracle: enumerate all 8 subsets and keep valid exact covers
    best = None
    for r in range(4):
        for subset in itertools.combinations((a, b, c), r):
            covered = [k for o in subset for k in o.covered_cap_keys]
            if sorted(covered) != ["cap-drill", "cap-screw"]:
                continue
            cost = sum(o.unit_price for o in subset)
            if best is None or cost < best:
                best = cost
    assert best == Decimal("7.5")

    award = select_offers(request_two_caps, [a, b, c], NOW, base_world)
    assert award.offer_ids() == ("A", "B")
    assert award.total_cost == Decimal("7.5")
    assert award.strategy == "exact"


def test_select_single_covering_offer(base_world, request_two_caps):
    c = make_offer(base_world, "C", ("cap-drill", "cap-screw"), "8.0")
    award = select_offers(request_two_caps, [c], NOW, base_world)
    assert award.offer_ids() == ("C",)
    assert award.total_cost == Decimal("8.0")


def test_select_expiry_and_exclusivity_leave_no_combination(base_world, request_two_caps):
    a = make_offer(base_world, "A", ("cap-drill",), "4.5",
                   valid_until=ts("2026-08-05T00:00:00"))  # expired
    b = make_offer(base_world, "B", ("cap-screw",), "3.0", exclusive_group="g1")
    c = make_offer(base_world, "C", ("cap-drill",), "8.0", exclusive_group="g1")
    # oracle: no subset covers both keys exactly once without a group clash
    offers = [a, b, c]
    valid = []
    for r in range(len(offers) + 1):
        for subset in itertools.combinations(offers, r):
            if any(o.valid_until < NOW for o in subset):
                continue
            covered = [k for o in subset for k in o.covered_cap_keys]
            groups = [o.exclusive_group for o in subset if o.exclusive_group]
            if sorted(covered) == ["cap-drill", "cap-screw"] and len(set(groups)) == len(groups):
                valid.append(subset)
    assert valid == []
    with pytest.raises(NoFeasibleCombinationError):
        select_offers(request_two_caps, offers, NOW, base_world)


def test_select_quantity_scales_total(base_world, request_two_caps):
    request = replace(
        request_two_caps, tender=replace(request_two_caps.tender, quantity=4)
    )
    a = make_offer(base_world, "A", ("cap-drill",), "4.5")
    b = make_offer(base_world, "B", ("cap-screw",), "3.0")
    award = select_offers(request, [a, b], NOW, base_world)
    assert award.total_cost == Decimal("30.0")


def test_select_breaks_cost_ties_by_offer_id(base_world, request_two_caps):
    # 22 candidates; two drill offers at the same price
    fillers = [
        make_offer(base_world, f"z-{i:02d}", ("cap-drill",), "9")
        for i in range(19)
    ]
    tied_a = make_offer(base_world, "a-tied", ("cap-drill",), "4")
    tied_b = make_offer(base_world, "b-tied", ("cap-drill",), "4")
    screw = make_offer(base_world, "m-screw", ("cap-screw",), "3.0")
    award = select_offers(
        request_two_caps, fillers + [tied_b, tied_a, screw], NOW, base_world
    )
    assert award.offer_ids() == ("a-tied", "m-screw")
    assert award.total_cost == Decimal("7.0")


def test_select_takes_cheapest_of_many_drill_offers(base_world, request_two_caps):
    offers = [
        make_offer(base_world, f"o-{i:02d}", ("cap-drill",), str(4 + (i % 3)))
        for i in range(20)
    ] + [make_offer(base_world, "o-screw", ("cap-screw",), "3.0")]
    award = select_offers(request_two_caps, offers, NOW, base_world)
    assert award.offer_ids() == ("o-00", "o-screw")  # cheapest drill (4) + screw (3)
    assert award.total_cost == Decimal("7.0")


def test_select_finds_cover_among_many_candidates(base_world):
    # 23 candidates; ab is the cheapest per key but leaves c coverable only
    # by the overlapping bc, so every cover is a + bc + one d-only offer
    trivial = parse_expression("Drilling", base_world)
    request = ServiceRequest(
        request_id="req-abcd",
        required_capabilities=tuple((k, trivial) for k in "abcd"),
        tender=TenderCriteria(
            quantity=1,
            max_unit_price=Decimal(10),
            max_co2_per_unit=Decimal(10),
            delivery_deadline=ts("2026-09-01T00:00:00"),
        ),
        submitted_at=ts("2026-08-01T00:00:00"),
        response_deadline=ts("2026-08-20T00:00:00"),
    )
    priced = [("ab", "ab", 1), ("bc", "bc", 1), ("a", "a", 5)] + [
        (f"d{i:02d}", "d", 1) for i in range(20)
    ]
    offers = [
        ServiceOffer(
            offer_id=offer_id,
            provider_id="p",
            request_id="req-abcd",
            covered_cap_keys=tuple(keys),
            provided_capabilities={k: trivial for k in keys},
            unit_price=Decimal(price),
            co2_per_unit=Decimal(1),
            delivery_date=ts("2026-08-25T00:00:00"),
        )
        for offer_id, keys, price in priced
    ]
    award = select_offers(request, offers, NOW, base_world)
    assert award.offer_ids() == ("a", "bc", "d00")
    assert award.total_cost == Decimal(7)


# --- form_contract -------------------------------------------------------------------

def test_contract_before_expiry(base_world, request_two_caps):
    a = make_offer(base_world, "A", ("cap-drill",), "4.5")
    b = make_offer(base_world, "B", ("cap-screw",), "3.0")
    award = select_offers(request_two_caps, [a, b], NOW, base_world)
    contract = form_contract(award, accepted_at=ts("2026-08-30T00:00:00"))
    assert contract.total_price == award.total_cost
    assert contract.accepted_offer_ids == ("A", "B")


def test_contract_one_second_after_expiry_fails(base_world, request_two_caps):
    a = make_offer(base_world, "A", ("cap-drill", "cap-screw"), "8.0")
    award = select_offers(request_two_caps, [a], NOW, base_world)
    # the boundary itself is inclusive
    form_contract(award, accepted_at=a.valid_until)
    with pytest.raises(OfferExpiredError) as excinfo:
        form_contract(award, accepted_at=a.valid_until + timedelta(seconds=1))
    assert excinfo.value.offer_id == "A"


def test_contract_requires_nonempty_award(request_two_caps):
    empty = Award(
        request_id="req-1", selected_offers=(), total_cost=Decimal(0), strategy="exact"
    )
    with pytest.raises(ValueError):
        form_contract(empty, accepted_at=NOW)


# --- optimality against exhaustive enumeration -------------------------------------------

def _random_instance(base_world, rng: random.Random):
    keys = [f"k{i}" for i in range(rng.randint(1, 4))]
    trivial = parse_expression("Drilling", base_world)
    request = ServiceRequest(
        request_id="req-r",
        required_capabilities=tuple((k, trivial) for k in keys),
        tender=TenderCriteria(
            quantity=rng.randint(1, 3),
            max_unit_price=Decimal(20),
            max_co2_per_unit=Decimal(10),
            delivery_deadline=ts("2026-09-01T00:00:00"),
        ),
        submitted_at=ts("2026-08-01T00:00:00"),
        response_deadline=ts("2026-08-20T00:00:00"),
    )
    offers = []
    for i in range(rng.randint(1, 10)):
        size = rng.randint(1, len(keys))
        covered = tuple(rng.sample(keys, size))
        offers.append(
            ServiceOffer(
                offer_id=f"o-{i:02d}",
                provider_id="p",
                request_id="req-r",
                covered_cap_keys=covered,
                provided_capabilities={k: trivial for k in covered},
                unit_price=Decimal(rng.randint(1, 30)),  # some exceed the cap
                co2_per_unit=Decimal(rng.randint(0, 12)),
                delivery_date=ts("2026-08-25T00:00:00"),
                valid_until=ts("2026-08-05T00:00:00")
                if rng.random() < 0.15
                else ts("2026-08-30T00:00:00"),
                exclusive_group=rng.choice([None, None, "g1", "g2"]),
            )
        )
    return request, offers


def _oracle_minimum(request, offers, now, world):
    admissible = [
        o
        for o in offers
        if o.valid_until >= now and evaluate_offer(request, o, world).admissible
    ]
    keys = sorted(request.cap_keys())
    best = None
    for r in range(len(admissible) + 1):
        for subset in itertools.combinations(admissible, r):
            covered = [k for o in subset for k in o.covered_cap_keys]
            groups = [o.exclusive_group for o in subset if o.exclusive_group]
            if sorted(covered) != keys or len(set(groups)) != len(groups):
                continue
            cost = Decimal(request.tender.quantity) * sum(
                (o.unit_price for o in subset), Decimal(0)
            )
            if best is None or cost < best:
                best = cost
    return best


def test_selection_matches_exhaustive_minimum(base_world):
    rng = random.Random(2024)
    solved = 0
    for _ in range(150):
        request, offers = _random_instance(base_world, rng)
        expected = _oracle_minimum(request, offers, NOW, base_world)
        if expected is None:
            with pytest.raises(NoFeasibleCombinationError):
                select_offers(request, offers, NOW, base_world)
            continue
        award = select_offers(request, offers, NOW, base_world)
        assert award.total_cost == expected
        # exactly-once coverage and exclusivity
        covered = [k for o in award.selected_offers for k in o.covered_cap_keys]
        assert sorted(covered) == sorted(request.cap_keys())
        groups = [o.exclusive_group for o in award.selected_offers if o.exclusive_group]
        assert len(set(groups)) == len(groups)
        solved += 1
    assert solved >= 60
