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
    UnknownPropertyError,
)
from csskit.expressions import Atom, CapabilityExpression, parse_expression
from csskit.market import (
    COVERING_DEGREES,
    Award,
    ServiceOffer,
    ServiceRequest,
    TenderCriteria,
    Violation,
    evaluate_offer,
    evaluate_offers,
    form_contract,
    select_offers,
)
from csskit import market
from csskit.expressions import normalize
from csskit.matching import MatchDegree, match_capabilities, match_normal_form


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


@pytest.mark.parametrize("edit, message", [
    (dict(request_id="req-2"), "offer 'o-1' answers request 'req-2', not 'req-1'"),
    (dict(provided_capabilities={}),
     "offer 'o-1' covers 'cap-drill' without a provided capability"),
], ids=["other-request", "no-provided-capability"])
def test_an_offer_that_does_not_answer_the_request_is_refused(
    base_world, request_two_caps, edit, message
):
    offer = replace(make_offer(base_world), **edit)
    for judge in (
        lambda: evaluate_offer(request_two_caps, offer, base_world),
        lambda: select_offers(request_two_caps, [offer], NOW, base_world),
    ):
        with pytest.raises(UnknownCapKeyError) as excinfo:
            judge()
        assert excinfo.value.message == message


def test_a_request_without_keys_has_no_combination(base_world, request_two_caps):
    keyless = replace(request_two_caps, required_capabilities=())
    with pytest.raises(NoFeasibleCombinationError) as excinfo:
        select_offers(keyless, [], NOW, base_world)
    assert excinfo.value.message == "request has no capability keys"


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


def test_a_duplicated_key_is_judged_against_its_first_expression(base_world, request_two_caps):
    drill, screw = request_two_caps.required_capabilities
    wide = ("cap-drill", parse_expression("Drilling and (depth <= 50 mm)", base_world))
    offer = make_offer(base_world)  # depth <= 15: PLUGIN for [10, 12], SUBSUME for [0, 50]
    narrow_first = replace(request_two_caps, required_capabilities=(drill, screw, wide))
    wide_first = replace(request_two_caps, required_capabilities=(wide, screw, drill))
    assert narrow_first.cap_keys() == ("cap-drill", "cap-screw", "cap-drill")
    assert evaluate_offer(narrow_first, offer, base_world).admissible
    (violation,) = evaluate_offer(wide_first, offer, base_world).violations
    assert violation.detail == "cap-drill: degree SUBSUME does not cover the requirement"
    screw_offer = make_offer(base_world, "o-2", caps=("cap-screw",))
    award = select_offers(narrow_first, [offer, screw_offer], NOW, base_world)
    assert award.offer_ids() == ("o-1", "o-2")
    with pytest.raises(NoFeasibleCombinationError):
        select_offers(wide_first, [offer, screw_offer], NOW, base_world)


def test_evaluating_many_offers_normalizes_each_requested_key_once(
    request_two_caps, base_world, monkeypatch
):
    calls = []

    def counted(expression, world):
        calls.append(expression)
        return normalize(expression, world)

    monkeypatch.setattr(market, "normalize", counted)
    covers = [("cap-drill",), ("cap-screw",), ("cap-drill", "cap-screw")] * 3
    offers = [make_offer(base_world, f"o-{i}", caps) for i, caps in enumerate(covers)]
    results = list(evaluate_offers(request_two_caps, offers, base_world))
    assert len(calls) == 2
    assert results == [evaluate_offer(request_two_caps, o, base_world) for o in offers]
    assert len(calls) == 2 + 12  # evaluate_offer alone normalizes per covered key


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


# --- shared required normal forms against match_capabilities per offer -------------

#: class -> (constrained property, unit, literal scale)
_PROPERTY = {
    "Drilling": ("depth", "mm", 1), "Milling": ("depth", "mm", 1),
    "Screwing": ("torque", None, 10), "Welding": ("cycle", "s", 1),
}
_PARENT = {"Drilling": "Separating", "Milling": "Separating",
           "Screwing": "Joining", "Welding": "Joining"}
_SIBLING = {"Drilling": "Milling", "Milling": "Drilling",
            "Screwing": "Welding", "Welding": "Screwing"}


def _window(class_id, leaf, low, high):
    property_id, unit, scale = _PROPERTY[leaf]
    low, high = (low, high) if scale == 1 else (Decimal(low) / scale, Decimal(high) / scale)
    return CapabilityExpression(
        class_id, (Atom(property_id, ">=", low, unit), Atom(property_id, "<=", high, unit))
    )


def _provided(rng, need):
    """The need itself, its window widened on its class or its parent class,
    on a sibling class, strictly narrower, or shifted to start inside it."""
    leaf, low, high = need
    shape = rng.choice(("exact", "same", "parent", "sibling", "narrower", "shifted"))
    if shape == "exact":
        return _window(leaf, *need)
    if shape == "narrower":
        return _window(leaf, leaf, rng.randint(low, high - 1), high - 1)
    if shape == "shifted":
        start = rng.randint(low + 1, high)
        return _window(leaf, leaf, start, min(start + high - low, 100))
    class_id = {"same": leaf, "parent": _PARENT[leaf], "sibling": _SIBLING[leaf]}[shape]
    return _window(class_id, leaf, rng.randint(0, low), rng.randint(high, 100))


def _tender_instance(base_world, rng):
    needs = {}
    for i in range(rng.randint(1, 4)):
        low = rng.randint(1, 80)
        needs[f"k{i}"] = (rng.choice(sorted(_PROPERTY)), low, low + rng.randint(1, 19))
    request = ServiceRequest(
        request_id="req-t",
        required_capabilities=tuple((k, _window(n[0], *n)) for k, n in needs.items()),
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
    for i in range(rng.randint(2, 8)):
        covered = tuple(rng.sample(sorted(needs), rng.randint(1, len(needs))))
        offers.append(ServiceOffer(
            offer_id=f"o-{i:02d}",
            provider_id="p",
            request_id="req-t",
            covered_cap_keys=covered,
            provided_capabilities={k: _provided(rng, needs[k]) for k in covered},
            unit_price=Decimal(rng.randint(1, 24)),  # some exceed the cap
            co2_per_unit=Decimal(1),
            delivery_date=ts("2026-08-25T00:00:00"),
            valid_until=ts("2026-08-30T00:00:00"),
            exclusive_group=rng.choice([None, None, "g1"]),
        ))
    return request, offers


def test_offer_evaluation_equals_match_capabilities_per_offer(base_world):
    rng = random.Random(1012)
    degrees = set()
    for _ in range(200):
        request, offers = _tender_instance(base_world, rng)
        required = dict(request.required_capabilities)
        for offer in offers:
            expected = []
            for key in offer.covered_cap_keys:
                degree = match_capabilities(
                    required[key], offer.provided_capabilities[key], base_world
                ).degree
                degrees.add(degree)
                if degree not in COVERING_DEGREES:
                    expected.append(Violation(
                        "capabilityCoverage",
                        f"{key}: degree {degree.value} does not cover the requirement",
                    ))
            violations = evaluate_offer(request, offer, base_world).violations
            assert [v for v in violations if v.criterion == "capabilityCoverage"] == expected
        least = _oracle_minimum(request, offers, NOW, base_world)
        if least is None:
            with pytest.raises(NoFeasibleCombinationError):
                select_offers(request, offers, NOW, base_world)
        else:
            assert select_offers(request, offers, NOW, base_world).total_cost == least
    assert degrees == set(MatchDegree)


# --- equal prices: bounded search, tie-break and lazy matching ---------------------

#: builds a family of 16 keys, each covered by 4 single-key offers at one price,
#: times one selection and prints its offer ids and seconds
_FAMILY_SCRIPT = """
import sys, time
from datetime import datetime, timezone
from decimal import Decimal
from csskit.expressions import CapabilityExpression
from csskit.market import ServiceOffer, ServiceRequest, TenderCriteria, select_offers
from csskit.model import WorldModel
from csskit.taxonomy import Taxonomy, TaxonomyClass

grouped = sys.argv[1] == "grouped"
now = datetime(2026, 8, 10, tzinfo=timezone.utc)
world = WorldModel(taxonomy=Taxonomy(classes=(TaxonomyClass("Drilling", None, "Drilling"),)),
                   property_defs=())
need = CapabilityExpression("Drilling", ())
keys = [f"k{i:02d}" for i in range(16)]
request = ServiceRequest(
    request_id="req-f",
    required_capabilities=tuple((key, need) for key in keys),
    tender=TenderCriteria(quantity=1, max_unit_price=Decimal(10),
                          max_co2_per_unit=Decimal(10), delivery_deadline=now),
    submitted_at=now, response_deadline=now,
)
offers = [
    ServiceOffer(
        offer_id=f"o-{key}-{j}", provider_id="p", request_id="req-f",
        covered_cap_keys=(key,), provided_capabilities={key: need},
        unit_price=Decimal(3), co2_per_unit=Decimal(1), delivery_date=now,
        exclusive_group=f"g-{key}-{j}" if grouped else None,
    )
    for key in keys for j in (3, 1, 0, 2)
]
started = time.perf_counter()
award = select_offers(request, offers, now, world)
elapsed = time.perf_counter() - started
print(" ".join(award.offer_ids()), award.total_cost, elapsed)
"""


@pytest.mark.parametrize("family", ["plain", "grouped"])
def test_equal_price_offers_are_selected_in_bounded_time(family):
    """16 keys x 4 equal-price single-key offers, without groups and with every
    offer in its own exclusive group: the search must not try all 4^16 covers.
    It runs in a child process, so a search that does not end fails the test."""
    import os
    import subprocess
    import sys

    import csskit

    src = os.path.dirname(os.path.dirname(os.path.abspath(csskit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    try:
        done = subprocess.run(
            [sys.executable, "-c", _FAMILY_SCRIPT, family],
            capture_output=True, text=True, env=env, timeout=60,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("selection over 64 equal-price offers did not end within 60 s")
    assert done.returncode == 0, done.stderr
    *ids, total, seconds = done.stdout.split()
    assert ids == [f"o-k{i:02d}-0" for i in range(16)]
    assert Decimal(total) == 48
    assert float(seconds) < 1.0  # a few milliseconds here; 1 s leaves >= 10x


def _tie_instance(base_world, rng: random.Random):
    """Prices from two or three values, shared and singleton groups, and some
    non-covering, expired and tender-failing offers, plus one copy of an offer
    under the same id."""
    needs = {}
    for i in range(rng.randint(1, 4)):
        low = rng.randint(1, 80)
        needs[f"k{i}"] = (rng.choice(sorted(_PROPERTY)), low, low + rng.randint(1, 19))
    request = ServiceRequest(
        request_id="req-t",
        required_capabilities=tuple((k, _window(n[0], *n)) for k, n in needs.items()),
        tender=TenderCriteria(
            quantity=rng.randint(1, 3),
            max_unit_price=Decimal(20),
            max_co2_per_unit=Decimal(5),
            delivery_deadline=ts("2026-09-01T00:00:00"),
        ),
        submitted_at=ts("2026-08-01T00:00:00"),
        response_deadline=ts("2026-08-20T00:00:00"),
    )
    prices = rng.sample(["2", "3", "3.5", "4"], rng.randint(2, 3))
    offers = []
    for i in range(rng.randint(2, 9)):
        covered = tuple(rng.sample(sorted(needs), rng.randint(1, len(needs))))
        provided = {
            k: _window(needs[k][0], *needs[k]) if rng.random() < 0.85
            else _provided(rng, needs[k])
            for k in covered
        }
        offers.append(ServiceOffer(
            offer_id=f"o-{rng.randint(0, 99):02d}-{i}",
            provider_id="p",
            request_id="req-t",
            covered_cap_keys=covered,
            provided_capabilities=provided,
            unit_price=Decimal(rng.choice(prices)),
            co2_per_unit=Decimal(9) if rng.random() < 0.1 else Decimal(1),
            delivery_date=ts("2026-08-25T00:00:00"),
            valid_until=ts("2026-08-05T00:00:00") if rng.random() < 0.1
            else ts("2026-08-30T00:00:00"),
            exclusive_group=rng.choice([None, None, "g1", "g2", f"solo-{i}"]),
        ))
    twin = replace(
        rng.choice(offers),
        unit_price=Decimal(rng.choice(prices)),
        exclusive_group=rng.choice([None, "g1", "solo-twin"]),
    )
    offers.insert(rng.randint(0, len(offers)), twin)
    return request, offers


def _least_covers(request, offers, now, world):
    """Every exact cover by admissible, unexpired offers, least (cost, sorted
    ids) first; offers sharing an id count in the order they were given."""
    live = [o for o in sorted(offers, key=lambda o: o.offer_id) if o.valid_until >= now]
    admissible = [o for o in live if evaluate_offer(request, o, world).admissible]
    keys = sorted(set(request.cap_keys()))
    covers = []
    for r in range(1, len(admissible) + 1):
        for subset in itertools.combinations(admissible, r):
            covered = [k for o in subset for k in o.covered_cap_keys]
            groups = [o.exclusive_group for o in subset if o.exclusive_group]
            if sorted(covered) == keys and len(set(groups)) == len(groups):
                cost = Decimal(request.tender.quantity) * sum(
                    (o.unit_price for o in subset), Decimal(0)
                )
                covers.append((cost, tuple(o.offer_id for o in subset), subset))
    return sorted(covers, key=lambda cover: cover[:2])  # stable: earlier offers win


def test_selection_equals_exhaustive_least_cover_with_tied_prices(base_world):
    rng = random.Random(2610)
    solved = tied = 0
    for _ in range(300):
        request, offers = _tie_instance(base_world, rng)
        covers = _least_covers(request, offers, NOW, base_world)
        if not covers:
            with pytest.raises(NoFeasibleCombinationError):
                select_offers(request, offers, NOW, base_world)
            continue
        cost, ids, subset = covers[0]
        award = select_offers(request, offers, NOW, base_world)
        assert award.offer_ids() == ids
        assert award.total_cost == cost
        assert len(award.selected_offers) == len(subset)
        assert all(a is b for a, b in zip(award.selected_offers, subset))
        solved += 1
        tied += len(covers) > 1 and covers[1][0] == cost
    assert solved >= 100 and tied >= 30


def test_selection_matches_only_offers_its_search_reaches(
    base_world, request_two_caps, monkeypatch
):
    matched = []

    def counted(required_nf, provided, world):
        matched.append(provided)
        return match_normal_form(required_nf, provided, world)

    monkeypatch.setattr(market, "match_normal_form", counted)
    dirty = make_offer(base_world, "T", ("cap-drill",), "1.0", co2_per_unit=Decimal("9"))
    drill = make_offer(base_world, "A", ("cap-drill",), "2.0")
    screw = make_offer(base_world, "B", ("cap-screw",), "2.0")
    both = make_offer(base_world, "C", ("cap-drill", "cap-screw"), "5.0")
    offers = [dirty, drill, screw, both]
    award = select_offers(request_two_caps, offers, NOW, base_world)
    assert award.offer_ids() == ("A", "B")
    # T fails the CO2 bound and C costs more than the cover A + B
    assert matched == [drill.provided_capabilities["cap-drill"],
                       screw.provided_capabilities["cap-screw"]]
    matched.clear()
    list(evaluate_offers(request_two_caps, offers, base_world))
    assert len(matched) == 5  # every covered key of every offer


def test_a_bad_offer_expression_raises_only_where_selection_reaches_it(
    base_world, request_two_caps
):
    broken = make_offer(base_world, "C", ("cap-drill", "cap-screw"), "5.0")
    unknown = CapabilityExpression("Drilling", (Atom("nosuch", "<=", 3, None),))
    broken = replace(broken, provided_capabilities={
        **broken.provided_capabilities, "cap-drill": unknown})
    drill = make_offer(base_world, "A", ("cap-drill",), "2.0")
    screw = make_offer(base_world, "B", ("cap-screw",), "2.0")
    award = select_offers(request_two_caps, [broken, drill, screw], NOW, base_world)
    assert award.offer_ids() == ("A", "B")  # C costs more than A + B
    with pytest.raises(UnknownPropertyError):
        select_offers(request_two_caps, [broken, screw], NOW, base_world)
    with pytest.raises(UnknownPropertyError):
        list(evaluate_offers(request_two_caps, [broken, drill, screw], base_world))
