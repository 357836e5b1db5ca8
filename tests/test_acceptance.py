"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

1. Drilling example reproduction (INTERSECT / PLUGIN / DISJOINT), < 1 s
2. Matcher equals the enumeration oracle on >= 1000 random pairs, < 60 s
3. State machine closure over all 17 x 9 pairs, < 1 s
4. Transport equivalence + exactly-one-response fuzz over >= 10^4 requests
5. Offer selection equals the exhaustive minimum on >= 500 random instances
   of 1-10 offers plus >= 200 of 21-60 offers
6. Two-step scenario over TCP with feasibility rerouting, < 5 s
7. Criteria 1, 5 and 6 produce byte-identical machine output when repeated
"""

from __future__ import annotations

import itertools
import random
import time
from decimal import Decimal

import pytest

from csskit import jsonio
from csskit.cli import run as cli_run
from csskit.documents import build_world, document_to_text
from csskit.errors import InvalidTransitionError, NoFeasibleCombinationError
from csskit.expressions import Atom, CapabilityExpression, parse_expression
from csskit.hosting import CapabilityEnvelopeBehavior, build_resource_host
from csskit.market import (
    ServiceOffer,
    ServiceRequest,
    TenderCriteria,
    evaluate_offer,
    select_offers,
)
from csskit.matching import MatchDegree, match_capabilities
from csskit.model import PropertyDefinition, WorldModel
from csskit.orchestrate import execute_plan, plan, trace_to_lines
from csskit.protocol import Message, ServerSession, connect_tcp, decode, encode, serve
from csskit.skills import COMMANDS, STATES, FeasibilityResult, SkillHost
from csskit.taxonomy import Taxonomy, TaxonomyClass
from csskit.values import parse_timestamp

from test_protocol import _scripted_session, make_host
from test_skills import _EXPECTED, _PARK, ManualBehavior, drill_descriptor


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {criterion} failed: {detail}"


# --------------------------------------------------------------------------
# criterion 1: drilling example
# --------------------------------------------------------------------------

def _matcher_world() -> WorldModel:
    return WorldModel(
        taxonomy=Taxonomy(
            classes=(
                TaxonomyClass("ManufacturingProcess"),
                TaxonomyClass("Separating", "ManufacturingProcess"),
                TaxonomyClass("Drilling", "Separating"),
                TaxonomyClass("Milling", "Separating"),
            )
        ),
        property_defs=(
            PropertyDefinition("depth", "integer", unit="mm", declared_range=(0, 100)),
        ),
    )


def _criterion_1_lines(world: WorldModel) -> list[str]:
    provided = parse_expression("Drilling and (depth <= 15 mm)", world)
    cases = [
        ("Drilling and (depth >= 10 mm) and (depth <= 20 mm)", provided),
        ("Drilling and (depth >= 10 mm) and (depth <= 12 mm)", provided),
        ("Milling", provided),
    ]
    lines = []
    for required_text, provided_expr in cases:
        result = match_capabilities(
            parse_expression(required_text, world), provided_expr, world
        )
        lines.append(
            jsonio.dumps({"degree": result.degree.value, "witness": result.witness})
        )
    return lines


def test_criterion_1_drilling_example():
    started = time.monotonic()
    world = _matcher_world()
    provided = parse_expression("Drilling and (depth <= 15 mm)", world)

    wide = match_capabilities(
        parse_expression("Drilling and (depth >= 10 mm) and (depth <= 20 mm)", world),
        provided,
        world,
    )
    narrow = match_capabilities(
        parse_expression("Drilling and (depth >= 10 mm) and (depth <= 12 mm)", world),
        provided,
        world,
    )
    other_class = match_capabilities(
        parse_expression("Milling", world), provided, world
    )
    elapsed = time.monotonic() - started

    ok = (
        wide.degree is MatchDegree.INTERSECT
        and 10 <= wide.witness["depth"] <= 15
        and narrow.degree is MatchDegree.PLUGIN
        and other_class.degree is MatchDegree.DISJOINT
        and elapsed < 1.0
    )
    _report(1, ok, f"witness depth={wide.witness['depth']}, {elapsed:.3f} s")


# --------------------------------------------------------------------------
# criterion 2: matcher oracle equivalence
# --------------------------------------------------------------------------

def _oracle_world(span: int) -> WorldModel:
    return WorldModel(
        taxonomy=Taxonomy(
            classes=(
                TaxonomyClass("Root"),
                TaxonomyClass("Left", "Root"),
                TaxonomyClass("Right", "Root"),
                TaxonomyClass("LeftLeaf", "Left"),
            )
        ),
        property_defs=(
            PropertyDefinition("p1", "integer", declared_range=(0, span - 1)),
            PropertyDefinition("p2", "integer", declared_range=(-10, 10)),
        ),
    )


def _random_expr(rng: random.Random, world: WorldModel) -> CapabilityExpression:
    atoms = []
    for prop in world.property_defs:
        lo, hi = prop.declared_range
        for _ in range(rng.randint(0, 2)):
            atoms.append(
                Atom(
                    prop.id,
                    rng.choice(["<", "<=", ">", ">=", "=", "!="]),
                    rng.randint(lo - 3, hi + 3),
                    None,
                )
            )
    class_id = rng.choice([c.id for c in world.taxonomy.classes])
    return CapabilityExpression(class_id, tuple(atoms))


def _oracle_point_set(expr: CapabilityExpression, prop: PropertyDefinition) -> set[int]:
    atoms = [(a.comparator, a.literal) for a in expr.atoms if a.property_id == prop.id]
    lo, hi = prop.declared_range
    out = set()
    for v in range(lo, hi + 1):
        for comparator, literal in atoms:
            if comparator == "<":
                if not v < literal:
                    break
            elif comparator == "<=":
                if not v <= literal:
                    break
            elif comparator == ">":
                if not v > literal:
                    break
            elif comparator == ">=":
                if not v >= literal:
                    break
            elif comparator == "=":
                if v != literal:
                    break
            elif v == literal:  # "!="
                break
        else:
            out.add(v)
    return out


def _oracle_class_set(world: WorldModel, class_id: str) -> frozenset[str]:
    members = set()
    for cls in world.taxonomy.classes:
        cursor = cls
        while cursor is not None:
            if cursor.id == class_id:
                members.add(cls.id)
                break
            cursor = next(
                (c for c in world.taxonomy.classes if c.id == cursor.parent), None
            )
    return frozenset(members)


def _oracle_degree(required, provided, world) -> MatchDegree:
    r_class = _oracle_class_set(world, required.class_id)
    p_class = _oracle_class_set(world, provided.class_id)
    r_sets = {p.id: _oracle_point_set(required, p) for p in world.property_defs}
    p_sets = {p.id: _oracle_point_set(provided, p) for p in world.property_defs}
    if not (r_class & p_class) or any(not (r_sets[k] & p_sets[k]) for k in r_sets):
        return MatchDegree.DISJOINT
    r_in_p = r_class <= p_class and all(r_sets[k] <= p_sets[k] for k in r_sets)
    p_in_r = p_class <= r_class and all(p_sets[k] <= r_sets[k] for k in r_sets)
    if r_in_p and p_in_r:
        return MatchDegree.EXACT
    if r_in_p:
        return MatchDegree.PLUGIN
    if p_in_r:
        return MatchDegree.SUBSUME
    return MatchDegree.INTERSECT


def test_criterion_2_matcher_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(20260808)
    small_world = _oracle_world(200)
    big_world = _oracle_world(10_000)  # declared range of exactly 10^4 points

    cases = 0
    mismatches = 0
    for index in range(1000):
        world = big_world if index % 10 == 0 else small_world
        required = _random_expr(rng, world)
        provided = _random_expr(rng, world)
        expected = _oracle_degree(required, provided, world)
        got = match_capabilities(required, provided, world).degree
        cases += 1
        if got is not expected:
            mismatches += 1
    elapsed = time.monotonic() - started
    ok = cases >= 1000 and mismatches == 0 and elapsed < 60.0
    _report(2, ok, f"{cases} cases, {mismatches} mismatches, {elapsed:.1f} s")


# --------------------------------------------------------------------------
# criterion 3: state machine closure
# --------------------------------------------------------------------------

def test_criterion_3_state_machine_closure():
    started = time.monotonic()
    failures = []
    for state in STATES:
        for command in COMMANDS:
            host = SkillHost()
            lrid = host.register_skill(drill_descriptor(), ManualBehavior())
            for action in _PARK[state]:
                if action == "*":
                    host.advance(lrid)
                else:
                    host.fire_command(lrid, action)
            expected = _EXPECTED.get((state, command))
            if expected is None:
                try:
                    host.fire_command(lrid, command)
                    failures.append((state, command, "accepted"))
                except InvalidTransitionError:
                    if host.read_skill(lrid).state != state:
                        failures.append((state, command, "state moved"))
            else:
                got = host.fire_command(lrid, command)
                if got != expected:
                    failures.append((state, command, got))
    elapsed = time.monotonic() - started
    ok = not failures and elapsed < 1.0
    _report(3, ok, f"{17 * 9} pairs, {len(failures)} deviations, {elapsed:.3f} s")


# --------------------------------------------------------------------------
# criterion 4: transport equivalence and response fuzz
# --------------------------------------------------------------------------

def test_criterion_4_transport_equivalence_and_fuzz():
    from csskit.protocol import connect_loopback

    host_a, lrid_a = make_host()
    loop_client = connect_loopback(host_a)
    loop_outcomes = _scripted_session(loop_client, lrid_a)
    loop_client.close()

    host_b, lrid_b = make_host()
    server = serve(host_b, ("127.0.0.1", 0))
    tcp_client = connect_tcp(("127.0.0.1", server.port))
    try:
        tcp_outcomes = _scripted_session(tcp_client, lrid_b)
    finally:
        tcp_client.close()
        server.close()

    equivalent = (
        len(loop_outcomes) >= 50
        and "\n".join(loop_outcomes).encode() == "\n".join(tcp_outcomes).encode()
    )

    host, lrid = make_host()
    responses: list[Message] = []
    session = ServerSession(host, "fuzz", lambda line: responses.append(decode(line)))
    rng = random.Random(424242)
    total = 10_000
    session.handle_line(
        encode(Message("hello", "c-hello", {"version": "css/1"}))
    )
    for index in range(total - 1):
        kind, payload = rng.choice(
            [
                ("list_skills", {}),
                ("read", {"localRuntimeId": lrid}),
                ("read", {"localRuntimeId": "lr-0404"}),
                ("describe", {"localRuntimeId": lrid}),
                ("write", {"localRuntimeId": lrid, "values": {"depth": rng.randint(0, 30)}}),
                ("command", {"localRuntimeId": lrid, "command": rng.choice(list(COMMANDS))}),
                ("feasibility", {"localRuntimeId": lrid, "inputs": {"depth": rng.randint(0, 40)}}),
                ("subscribe", {"localRuntimeId": lrid, "enable": rng.random() < 0.5}),
            ]
        )
        session.handle_line(encode(Message(kind, f"c-{index:06d}", payload)))
    session.close()

    replies = [m for m in responses if m.kind in ("result", "error")]
    counts: dict[str, int] = {}
    for message in replies:
        counts[message.correlation_id] = counts.get(message.correlation_id, 0) + 1
    exactly_one = len(counts) == total and all(n == 1 for n in counts.values())

    _report(4, equivalent and exactly_one,
            f"{len(loop_outcomes)} scripted requests, fuzz {total} requests")


# --------------------------------------------------------------------------
# criterion 5: market optimality
# --------------------------------------------------------------------------

NOW = parse_timestamp("2026-08-10T00:00:00Z")


def _market_world() -> WorldModel:
    return WorldModel(
        taxonomy=Taxonomy(
            classes=(TaxonomyClass("Root"), TaxonomyClass("Work", "Root"))
        )
    )


def _market_instance(rng: random.Random, world: WorldModel,
                     max_keys: int = 4, offer_counts: tuple[int, int] = (1, 10)):
    trivial = parse_expression("Work", world)
    keys = [f"k{i}" for i in range(rng.randint(1, max_keys))]
    request = ServiceRequest(
        request_id="req-r",
        required_capabilities=tuple((k, trivial) for k in keys),
        tender=TenderCriteria(
            quantity=rng.randint(1, 3),
            max_unit_price=Decimal(20),
            max_co2_per_unit=Decimal(10),
            delivery_deadline=parse_timestamp("2026-09-01T00:00:00Z"),
        ),
        submitted_at=parse_timestamp("2026-08-01T00:00:00Z"),
        response_deadline=parse_timestamp("2026-08-20T00:00:00Z"),
    )
    offers = []
    for index in range(rng.randint(*offer_counts)):
        covered = tuple(rng.sample(keys, rng.randint(1, len(keys))))
        offers.append(
            ServiceOffer(
                offer_id=f"o-{index:02d}",
                provider_id="p",
                request_id="req-r",
                covered_cap_keys=covered,
                provided_capabilities={k: trivial for k in covered},
                unit_price=Decimal(rng.randint(1, 30)),
                co2_per_unit=Decimal(rng.randint(0, 12)),
                delivery_date=parse_timestamp("2026-08-25T00:00:00Z"),
                valid_until=parse_timestamp(
                    "2026-08-05T00:00:00Z" if rng.random() < 0.15
                    else "2026-08-30T00:00:00Z"
                ),
                exclusive_group=rng.choice([None, None, "g1", "g2"]),
            )
        )
    return request, offers


def _exhaustive_minimum(request, offers, world):
    admissible = [
        o
        for o in offers
        if o.valid_until >= NOW and evaluate_offer(request, o, world).admissible
    ]
    keys = sorted(request.cap_keys())
    best = None
    # every offer covers at least one key and a cover uses each key once,
    # so no cover has more offers than there are keys
    for r in range(min(len(admissible), len(keys)) + 1):
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


def _criterion_5_lines(seed: int) -> tuple[list[str], int, int]:
    world = _market_world()
    rng = random.Random(seed)
    lines = []
    violations = 0
    solved = 0
    shapes = [{}] * 500 + [{"max_keys": 3, "offer_counts": (21, 60)}] * 200
    for shape in shapes:
        request, offers = _market_instance(rng, world, **shape)
        expected = _exhaustive_minimum(request, offers, world)
        try:
            award = select_offers(request, offers, NOW, world)
        except NoFeasibleCombinationError:
            if expected is not None:
                violations += 1
            lines.append(jsonio.dumps({"award": None}))
            continue
        solved += 1
        if expected is None or award.total_cost != expected:
            violations += 1
        covered = sorted(
            k for o in award.selected_offers for k in o.covered_cap_keys
        )
        groups = [o.exclusive_group for o in award.selected_offers if o.exclusive_group]
        if covered != sorted(request.cap_keys()) or len(set(groups)) != len(groups):
            violations += 1
        lines.append(
            jsonio.dumps(
                {"award": list(award.offer_ids()), "totalCost": award.total_cost}
            )
        )
    return lines, solved, violations


def test_criterion_5_market_optimality():
    started = time.monotonic()
    lines, solved, violations = _criterion_5_lines(seed=2025)
    elapsed = time.monotonic() - started
    ok = len(lines) == 700 and violations == 0
    _report(5, ok, f"700 instances, 200 of them with 21-60 offers "
                   f"({solved} solvable), {violations} deviations, {elapsed:.1f} s")


# --------------------------------------------------------------------------
# criterion 6: end-to-end scenario over TCP
# --------------------------------------------------------------------------

SUCCESS_SEQUENCE = (
    "Resetting", "Idle", "Starting", "Execute", "Completing", "Complete",
    "Resetting", "Idle",
)


def scenario_world_doc() -> dict:
    """Two resources: a drills; b drills (wider) and screws. The drill step
    fits both providers at PLUGIN degree, so the resource-id tie-break plans
    it on a; the injected feasibility failure must reroute it to b."""
    drill_params = [
        {"paramId": "depth", "direction": "input", "datatype": "integer", "unit": "mm"},
        {"paramId": "achievedDepth", "direction": "output", "datatype": "integer", "unit": "mm"},
    ]
    return {
        "schema": "css.world/1",
        "taxonomy": {"classes": [
            {"id": "ManufacturingProcess"},
            {"id": "Separating", "parent": "ManufacturingProcess"},
            {"id": "Joining", "parent": "ManufacturingProcess"},
            {"id": "Drilling", "parent": "Separating"},
            {"id": "Screwing", "parent": "Joining"},
        ]},
        "properties": [
            {"id": "depth", "datatype": "integer", "unit": "mm", "declaredRange": [0, 100]},
            {"id": "torque", "datatype": "real", "declaredRange": [0, 10]},
        ],
        "resources": [
            {
                "id": "resource-a",
                "capabilities": [{
                    "id": "cap-drill-a", "iri": "urn:cap:drill-a",
                    "expression": "Drilling and (depth <= 25 mm)",
                }],
                "skills": [{
                    "skillId": "skill-drill-a", "capabilityRef": "urn:cap:drill-a",
                    "hasFeasibilityCheck": True, "parameters": drill_params,
                }],
            },
            {
                "id": "resource-b",
                "capabilities": [
                    {
                        "id": "cap-drill-b", "iri": "urn:cap:drill-b",
                        "expression": "Drilling and (depth <= 30 mm)",
                    },
                    {
                        "id": "cap-screw-b", "iri": "urn:cap:screw-b",
                        "expression": "Screwing and (torque <= 5)",
                    },
                ],
                "skills": [
                    {
                        "skillId": "skill-drill-b", "capabilityRef": "urn:cap:drill-b",
                        "hasFeasibilityCheck": True, "parameters": drill_params,
                    },
                    {
                        "skillId": "skill-screw-b", "capabilityRef": "urn:cap:screw-b",
                        "parameters": [
                            {"paramId": "torque", "direction": "input", "datatype": "real"},
                            {"paramId": "achievedTorque", "direction": "output", "datatype": "real"},
                        ],
                    },
                ],
            },
        ],
        "products": [{
            "id": "prod-bracket",
            "steps": [
                {"id": "step-drill",
                 "requiredCapability": "Drilling and (depth >= 10 mm) and (depth <= 20 mm)",
                 "parameterValues": {"depth": 12}},
                {"id": "step-screw",
                 "requiredCapability": "Screwing and (torque <= 4)",
                 "parameterValues": {"torque": Decimal("2.5")}},
            ],
        }],
    }


class InjectedFeasibilityFailure(CapabilityEnvelopeBehavior):
    def feasibility(self, inputs):
        return FeasibilityResult(False, reason="injected failure on resource a")


def _run_scenario() -> str:
    world = build_world([scenario_world_doc()])
    production_plan = plan(world.product("prod-bracket"), world)

    host_a = build_resource_host(
        world, "resource-a", behavior_factory=InjectedFeasibilityFailure
    )
    host_b = build_resource_host(world, "resource-b")
    server_a = serve(host_a, ("127.0.0.1", 0))
    server_b = serve(host_b, ("127.0.0.1", 0))
    connections = {}
    try:
        for resource_id, server in (("resource-a", server_a), ("resource-b", server_b)):
            client = connect_tcp(("127.0.0.1", server.port))
            client.hello()
            connections[resource_id] = client
        trace = execute_plan(production_plan, connections)
    finally:
        for client in connections.values():
            client.close()
        server_a.close()
        server_b.close()
    return "\n".join(trace_to_lines(trace))


def test_criterion_6_end_to_end_scenario():
    started = time.monotonic()
    world = build_world([scenario_world_doc()])
    production_plan = plan(world.product("prod-bracket"), world)
    planned_first = production_plan.entries[0]

    rendered = _run_scenario()
    elapsed = time.monotonic() - started
    records = [jsonio.loads(line) for line in rendered.splitlines()]

    def states(step_id):
        return tuple(
            r["detail"]["newState"]
            for r in records
            if r["kind"] == "stateChange" and r["stepId"] == step_id
        )

    rerouted = any(
        r["kind"] == "feasibility" and r["detail"]["feasible"] is False
        for r in records
    )
    ok = (
        planned_first.resource_id == "resource-a"
        and rerouted
        and states("step-drill") == SUCCESS_SEQUENCE
        and states("step-screw") == SUCCESS_SEQUENCE
        and elapsed < 5.0
    )
    _report(6, ok, f"{len(records)} trace records, rerouted={rerouted}, {elapsed:.2f} s")


# --------------------------------------------------------------------------
# criterion 7: determinism
# --------------------------------------------------------------------------

def test_criterion_7_determinism(tmp_path, capsys):
    # criterion 1 through the CLI's machine-readable output
    world_path = tmp_path / "world.json"
    world_path.write_text(document_to_text(scenario_world_doc()), encoding="utf-8")

    def match_lines() -> bytes:
        for required in (
            "Drilling and (depth >= 10 mm) and (depth <= 20 mm)",
            "Drilling and (depth >= 10 mm) and (depth <= 12 mm)",
        ):
            code = cli_run([
                "match", "--required", required,
                "--provided", "Drilling and (depth <= 15 mm)",
                "--world", str(world_path), "--format", "lines",
            ])
            assert code == 0
        return capsys.readouterr().out.encode()

    library_lines = "\n".join(_criterion_1_lines(_matcher_world())).encode()
    match_ok = (
        match_lines() == match_lines()
        and library_lines == "\n".join(_criterion_1_lines(_matcher_world())).encode()
    )

    first_market, _, _ = _criterion_5_lines(seed=2025)
    second_market, _, _ = _criterion_5_lines(seed=2025)
    market_ok = "\n".join(first_market).encode() == "\n".join(second_market).encode()

    scenario_ok = _run_scenario().encode() == _run_scenario().encode()

    _report(
        7,
        match_ok and market_ok and scenario_ok,
        f"match={match_ok} market={market_ok} scenario={scenario_ok}",
    )
