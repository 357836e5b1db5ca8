"""Seeded inputs, set-up, one operation and its output checks, per workload.

Each workload object is built from a seed and owns every input the program
will see: ``n_inputs`` of them, fixed by the seed and run in passes, in
order. ``setup()`` is the program's set-up (timed as ``setup_s``),
``make_input(i)`` builds input number ``i`` (not timed), ``run()`` is one closed-loop operation (timed) and ``check()``
verifies its output (not timed). ``check()`` returns two lists of problems:
``violations`` break a rule the program promises and make the run incorrect;
``misses`` are outputs that are valid but differ from the benchmark's
reference (the optimal award), which count the input as failed.

The class mix of worlds and catalogues is fixed by index and only values are
seeded, so every seed asks the program for the same amount of work.

Why these three workloads:

* ``plan-1000`` plans catalogue products against one world of 1000
  resources. ``model``, ``expressions``, ``taxonomy``, ``matching`` and
  ``orchestrate.plan`` do nearly all the work and ``protocol`` none. The
  catalogue has 24 products, so each is replanned within a run, as when a
  factory replans its catalogue. It is the workload for compiling the world
  once (ROADMAP item 2).
* ``run-tcp`` plans and executes catalogue products on a small world over
  two persistent ``css/1`` TCP connections. A seeded fifth of the primary
  attempts is rejected by an injected feasibility behaviour, so failover and
  its extra round trips run. ``protocol``, ``skills`` and ``hosting`` do the
  work and the matcher little. It is the workload for TCP_NODELAY (ROADMAP
  item 1).
* ``tender-select`` selects offers for one of 4000 seeded requests per
  operation, each built afresh for its operation and repeated only once all
  4000 have run: 3-8 capability keys, 8-40 offers with real capability
  expressions, expired, inadmissible and exclusive-group offers, and a planted feasible
  cover. Admissible counts span ``EXACT_SEARCH_LIMIT`` so both the exact and
  the greedy path run. It is the workload for one exact selector (ROADMAP
  item 3) and the bypass workload for protocol changes.
"""

from __future__ import annotations

import random
from typing import NamedTuple
from datetime import datetime, timedelta, timezone
from decimal import Decimal
from fractions import Fraction

from csskit import documents, market, orchestrate
from csskit.expressions import Atom, CapabilityExpression
from csskit.hosting import CapabilityEnvelopeBehavior, build_resource_host
from csskit.market import ServiceOffer, ServiceRequest, TenderCriteria
from csskit.matching import MatchDegree, match_capabilities
from csskit.protocol import connect_tcp, serve
from csskit.skills import FeasibilityResult

# ---------------------------------------------------------------------------
# worlds in the shape of tests/conftest.py:exec_world_doc
# ---------------------------------------------------------------------------

TAXONOMY = [
    {"id": "ManufacturingProcess", "label": "Manufacturing process"},
    {"id": "Separating", "parent": "ManufacturingProcess", "label": "Separating"},
    {"id": "Joining", "parent": "ManufacturingProcess", "label": "Joining"},
    {"id": "Drilling", "parent": "Separating", "label": "Drilling"},
    {"id": "Milling", "parent": "Separating", "label": "Milling"},
    {"id": "Screwing", "parent": "Joining", "label": "Screwing"},
    {"id": "Welding", "parent": "Joining", "label": "Welding"},
]

PROPERTIES = [
    {"id": "depth", "datatype": "integer", "unit": "mm", "declaredRange": [0, 100]},
    {"id": "diameter", "datatype": "integer", "unit": "mm", "declaredRange": [0, 50]},
    {"id": "torque", "datatype": "real", "declaredRange": [0, 10]},
    {"id": "material", "datatype": "enum", "enumValues": ["steel", "aluminium", "wood"]},
    {"id": "coolant", "datatype": "boolean"},
    {"id": "cycle", "datatype": "integer", "unit": "s", "declaredRange": [0, 3600]},
]

LEAF_CLASSES = ("Drilling", "Milling", "Screwing", "Welding")

#: skill input parameters per class; the first one is always bound by a step,
#: the others carry defaults (so parent-class steps bind too)
SKILL_INPUTS = {
    "Drilling": (("depth", "integer", "mm", None), ("diameter", "integer", "mm", 5)),
    "Milling": (("depth", "integer", "mm", None),),
    "Screwing": (("torque", "real", None, None),),
    "Welding": (("cycle", "integer", "s", None),),
}


def _skill_doc(skill_id: str, capability_ref: str, class_id: str,
               feasibility: bool) -> dict:
    parameters = []
    for param_id, datatype, unit, default in SKILL_INPUTS[class_id]:
        spec = {"paramId": param_id, "direction": "input", "datatype": datatype}
        if unit is not None:
            spec["unit"] = unit
        if default is not None:
            spec["default"] = default
        parameters.append(spec)
        achieved = {
            "paramId": "achieved" + param_id[0].upper() + param_id[1:],
            "direction": "output",
            "datatype": datatype,
        }
        if unit is not None:
            achieved["unit"] = unit
        parameters.append(achieved)
    return {
        "skillId": skill_id,
        "capabilityRef": capability_ref,
        "hasFeasibilityCheck": feasibility,
        "parameters": parameters,
    }


def _envelope(rng: random.Random, class_id: str, generalist: bool) -> str:
    """A provided-capability expression with a seeded envelope."""
    if class_id in ("Drilling", "Milling"):
        depth = 100 if generalist else rng.randint(20, 100)
        if depth % 10 == 0 and rng.random() < 0.5:
            atoms = [f"(depth <= {depth // 10} cm)"]
        else:
            atoms = [f"(depth <= {depth} mm)"]
        if class_id == "Drilling":
            atoms.append(f"(diameter <= {50 if generalist else rng.randint(10, 50)} mm)")
        else:
            atoms.append(f"(cycle <= {60 if generalist else rng.randint(5, 60)} min)")
    elif class_id == "Screwing":
        top = Decimal(100 if generalist else rng.randint(20, 100)) / 10
        atoms = [f"(torque <= {top})"]
        if not generalist and rng.random() < 0.5:
            atoms.append(f"(torque >= {Decimal(rng.randint(0, 10)) / 10})")
    else:
        atoms = [f"(cycle <= {3600 if generalist else rng.randint(300, 3600)} s)"]
    if not generalist and rng.random() < 0.3:
        atoms.append("(material in {" + ", ".join(
            rng.sample(["steel", "aluminium", "wood"], 2)) + "})")
    if not generalist and rng.random() < 0.2:
        atoms.append("(coolant in {true})")
    return class_id + "".join(f" and {atom}" for atom in atoms)


def _step_doc(rng: random.Random, step_id: str, class_id: str, value) -> dict:
    """A required capability around ``value``, plus the bound parameter value."""
    if class_id in ("Drilling", "Milling", "Separating"):
        low, high = max(value - rng.randint(0, 5), 1), value + rng.randint(0, 5)
        required = f"{class_id} and (depth >= {low} mm) and (depth <= {high} mm)"
        values = {"depth": value}
    elif class_id == "Screwing":
        required = f"Screwing and (torque <= {value + Decimal(rng.randint(0, 10)) / 10})"
        values = {"torque": value}
    else:
        required = f"Welding and (cycle <= {value + rng.randint(0, 60)} s)"
        values = {"cycle": value}
    return {"id": step_id, "requiredCapability": required, "parameterValues": values}


def _step_value(rng: random.Random, class_id: str):
    if class_id in ("Drilling", "Milling", "Separating"):
        return rng.randint(5, 20)
    if class_id == "Screwing":
        return Decimal(rng.randint(5, 20)) / 10
    return rng.randint(30, 300)


def plan_world_doc(rng: random.Random, n_resources: int) -> dict:
    """N resources with one or two capabilities each; the first four are
    full-range generalists, one per leaf class, so every step has a provider.
    A tenth of the capabilities have no skill, so planning skips them."""
    resources = []
    for index in range(n_resources):
        rid = f"r-{index:04d}"
        classes = [LEAF_CLASSES[index % 4]]
        if index >= len(LEAF_CLASSES) and index % 3 == 2:
            classes.append(LEAF_CLASSES[(index + 1 + index // 4 % 3) % 4])
        capabilities, skills = [], []
        for position, class_id in enumerate(classes):
            cap_id = f"cap-{index:04d}-{position}"
            iri = f"urn:cap:{index:04d}:{position}"
            generalist = index < len(LEAF_CLASSES)
            capabilities.append({
                "id": cap_id, "iri": iri,
                "expression": _envelope(rng, class_id, generalist),
            })
            if generalist or (index + position) % 10 != 9:
                skills.append(_skill_doc(
                    f"skill-{index:04d}-{position}", iri, class_id,
                    feasibility=rng.random() < 0.5,
                ))
        resources.append({"id": rid, "capabilities": capabilities, "skills": skills})
    return {
        "schema": "css.world/1",
        "taxonomy": {"classes": TAXONOMY},
        "properties": PROPERTIES,
        "resources": resources,
    }


def catalogue_docs(rng: random.Random, n_products: int) -> list[dict]:
    """Products with 2, 3 and 4 steps in equal shares and step classes
    cycling by index, so the mix is the same for every seed; step values are
    seeded."""
    classes = LEAF_CLASSES + ("Separating",)
    products = []
    for index in range(n_products):
        steps = []
        for position in range(2 + index % 3):
            class_id = classes[(index // 3 + position) % len(classes)]
            steps.append(_step_doc(
                rng, f"step-{position}", class_id, _step_value(rng, class_id)
            ))
        products.append({"id": f"prod-{index:03d}", "steps": steps})
    return products


# ---------------------------------------------------------------------------
# plan-1000
# ---------------------------------------------------------------------------

class PlanWorkload:
    name = "plan-1000"

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(f"plan-1000:{seed}")
        self.doc = plan_world_doc(rng, 10 if smoke else 1000)
        self.doc["products"] = catalogue_docs(rng, 3 if smoke else 24)
        # in order, rounds of one 2-, one 3- and one 4-step product
        self.n_inputs = len(self.doc["products"])
        self._plans: dict[str, object] = {}
        self.world = None

    def setup(self) -> None:
        self.world = documents.build_world([self.doc])
        orchestrate.plan(self.world.products[0], self.world)  # warm-up

    def teardown(self) -> None:
        self.world = None

    def make_input(self, index: int):
        return self.world.products[index]

    def run(self, product):
        return orchestrate.plan(product, self.world)

    def check(self, product, production_plan):
        violations = []
        step_ids = [entry.step_id for entry in production_plan.entries]
        if step_ids != [step.id for step in product.steps]:
            violations.append(f"{product.id}: planned steps {step_ids}")
        for step, entry in zip(product.steps, production_plan.entries):
            resource = self.world.resource(entry.resource_id)
            capability = next(
                c for c in resource.provided_capabilities if c.id == entry.capability_id
            )
            degree = match_capabilities(
                step.required_capability, capability.expression, self.world
            ).degree
            if entry.match_degree is MatchDegree.DISJOINT or degree is not entry.match_degree:
                violations.append(
                    f"{product.id}/{step.id}: planned {entry.match_degree.value}, "
                    f"re-match gives {degree.value}"
                )
        earlier = self._plans.setdefault(product.id, production_plan)
        if earlier != production_plan:
            violations.append(f"{product.id}: replanning gave a different plan")
        return violations, []


# ---------------------------------------------------------------------------
# run-tcp
# ---------------------------------------------------------------------------

def tcp_world_doc(rng: random.Random) -> dict:
    """Two resources with identical envelopes for every leaf class, so equal
    degrees tie-break toward r-a: r-a is always primary, r-b the alternate."""
    envelopes = {class_id: _envelope(rng, class_id, True) for class_id in LEAF_CLASSES}
    resources = []
    for rid in ("r-a", "r-b"):
        capabilities, skills = [], []
        for class_id in LEAF_CLASSES:
            iri = f"urn:cap:{rid}:{class_id.lower()}"
            capabilities.append({
                "id": f"cap-{rid}-{class_id.lower()}", "iri": iri,
                "expression": envelopes[class_id],
            })
            skills.append(_skill_doc(
                f"skill-{rid}-{class_id.lower()}", iri, class_id, feasibility=True
            ))
        resources.append({"id": rid, "capabilities": capabilities, "skills": skills})
    return {
        "schema": "css.world/1",
        "taxonomy": {"classes": TAXONOMY},
        "properties": PROPERTIES,
        "resources": resources,
    }


def _rejection_key(class_id: str, values: dict) -> tuple:
    """A step's identity as a skill sees it: class and primary input value
    (the wire turns Decimal into int where it can, so compare as Fraction)."""
    return class_id, Fraction(values[SKILL_INPUTS[class_id][0][0]])


class SeededRejection(CapabilityEnvelopeBehavior):
    """Envelope behaviour that rejects the feasibility check for chosen inputs."""

    def __init__(self, world, capability, descriptor, rejected: frozenset):
        super().__init__(world, capability, descriptor)
        self._class_id = capability.expression.class_id
        self._rejected = rejected

    def feasibility(self, inputs):
        if _rejection_key(self._class_id, inputs) in self._rejected:
            return FeasibilityResult(False, reason="injected rejection")
        return super().feasibility(inputs)


class TcpWorkload:
    name = "run-tcp"

    def __init__(self, seed: int, smoke: bool = False):
        rng = random.Random(f"run-tcp:{seed}")
        self.doc = tcp_world_doc(rng)
        # Every product has five steps and exactly one of them, at a seeded
        # position, is rejected on its primary: a fifth of all primary
        # attempts, and the same round trips in every operation. Step values
        # are distinct per class, so a rejection hits only its own step.
        pools = {c: rng.sample(range(5, 100), 60) for c in LEAF_CLASSES}
        products = []
        self.rejected_steps, rejected = set(), set()
        for index in range(2 if smoke else 12):
            steps = []
            for position in range(5):
                class_id = LEAF_CLASSES[(index + position) % len(LEAF_CLASSES)]
                raw = pools[class_id].pop()
                value = Decimal(raw) / 10 if class_id == "Screwing" else raw
                steps.append(_step_doc(rng, f"step-{position}", class_id, value))
            product_id = f"prod-{index:03d}"
            products.append({"id": product_id, "steps": steps})
            victim = rng.randrange(5)
            self.rejected_steps.add((product_id, f"step-{victim}"))
            rejected.add(_rejection_key(
                steps[victim]["requiredCapability"].split()[0],
                steps[victim]["parameterValues"],
            ))
        self.doc["products"] = products
        self.n_inputs = len(products)
        self.rejected = frozenset(rejected)
        self._traces: dict[str, list[str]] = {}
        self.world = None
        self.servers, self.clients = [], {}

    def setup(self) -> None:
        self.world = documents.build_world([self.doc])
        rejected = self.rejected
        hosts = {
            "r-a": build_resource_host(
                self.world, "r-a",
                behavior_factory=lambda w, c, d: SeededRejection(w, c, d, rejected),
            ),
            "r-b": build_resource_host(self.world, "r-b"),
        }
        for resource_id, host in hosts.items():
            # Stopped -> Resetting -> Idle, so every timed run starts from Idle
            for local_runtime_id in host.local_runtime_ids():
                host.fire_command(local_runtime_id, "Reset")
            server = serve(host, ("127.0.0.1", 0))
            self.servers.append(server)
            client = connect_tcp(("127.0.0.1", server.port))
            self.clients[resource_id] = client
            client.hello()
        self.run(self.world.products[0])  # warm-up

    def teardown(self) -> None:
        for client in self.clients.values():
            client.close()
        for server in self.servers:
            server.close()
        self.servers, self.clients = [], {}
        self.world = None

    def make_input(self, index: int):
        return self.world.products[index]

    def run(self, product):
        production_plan = orchestrate.plan(product, self.world)
        return orchestrate.execute_plan(production_plan, self.clients)

    def check(self, product, trace):
        violations = []
        if trace.failed:
            violations.append(f"{product.id}: trace failed")
        for step in product.steps:
            records = [r for r in trace.records if r.step_id == step.id]
            states = trace.state_changes(step.id)
            if states[-3:] != ("Complete", "Resetting", "Idle"):
                violations.append(f"{product.id}/{step.id}: ends {states[-3:]}")
            rejections = sum(
                1 for r in records if r.kind == "feasibility" and not r.detail["feasible"]
            )
            if rejections != ((product.id, step.id) in self.rejected_steps):
                violations.append(f"{product.id}/{step.id}: {rejections} rejections")
            writes = [r.detail["values"] for r in records if r.kind == "paramWrite"]
            reads = [r.detail["outputs"] for r in records if r.kind == "outputRead"]
            if not writes or not reads:
                violations.append(f"{product.id}/{step.id}: no write or output read")
                continue
            for param_id, value in writes[-1].items():
                echoed = reads[-1].get("achieved" + param_id[0].upper() + param_id[1:])
                if echoed is None or Fraction(echoed) != Fraction(value):
                    violations.append(
                        f"{product.id}/{step.id}: {param_id}={value} echoed as {echoed}"
                    )
        lines = orchestrate.trace_to_lines(trace)
        if self._traces.setdefault(product.id, lines) != lines:
            violations.append(f"{product.id}: trace differs from an earlier run")
        return violations, []


# ---------------------------------------------------------------------------
# tender-select
# ---------------------------------------------------------------------------

NOW = datetime(2026, 8, 10, tzinfo=timezone.utc)
TENDER_REQUESTS = 4000  # distinct requests per run, most of a 30 s run
CERTIFICATIONS = ("iso9001", "iso14001")

#: the constrained numeric property per class, with its literal scale
_TENDER_PROPERTY = {
    "Drilling": ("depth", "mm", 1), "Milling": ("depth", "mm", 1),
    "Screwing": ("torque", None, 10), "Welding": ("cycle", "s", 1),
}
_TENDER_RANGE = {"depth": (0, 100), "torque": (0, 100), "cycle": (0, 3600)}
_PARENT = {"Drilling": "Separating", "Milling": "Separating",
           "Screwing": "Joining", "Welding": "Joining"}
_SIBLING = {"Drilling": "Milling", "Milling": "Drilling",
            "Screwing": "Welding", "Welding": "Screwing"}


def tender_world():
    return documents.build_world([{
        "schema": "css.world/1",
        "taxonomy": {"classes": TAXONOMY},
        "properties": PROPERTIES,
        "resources": [],
    }])


def _literal(scale: int, value: int):
    return value if scale == 1 else Decimal(value) / scale


def _expression(class_id: str, property_id: str, unit, scale: int,
                low: int | None, high: int | None, materials) -> CapabilityExpression:
    atoms = []
    if low is not None:
        atoms.append(Atom(property_id, ">=", _literal(scale, low), unit))
    if high is not None:
        atoms.append(Atom(property_id, "<=", _literal(scale, high), unit))
    if materials is not None:
        atoms.append(Atom("material", "in", tuple(materials)))
    return CapabilityExpression(class_id, tuple(atoms))


def _requirement(rng: random.Random):
    class_id = rng.choice(LEAF_CLASSES)
    property_id, _, _ = _TENDER_PROPERTY[class_id]
    lo, hi = _TENDER_RANGE[property_id]
    width = (hi - lo) // 4
    low = rng.randint(lo + 1, hi - width - 1)
    high = low + rng.randint(1, width)
    materials = sorted(rng.sample(["steel", "aluminium", "wood"], 2)) \
        if rng.random() < 0.3 else None
    return class_id, low, high, materials


def _provided(rng: random.Random, need, covering: bool) -> CapabilityExpression:
    """EXACT or PLUGIN for the need when ``covering``, else INTERSECT,
    SUBSUME or DISJOINT."""
    class_id, low, high, materials = need
    property_id, unit, scale = _TENDER_PROPERTY[class_id]
    lo, hi = _TENDER_RANGE[property_id]
    if covering:
        provided_class = _PARENT[class_id] if rng.random() < 0.2 else class_id
        if materials is not None and rng.random() < 0.5:
            wider = ["steel", "aluminium", "wood"]
        else:
            wider = materials
        return _expression(
            provided_class, property_id, unit, scale,
            rng.randint(lo, low), rng.randint(high, hi), wider,
        )
    shape = rng.randrange(3)
    if shape == 0:  # sibling class: DISJOINT
        return _expression(_SIBLING[class_id], property_id, unit, scale,
                           low, high, materials)
    if shape == 1:  # strictly narrower on top: INTERSECT or SUBSUME
        return _expression(class_id, property_id, unit, scale,
                           rng.randint(lo, low), rng.randint(low, high - 1), materials)
    # shifted window starting inside the need: INTERSECT or DISJOINT
    start = rng.randint(low + 1, high) if high > low else high + 1
    return _expression(class_id, property_id, unit, scale,
                       start, min(start + (high - low), hi), materials)


class TenderInstance(NamedTuple):
    request: ServiceRequest
    offers: list[ServiceOffer]
    admissible: frozenset[str]  # ids of offers built admissible and unexpired
    reference: Decimal  # total cost of the least exact cover


def tender_instance(rng: random.Random, index: int, max_offers: int = 40,
                    reference: Decimal | None = None) -> TenderInstance:
    """One request with a planted cover, its offers and their reference
    (computed unless the caller passes the one it computed before)."""
    keys = [f"k{i}" for i in range(rng.randint(3, 8))]
    needs = {key: _requirement(rng) for key in keys}
    certs = frozenset(c for c in CERTIFICATIONS if rng.random() < 0.3)
    nda = rng.random() < 0.3
    request_id = f"req-{index}"
    request = ServiceRequest(
        request_id=request_id,
        required_capabilities=tuple(
            (key, _expression(c, *_TENDER_PROPERTY[c], low, high, materials))
            for key, (c, low, high, materials) in needs.items()
        ),
        tender=TenderCriteria(
            quantity=rng.randint(1, 5),
            max_unit_price=Decimal(50),
            max_co2_per_unit=Decimal(10),
            delivery_deadline=NOW + timedelta(days=20),
            required_certifications=certs,
            nda_required=nda,
        ),
        submitted_at=NOW - timedelta(days=5),
        response_deadline=NOW + timedelta(days=10),
    )

    # planted cover: keys split into blocks of one to three
    shuffled = rng.sample(keys, len(keys))
    blocks = []
    while shuffled:
        size = min(rng.randint(1, 3), len(shuffled))
        blocks.append(tuple(shuffled[:size]))
        shuffled = shuffled[size:]
    planted_groups = rng.sample(["g1", "g2", "g3", None, None, None, None, None,
                                 None, None, None], len(blocks))
    n_offers = rng.randint(min(8, max_offers), max_offers)
    specs = [(block, True, "ok", False, group) for block, group in zip(blocks, planted_groups)]
    while len(specs) < n_offers:
        block = tuple(rng.sample(keys, rng.randint(1, min(3, len(keys)))))
        roll = rng.random()
        if roll < 0.1:
            covering, tender = False, "ok"
        elif roll < 0.2:
            covering, tender = True, rng.choice(("price", "co2", "delivery", "terms"))
        else:
            covering, tender = True, "ok"
        specs.append((block, covering, tender, rng.random() < 0.1,
                      rng.choice((None, None, "g1", "g2", "g3"))))

    ids = rng.sample(range(len(specs)), len(specs))
    offers, admissible = [], set()
    for (block, covering, tender, expired, group), number in zip(specs, ids):
        offer_id = f"o-{number:02d}"
        price = Decimal(rng.randint(100, 5000)) / 100
        co2 = Decimal(rng.randint(0, 100)) / 10
        delivery = NOW + timedelta(days=rng.randint(1, 20))
        offer_certs, offer_nda = certs | {c for c in CERTIFICATIONS if rng.random() < 0.5}, True
        if tender == "price":
            price = Decimal(rng.randint(5001, 9000)) / 100
        elif tender == "co2":
            co2 = Decimal(rng.randint(101, 200)) / 10
        elif tender == "delivery":
            delivery = NOW + timedelta(days=rng.randint(21, 40))
        elif tender == "terms":
            if certs and rng.random() < 0.5:
                offer_certs = frozenset()
            elif nda:
                offer_nda = False
            else:
                price = Decimal(rng.randint(5001, 9000)) / 100
        offers.append(ServiceOffer(
            offer_id=offer_id,
            provider_id=f"p-{rng.randint(0, 9)}",
            request_id=request_id,
            covered_cap_keys=block,
            provided_capabilities={k: _provided(rng, needs[k], covering) for k in block},
            unit_price=price,
            co2_per_unit=co2,
            delivery_date=delivery,
            certifications=frozenset(offer_certs),
            nda_accepted=offer_nda,
            valid_until=NOW - timedelta(days=1) if expired else NOW + timedelta(days=5),
            exclusive_group=group,
        ))
        if covering and tender == "ok" and not expired:
            admissible.add(offer_id)
    if reference is None:
        reference = Decimal(request.tender.quantity) * reference_cost(
            keys, [o for o in offers if o.offer_id in admissible]
        )
    return TenderInstance(request, offers, frozenset(admissible), reference)


def reference_cost(keys, offers) -> Decimal:
    """Least summed unit price of an exact cover: branch on the lowest
    uncovered key over the offers that cover it (Algorithm X), with
    key bitmasks, exclusive groups and a cost bound."""
    bit = {key: 1 << i for i, key in enumerate(keys)}
    full = (1 << len(keys)) - 1
    covering: list[list[tuple[int, str | None, Decimal]]] = [[] for _ in keys]
    for offer in offers:
        mask = 0
        for key in offer.covered_cap_keys:
            mask |= bit[key]
        for i in range(len(keys)):
            if mask >> i & 1:
                covering[i].append((mask, offer.exclusive_group, offer.unit_price))
    best: list[Decimal | None] = [None]

    def walk(covered: int, groups: frozenset, cost: Decimal) -> None:
        if best[0] is not None and cost >= best[0]:
            return
        if covered == full:
            best[0] = cost
            return
        key_index = (~covered & (covered + 1)).bit_length() - 1
        for mask, group, price in covering[key_index]:
            if mask & covered or (group is not None and group in groups):
                continue
            walk(covered | mask, (groups | {group}) if group else groups, cost + price)

    walk(0, frozenset(), Decimal(0))
    if best[0] is None:
        raise ValueError("generated tender instance has no cover")
    return best[0]


class TenderWorkload:
    name = "tender-select"

    def __init__(self, seed: int, smoke: bool = False):
        self._seed = seed
        self._max_offers = 12 if smoke else 40
        self.n_inputs = 2 if smoke else TENDER_REQUESTS
        self._references: dict[int, Decimal] = {}
        # One fixed instance for every seed, so set-up does the same work in
        # every run; at most 12 offers keep it on the exact path, so the
        # greedy defect counted in the timed operations cannot abort set-up.
        self._warm_up = tender_instance(random.Random("tender-select:warm-up"), -1, 12)
        self.world = None

    def setup(self) -> None:
        self.world = tender_world()
        market.select_offers(self._warm_up.request, self._warm_up.offers, NOW, self.world)

    def teardown(self) -> None:
        self.world = None

    def make_input(self, index: int) -> TenderInstance:
        # Built afresh for every operation (no object is reused); the
        # reference is computed once per request.
        rng = random.Random(f"tender-select:{self._seed}:{index}")
        instance = tender_instance(
            rng, index, self._max_offers, self._references.get(index)
        )
        self._references[index] = instance.reference
        return instance

    def run(self, instance: TenderInstance):
        return market.select_offers(instance.request, instance.offers, NOW, self.world)

    def check(self, instance: TenderInstance, award):
        request_id = instance.request.request_id
        violations = []
        covered = sorted(k for o in award.selected_offers for k in o.covered_cap_keys)
        if covered != sorted(instance.request.cap_keys()):
            violations.append(f"{request_id}: award covers {covered}")
        groups = [o.exclusive_group for o in award.selected_offers if o.exclusive_group]
        if len(set(groups)) != len(groups):
            violations.append(f"{request_id}: exclusive groups reused {groups}")
        outside = [o.offer_id for o in award.selected_offers
                   if o.offer_id not in instance.admissible]
        if outside:
            violations.append(f"{request_id}: inadmissible or expired offers {outside}")
        quantity = Decimal(instance.request.tender.quantity)
        if award.total_cost != quantity * sum(
            (o.unit_price for o in award.selected_offers), Decimal(0)
        ):
            violations.append(f"{request_id}: total_cost does not sum the offers")
        misses = []
        if award.total_cost != instance.reference:
            misses.append(
                f"{request_id}: {award.strategy} award costs {award.total_cost}, "
                f"least cover costs {instance.reference}"
            )
        return violations, misses


WORKLOADS = {w.name: w for w in (PlanWorkload, TcpWorkload, TenderWorkload)}
