from __future__ import annotations

import socket
from decimal import Decimal

import pytest

from csskit.documents import build_world
from csskit.model import PropertyDefinition, WorldModel
from csskit.protocol import ServerSession, decode, serve
from csskit.taxonomy import Taxonomy, TaxonomyClass
from csskit.values import convert_between_units, to_fraction


def sample_taxonomy() -> Taxonomy:
    return Taxonomy(
        classes=(
            TaxonomyClass("ManufacturingProcess", None, "Manufacturing process"),
            TaxonomyClass("Separating", "ManufacturingProcess", "Separating"),
            TaxonomyClass("Joining", "ManufacturingProcess", "Joining"),
            TaxonomyClass("Drilling", "Separating", "Drilling"),
            TaxonomyClass("Milling", "Separating", "Milling"),
            TaxonomyClass("Screwing", "Joining", "Screwing"),
            TaxonomyClass("Welding", "Joining", "Welding"),
        )
    )


def sample_properties() -> tuple[PropertyDefinition, ...]:
    return (
        PropertyDefinition("depth", "integer", unit="mm", declared_range=(0, 100)),
        PropertyDefinition("diameter", "integer", unit="mm", declared_range=(0, 50)),
        PropertyDefinition("torque", "real", declared_range=(0, 10)),
        PropertyDefinition(
            "material", "enum", enum_values=("steel", "aluminium", "wood")
        ),
        PropertyDefinition("coolant", "boolean"),
        PropertyDefinition("cycle", "integer", unit="s", declared_range=(0, 3600)),
    )


@pytest.fixture
def base_world() -> WorldModel:
    """Taxonomy and properties only; enough to parse and match expressions."""
    return WorldModel(taxonomy=sample_taxonomy(), property_defs=sample_properties())


def taxonomy_doc_classes() -> list[dict]:
    return [
        {"id": "ManufacturingProcess", "label": "Manufacturing process"},
        {"id": "Separating", "parent": "ManufacturingProcess", "label": "Separating"},
        {"id": "Joining", "parent": "ManufacturingProcess", "label": "Joining"},
        {"id": "Drilling", "parent": "Separating", "label": "Drilling"},
        {"id": "Milling", "parent": "Separating", "label": "Milling"},
        {"id": "Screwing", "parent": "Joining", "label": "Screwing"},
        {"id": "Welding", "parent": "Joining", "label": "Welding"},
    ]


def _drill_skill(suffix: str) -> dict:
    return {
        "skillId": f"skill-drill-{suffix}",
        "name": f"drill {suffix}",
        "capabilityRef": f"urn:cap:drill-{suffix}",
        "hasFeasibilityCheck": True,
        "parameters": [
            {"paramId": "depth", "direction": "input", "datatype": "integer", "unit": "mm"},
            {"paramId": "achievedDepth", "direction": "output", "datatype": "integer", "unit": "mm"},
        ],
    }


def exec_world_doc() -> dict:
    """Two drill providers (both PLUGIN for the bracket product; resource ids
    break the tie toward a) plus one screwing provider, and the two-step
    drill-then-screw product."""
    return {
        "schema": "css.world/1",
        "taxonomy": {"classes": taxonomy_doc_classes()},
        "properties": [
            {"id": "depth", "datatype": "integer", "unit": "mm", "declaredRange": [0, 100]},
            {"id": "diameter", "datatype": "integer", "unit": "mm", "declaredRange": [0, 50]},
            {"id": "torque", "datatype": "real", "declaredRange": [0, 10]},
            {"id": "material", "datatype": "enum", "enumValues": ["steel", "aluminium", "wood"]},
            {"id": "coolant", "datatype": "boolean"},
            {"id": "cycle", "datatype": "integer", "unit": "s", "declaredRange": [0, 3600]},
        ],
        "resources": [
            {
                "id": "r-driller-a",
                "capabilities": [
                    {
                        "id": "cap-drill-a",
                        "iri": "urn:cap:drill-a",
                        "expression": "Drilling and (depth <= 25 mm)",
                    }
                ],
                "skills": [_drill_skill("a")],
            },
            {
                "id": "r-driller-b",
                "capabilities": [
                    {
                        "id": "cap-drill-b",
                        "iri": "urn:cap:drill-b",
                        "expression": "Drilling and (depth <= 30 mm)",
                    }
                ],
                "skills": [_drill_skill("b")],
            },
            {
                "id": "r-screwer",
                "capabilities": [
                    {
                        "id": "cap-screw",
                        "iri": "urn:cap:screw",
                        "expression": "Screwing and (torque <= 5)",
                    }
                ],
                "skills": [
                    {
                        "skillId": "skill-screw",
                        "capabilityRef": "urn:cap:screw",
                        "parameters": [
                            {"paramId": "torque", "direction": "input", "datatype": "real"},
                            {"paramId": "achievedTorque", "direction": "output", "datatype": "real"},
                        ],
                    }
                ],
            },
        ],
        "products": [
            {
                "id": "prod-bracket",
                "steps": [
                    {
                        "id": "step-drill",
                        "requiredCapability": "Drilling and (depth >= 10 mm) and (depth <= 20 mm)",
                        "parameterValues": {"depth": 12},
                    },
                    {
                        "id": "step-screw",
                        "requiredCapability": "Screwing and (torque <= 4)",
                        "parameterValues": {"torque": Decimal("2.5")},
                    },
                ],
            }
        ],
    }


def many_drillers_world_doc(extra: int) -> dict:
    """``exec_world_doc`` with ``extra`` more drill providers, r-driller-x00
    on, each with a wider envelope and its own skill: every one qualifies
    for the drill step, and all rank after r-driller-a and r-driller-b."""
    doc = exec_world_doc()
    for index in range(extra):
        suffix = f"x{index:02d}"
        doc["resources"].append({
            "id": f"r-driller-{suffix}",
            "capabilities": [{
                "id": f"cap-drill-{suffix}",
                "iri": f"urn:cap:drill-{suffix}",
                "expression": "Drilling and (depth <= 40 mm)",
            }],
            "skills": [_drill_skill(suffix)],
        })
    return doc


def lone_surrogate_world_doc() -> dict:
    """``exec_world_doc`` whose drill step also sets the enum property
    ``material`` to a lone surrogate, an input of both drill skills."""
    doc = exec_world_doc()
    doc["properties"][3]["enumValues"].append("\ud800")
    for resource in doc["resources"][:2]:
        resource["skills"][0]["parameters"].append(
            {"paramId": "material", "direction": "input", "datatype": "enum"}
        )
    doc["products"][0]["steps"][0]["parameterValues"]["material"] = "\ud800"
    return doc


@pytest.fixture
def exec_world() -> WorldModel:
    return build_world([exec_world_doc()])


def evaluate_expression(expr, assignment, world: WorldModel) -> bool:
    """Enumeration oracle: evaluate every raw atom of ``expr`` on ``assignment``
    (class membership aside), without going through normalization.

    Assignment values are taken to be on each property's declared unit scale.
    Missing properties fail the atoms that mention them.
    """
    for atom in expr.atoms:
        if atom.property_id not in assignment:
            return False
        prop = world.property_def(atom.property_id)
        value = assignment[atom.property_id]
        if prop.datatype in ("integer", "real"):
            v = to_fraction(value)
            bound = convert_between_units(to_fraction(atom.literal), atom.unit, prop.unit)
            holds = {
                "<": v < bound,
                "<=": v <= bound,
                ">": v > bound,
                ">=": v >= bound,
                "=": v == bound,
                "!=": v != bound,
            }[atom.comparator]
        elif atom.comparator == "in":
            holds = value in atom.literal
        elif atom.comparator == "=":
            holds = value == atom.literal
        else:
            holds = value != atom.literal
        if not holds:
            return False
    return True


def oracle_structural_issues(tax: Taxonomy) -> list[str]:
    """Reference tree check: counts every id and walks every class's parent
    chain, bounded by the class count. Quadratic; small taxonomies only."""
    by_id = {c.id: c for c in tax.classes}
    issues: list[str] = []
    ids = [c.id for c in tax.classes]
    for cid in sorted({i for i in ids if ids.count(i) > 1}):
        issues.append(f"duplicate class id {cid!r}")
    roots = [c.id for c in tax.classes if c.parent is None]
    if not tax.classes:
        issues.append("taxonomy has no classes")
    elif len(roots) != 1:
        issues.append(f"taxonomy must have exactly one root, found {len(roots)}")
    for cls in tax.classes:
        if cls.parent is not None and cls.parent not in by_id:
            issues.append(f"class {cls.id!r} references unknown parent {cls.parent!r}")
    for cls in tax.classes:
        hops = 0
        cur = cls
        while cur.parent is not None and cur.parent in by_id:
            cur = by_id[cur.parent]
            hops += 1
            if hops > len(tax.classes):
                issues.append(f"parent chain of class {cls.id!r} contains a cycle")
                break
    return issues


def oracle_is_subclass_of(tax: Taxonomy, a: str, b: str) -> bool:
    """Reference subclass test: walks ``a``'s whole parent chain (the last
    entry of an id wins), stopping at a repeated class and raising
    ``UnknownClassError`` on a missing one, then looks for ``b`` in it."""
    tax.get(a)
    tax.get(b)
    if a == b:
        return True
    chain: list[str] = []
    current = tax.get(a)
    seen = {a}
    while current.parent is not None:
        if current.parent in seen:
            break
        chain.append(current.parent)
        seen.add(current.parent)
        current = tax.get(current.parent)
    return b in chain


# --- raw lines to a server -------------------------------------------------------

def hello_of(length: int) -> bytes:
    """A hello request line of exactly ``length`` UTF-8 bytes, without the LF."""
    line = b'{"kind": "hello", "correlationId": "c-long", "payload": {"pad": ""}}'
    return line.replace(b'""}', b'"' + b"x" * (length - len(line)) + b'"}')


def _answers(lines: list[str]) -> list:
    """The responses among a connection's output lines, events dropped."""
    messages = [decode(line) for line in lines]
    return [msg for msg in messages if msg.kind != "event"]


class LoopbackWire:
    """The in-process transport's server side, with its output kept."""

    def __init__(self, host):
        self.out: list[str] = []
        self.session = ServerSession(host, host.name, self.out.append)

    def exchange(self, raw: bytes) -> list:
        """Send one line; every response it got back."""
        del self.out[:]
        self.session.handle_line(raw.decode("utf-8", "surrogateescape"))
        return _answers(self.out)

    def close(self):
        self.session.close()


class TcpWire:
    """A raw socket to a TCP server, so any bytes can be sent."""

    def __init__(self, host):
        self.server = serve(host, ("127.0.0.1", 0))
        self.sock = socket.create_connection(("127.0.0.1", self.server.port), timeout=5)
        self.reader = self.sock.makefile("rb")

    def exchange(self, raw: bytes) -> list:
        """Send one line; the next response. Responses come in request order,
        so an extra one shifts every later answer and a missing one times out."""
        self.sock.sendall(raw + b"\n")
        while True:
            answers = _answers([self.reader.readline().decode("utf-8").rstrip("\n")])
            if answers:
                return answers

    def close(self):
        self.reader.close()
        self.sock.close()
        self.server.close()
