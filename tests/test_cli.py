from __future__ import annotations

import hashlib
import os
import socket
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import exec_world_doc, lone_surrogate_world_doc, many_drillers_world_doc

import csskit
from csskit import jsonio, protocol
from csskit.cli import run
from csskit.documents import build_world
from csskit.hosting import build_resource_host
from csskit.model import validate_model
from csskit.orchestrate import plan
from csskit.protocol import serve

from test_documents import offer_doc, request_doc
from test_orchestrate import RejectingFeasibility, _depth_in_seconds


@pytest.fixture
def world_file(tmp_path):
    path = tmp_path / "world.json"
    path.write_text(jsonio.dumps(exec_world_doc()), encoding="utf-8")
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    doc = exec_world_doc()["products"][0]
    doc = {"schema": "css.product/1", **doc}
    path = tmp_path / "product.json"
    path.write_text(jsonio.dumps(doc), encoding="utf-8")
    return str(path)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(jsonio.dumps(doc), encoding="utf-8")
    return str(path)


def _write_escaped(tmp_path, name, doc):
    """``_write`` with each lone surrogate as its JSON escape, which UTF-8
    cannot carry raw."""
    path = tmp_path / name
    path.write_text(jsonio.dumps_utf8(doc), encoding="utf-8")
    return str(path)


def test_match_intersect_exit_zero(world_file, capsys):
    code = run([
        "match",
        "--required", "Drilling and (depth >= 10 mm) and (depth <= 20 mm)",
        "--provided", "Drilling and (depth <= 15 mm)",
        "--world", world_file,
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "INTERSECT" in out
    assert "depth = 12" in out


def test_match_disjoint_exit_one(world_file, capsys):
    code = run([
        "match",
        "--required", "Milling",
        "--provided", "Drilling and (depth <= 15 mm)",
        "--world", world_file,
    ])
    assert code == 1
    assert "DISJOINT" in capsys.readouterr().out


def test_match_lines_format_is_machine_parseable(world_file, capsys):
    code = run([
        "match",
        "--required", "Drilling and (depth >= 10 mm) and (depth <= 20 mm)",
        "--provided", "Drilling and (depth <= 15 mm)",
        "--world", world_file,
        "--format", "lines",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    obj = jsonio.loads(lines[0])
    assert obj["degree"] == "INTERSECT"
    assert obj["witness"] == {"depth": 12}


def test_match_bad_expression_exit_two(world_file, capsys):
    code = run([
        "match", "--required", "Drilling and (depth <= fast)",
        "--provided", "Drilling", "--world", world_file,
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_three(capsys):
    code = run(["validate", "/nonexistent/world.json"])
    assert code == 3


def test_usage_error_exit_two():
    assert run(["match", "--required", "Drilling"]) == 2
    assert run(["definitely-not-a-command"]) == 2


def test_no_subcommand_prints_the_usage_and_exits_two(capsys):
    assert run([]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: csskit ")


def test_serve_on_a_port_in_use_exits_three(world_file, capsys):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        code = run(["serve", "--world", world_file, "--resource", "r-driller-a",
                    "--port", str(port)])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"error: cannot bind ('127.0.0.1', {port}): ")


def test_match_prints_enum_sets(world_file, capsys):
    code = run([
        "match", "--required", "Drilling and (material in {steel, wood})",
        "--provided", "Drilling and (material in {aluminium, steel})", "--world", world_file,
    ])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "witness: material = steel",
        "property material: required={steel, wood} provided={aluminium, steel} "
        "intersection={steel}",
    ]


def test_validate_clean_world(world_file, capsys):
    assert run(["validate", world_file]) == 0


def test_validate_world_plus_product_file(tmp_path, world_file, capsys):
    extra = exec_world_doc()["products"][0]
    extra["id"] = "prod-extra"
    path = _write(tmp_path, "extra-product.json", {"schema": "css.product/1", **extra})
    assert run(["validate", world_file, path]) == 0

    bad = exec_world_doc()["products"][0]
    bad["id"] = "prod-bad"
    bad["steps"][0]["parameterValues"] = {"depth": 200}  # outside own bounds
    bad_path = _write(tmp_path, "bad-product.json", {"schema": "css.product/1", **bad})
    capsys.readouterr()
    assert run(["validate", world_file, bad_path]) == 1
    assert "violates" in capsys.readouterr().out


def test_validate_names_a_file_only_for_its_own_load_fault(tmp_path, world_file, capsys):
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{not json", encoding="utf-8")
    assert run(["validate", world_file, str(malformed)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {malformed}: ")
    # two worlds are a fault of the assembly, which no one file owns
    assert run(["validate", world_file, world_file]) == 2
    assert capsys.readouterr().err == "error: more than one css.world/1 document given\n"


def test_validate_broken_world_lists_issue(tmp_path, capsys):
    doc = exec_world_doc()
    doc["resources"][0]["skills"][0]["capabilityRef"] = "cap-missing"
    path = _write(tmp_path, "broken.json", doc)
    code = run(["validate", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "cap-missing" in out


@pytest.mark.parametrize(
    "kind, literal",
    [("integer", "7" * 5000), ("decimal", "0." + "5" * 4999)],
    ids=["integer", "decimal"],
)
def test_validate_refuses_a_number_of_too_many_digits(tmp_path, capsys, kind, literal):
    doc = exec_world_doc()
    doc["resources"][2]["capabilities"][0]["expression"] = f"Screwing and (torque <= {literal})"
    assert run(["validate", _write(tmp_path, "long-number.json", doc)]) == 2
    assert capsys.readouterr().err == (
        "error: css.world/1.resources[2].capabilities[0].expression: "
        f"at position 24: {kind} literal has 5000 digits, more than 4300\n"
    )


def test_plan_command(world_file, product_file, capsys):
    code = run([
        "plan", "--product", product_file, "--world", world_file,
        "--format", "lines",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    objs = [jsonio.loads(line) for line in lines]
    assert [o["stepId"] for o in objs] == ["step-drill", "step-screw"]
    assert objs[0]["resourceId"] == "r-driller-a"


def test_validate_warns_of_an_input_whose_unit_does_not_convert(tmp_path, capsys):
    doc = _depth_in_seconds(exec_world_doc(), "r-driller-a")
    world = build_world([doc])
    path = "resources[r-driller-a].skills[skill-drill-a]"
    message = "input 'depth' is in s (s), to which property 'depth' in mm (m) does not convert"
    assert [
        (issue.severity, issue.path, issue.message) for issue in validate_model(world).issues
    ] == [("warning", path, message)]
    assert run(["validate", _write(tmp_path, "world.json", doc)]) == 0
    out, err = capsys.readouterr()
    assert out == f"warning: {path}: {message}\n"
    assert err == "ok: 1 issue(s), none are errors\n"
    assert plan(world.product("prod-bracket"), world).entries[0].resource_id == "r-driller-b"


def test_validate_warns_of_an_input_that_no_step_can_bind(tmp_path, capsys):
    """An input without a default that no property binds leaves its skill
    unusable; plan drops it, and validation says why."""
    doc = exec_world_doc()
    doc["resources"][0]["skills"][0]["parameters"].append(
        {"paramId": "feed", "direction": "input", "datatype": "integer"}
    )
    world = build_world([doc])
    assert run(["validate", _write(tmp_path, "world.json", doc)]) == 0
    out, err = capsys.readouterr()
    assert out == (
        "warning: resources[r-driller-a].skills[skill-drill-a]: "
        "input 'feed' has no default and no property binds it\n"
    )
    assert err == "ok: 1 issue(s), none are errors\n"
    assert plan(world.product("prod-bracket"), world).entries[0].resource_id == "r-driller-b"


def test_a_skill_naming_another_resources_capability_is_refused(tmp_path, capsys):
    """skill-screw moved onto r-driller-a still names r-screwer's capability,
    which plan could never select; validation and serve refuse it."""
    doc = exec_world_doc()
    moved = doc["resources"][2].pop("skills")[0]
    doc["resources"][0]["skills"].append({**moved, "skillId": "skill-screw-on-a"})
    path = _write(tmp_path, "world.json", doc)
    dangling = (
        "error: resources[r-driller-a].skills[skill-screw-on-a].capabilityRef: "
        "dangling reference: 'urn:cap:screw' names no capability\n"
    )
    assert run(["validate", path]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == (dangling, "invalid: 1 error(s)\n")
    assert run(["serve", "--world", path, "--resource", "r-driller-a", "--port", "0"]) == 1
    assert capsys.readouterr().err == dangling


def test_plan_skips_a_skill_whose_unit_does_not_convert(tmp_path, product_file, capsys):
    """r-driller-a's depth input is in seconds, to which no length converts."""
    world_path = _write(tmp_path, "world.json", _depth_in_seconds(exec_world_doc(), "r-driller-a"))
    code = run(["plan", "--product", product_file, "--world", world_path])
    assert code == 0
    assert capsys.readouterr().out == (
        "step-drill: r-driller-b/skill-drill-b (PLUGIN) depth=12\n"
        "step-screw: r-screwer/skill-screw (PLUGIN) torque=2.5\n"
    )


def test_plan_no_match_exit_one(tmp_path, world_file, capsys):
    doc = exec_world_doc()["products"][0]
    doc["steps"][0]["parameterValues"] = {"depth": 90}
    doc["steps"][0]["requiredCapability"] = (
        "Drilling and (depth >= 80 mm) and (depth <= 95 mm)"
    )
    path = _write(tmp_path, "product-far.json", {"schema": "css.product/1", **doc})
    assert run(["plan", "--product", path, "--world", world_file]) == 1


def test_run_executes_over_tcp(tmp_path, world_file, product_file, capsys):
    from csskit.documents import build_world, load_document_file

    world = build_world([load_document_file(world_file)])
    servers = []
    endpoints = {}
    for resource in world.resources:
        host = build_resource_host(world, resource.id)
        server = serve(host, ("127.0.0.1", 0))
        servers.append(server)
        endpoints[resource.id] = f"127.0.0.1:{server.port}"
    endpoints_file = _write(
        tmp_path, "endpoints.json",
        {"schema": "css.endpoints/1", "endpoints": endpoints},
    )
    out_file = tmp_path / "trace.lines"
    try:
        code = run([
            "run", "--product", product_file, "--world", world_file,
            "--endpoints", endpoints_file, "--out", str(out_file),
        ])
    finally:
        for server in servers:
            server.close()
    assert code == 0
    lines = out_file.read_text(encoding="utf-8").strip().splitlines()
    records = [jsonio.loads(line) for line in lines]
    assert [r["kind"] for r in records].count("outputRead") == 2


@pytest.mark.parametrize("to_file", [True, False])
def test_run_prints_a_lone_surrogate_as_its_escape(tmp_path, capsys, to_file):
    """A trace line holding a lone surrogate is written as valid UTF-8, to
    ``--out`` and to stdout alike, and reads back as the same value."""
    doc = lone_surrogate_world_doc()
    world_file = _write_escaped(tmp_path, "world.json", doc)
    product_file = _write_escaped(
        tmp_path, "product.json", {"schema": "css.product/1", **doc["products"][0]}
    )
    world = build_world([doc])
    servers = [serve(build_resource_host(world, r.id), ("127.0.0.1", 0))
               for r in world.resources]
    endpoints = {r.id: f"127.0.0.1:{s.port}" for r, s in zip(world.resources, servers)}
    endpoints_file = _write(
        tmp_path, "endpoints.json", {"schema": "css.endpoints/1", "endpoints": endpoints}
    )
    out_file = tmp_path / "trace.lines"
    try:
        code = run([
            "run", "--product", product_file, "--world", world_file,
            "--endpoints", endpoints_file, *(["--out", str(out_file)] if to_file else []),
        ])
    finally:
        for server in servers:
            server.close()
    assert code == 0
    text = out_file.read_text(encoding="utf-8") if to_file else capsys.readouterr().out
    records = [jsonio.loads(line) for line in text.strip().splitlines()]
    written = [r["detail"]["values"] for r in records if r["kind"] == "paramWrite"]
    assert {"depth": 12, "material": "\ud800"} in written


def _serve_for_run(tmp_path, world, endpoints, behaviors=None):
    """Serve each resource that ``endpoints`` maps to ``None`` and write an
    endpoints file of all of them: the servers, and the file's path."""
    servers, addresses = [], {}
    for resource_id, address in endpoints.items():
        if address is None:
            factory = (behaviors or {}).get(resource_id)
            servers.append(serve(
                build_resource_host(world, resource_id, behavior_factory=factory),
                ("127.0.0.1", 0),
            ))
            address = f"127.0.0.1:{servers[-1].port}"
        addresses[resource_id] = address
    path = _write(tmp_path, "endpoints.json",
                  {"schema": "css.endpoints/1", "endpoints": addresses})
    return servers, path


def _run_many_drillers(tmp_path, endpoints, behaviors):
    """``csskit run --out`` of the bracket product on a world of 63 resources
    (``many_drillers_world_doc(60)``): exit code and trace records."""
    doc = many_drillers_world_doc(60)
    world_file = _write(tmp_path, "world.json", doc)
    product_file = _write(
        tmp_path, "product.json", {"schema": "css.product/1", **doc["products"][0]}
    )
    servers, endpoints_file = _serve_for_run(
        tmp_path, build_world([doc]), endpoints, behaviors
    )
    out_file = tmp_path / "trace.lines"
    try:
        code = run(["run", "--product", product_file, "--world", world_file,
                    "--endpoints", endpoints_file, "--out", str(out_file)])
    finally:
        for server in servers:
            server.close()
    text = out_file.read_text(encoding="utf-8")
    return code, [jsonio.loads(line) for line in text.splitlines()]


def test_run_needs_endpoints_only_for_the_resources_it_tries(tmp_path):
    """Of 63 resources, the run tries r-driller-a, whose feasibility check
    rejects, then r-driller-b, and r-screwer: the endpoints file lists only
    those three."""
    code, records = _run_many_drillers(
        tmp_path, dict.fromkeys(["r-driller-a", "r-driller-b", "r-screwer"]),
        {"r-driller-a": RejectingFeasibility},
    )
    assert code == 0
    assert [r["detail"] for r in records if r["kind"] == "feasibility"][0] == {
        "feasible": False, "reason": "tool broken (injected)",
    }
    assert not any(r["kind"] == "error" for r in records)
    completes = [
        r["stepId"] for r in records
        if r["kind"] == "stateChange" and r["detail"]["newState"] == "Complete"
    ]
    assert completes == ["step-drill", "step-screw"]


def test_run_fails_over_past_a_resource_it_cannot_reach(tmp_path):
    """An alternate's resource with no endpoint, or whose endpoint refuses the
    connection, is one failed attempt with a ConnectionLost record."""
    code, records = _run_many_drillers(
        tmp_path,
        {"r-driller-a": None, "r-driller-b": None, "r-driller-x01": "127.0.0.1:1",
         "r-driller-x02": None, "r-screwer": None},
        {"r-driller-a": RejectingFeasibility, "r-driller-b": RejectingFeasibility},
    )
    assert code == 0
    errors = [r["detail"] for r in records if r["kind"] == "error"]
    assert [e["code"] for e in errors] == ["ConnectionLost", "ConnectionLost"]
    assert errors[0]["message"] == "no endpoint for resource 'r-driller-x00'"
    assert errors[1]["message"].startswith("cannot connect to ")
    drill = [r for r in records if r["stepId"] == "step-drill"]
    assert [r["kind"] for r in drill].count("feasibility") == 3  # a, b, then x02
    assert [r["detail"]["outputs"] for r in drill if r["kind"] == "outputRead"] == [
        {"achievedDepth": 12}
    ]


def _run_bracket(tmp_path, world_file, product_file, behaviors, to_file=True):
    """``csskit run`` of the bracket product on servers of ``exec_world_doc``:
    exit code and trace text, from ``--out`` or stdout."""
    servers, endpoints_file = _serve_for_run(
        tmp_path, build_world([exec_world_doc()]),
        dict.fromkeys(["r-driller-a", "r-driller-b", "r-screwer"]), behaviors,
    )
    out_file = tmp_path / "trace.lines"
    try:
        code = run(["run", "--product", product_file, "--world", world_file,
                    "--endpoints", endpoints_file, *(["--out", str(out_file)] if to_file else [])])
    finally:
        for server in servers:
            server.close()
    return code, out_file.read_text(encoding="utf-8") if to_file else None


@pytest.mark.parametrize("to_file", [True, False])
def test_run_exits_one_when_every_candidate_of_a_step_fails(
    tmp_path, world_file, product_file, capsys, to_file
):
    code, text = _run_bracket(
        tmp_path, world_file, product_file,
        {"r-driller-a": RejectingFeasibility, "r-driller-b": RejectingFeasibility},
        to_file,
    )
    out, err = capsys.readouterr()
    assert code == 1
    assert err == "error: step step-drill failed on every ranked candidate\n"
    if to_file:
        assert out == ""
    records = [jsonio.loads(line) for line in (text if to_file else out).splitlines()]
    assert [(r["kind"], r["detail"].get("feasible")) for r in records] == [
        ("feasibility", False), ("feasibility", False), ("error", None),
    ]
    assert records[-1] == {
        "timestamp": 2, "stepId": "step-drill", "localRuntimeId": "", "kind": "error",
        "detail": {"code": "StepFailedNoAlternative", "stepId": "step-drill"},
    }


def test_run_records_a_malformed_skill_list_and_exits_one(
    tmp_path, world_file, product_file, capsys, monkeypatch
):
    """Every server's skill list lacks its skills: each attempt is one
    BadResponse record, and the run ends with exit code 1, not a traceback."""
    invoke = protocol.SkillClient.invoke

    def without_skills(self, kind, payload=None):
        return {} if kind == "list_skills" else invoke(self, kind, payload)

    monkeypatch.setattr(protocol.SkillClient, "invoke", without_skills)
    code, text = _run_bracket(tmp_path, world_file, product_file, {})
    assert code == 1
    assert capsys.readouterr().err == "error: step step-drill failed on every ranked candidate\n"
    assert [jsonio.loads(line)["detail"]["code"] for line in text.splitlines()] == [
        "BadResponse", "BadResponse", "StepFailedNoAlternative",
    ]


def test_run_records_a_verdict_without_feasible_and_exits_one(
    tmp_path, world_file, product_file, capsys, monkeypatch
):
    """Every server's feasibility answer lacks ``feasible``: each drill
    attempt is one BadResponse record, and the run ends with exit code 1."""
    invoke = protocol.SkillClient.invoke

    def without_feasible(self, kind, payload=None):
        return {"reason": None} if kind == "feasibility" else invoke(self, kind, payload)

    monkeypatch.setattr(protocol.SkillClient, "invoke", without_feasible)
    code, text = _run_bracket(tmp_path, world_file, product_file, {})
    assert code == 1
    assert capsys.readouterr().err == "error: step step-drill failed on every ranked candidate\n"
    assert [jsonio.loads(line)["detail"] for line in text.splitlines()] == [
        {"code": "BadResponse", "message": "feasibility answer has no boolean field 'feasible'"},
    ] * 2 + [{"code": "StepFailedNoAlternative", "stepId": "step-drill"}]


def test_run_refuses_a_primary_without_an_endpoint(tmp_path, world_file, product_file,
                                                  capsys):
    endpoints_file = _write(
        tmp_path, "endpoints.json",
        {"schema": "css.endpoints/1", "endpoints": {"r-driller-b": "127.0.0.1:1"}},
    )
    code = run(["run", "--product", product_file, "--world", world_file,
                "--endpoints", endpoints_file])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: endpoints file misses resources ['r-driller-a', 'r-screwer']\n"
    )


def test_run_unreachable_endpoint_exit_three(tmp_path, world_file, product_file):
    endpoints_file = _write(
        tmp_path, "endpoints.json",
        {"schema": "css.endpoints/1", "endpoints": {
            "r-driller-a": "127.0.0.1:1", "r-driller-b": "127.0.0.1:1",
            "r-screwer": "127.0.0.1:1",
        }},
    )
    code = run(["run", "--product", product_file, "--world", world_file,
                "--endpoints", endpoints_file])
    assert code == 3


def test_validate_lone_taxonomy_document(tmp_path):
    from conftest import taxonomy_doc_classes

    path = _write(tmp_path, "taxonomy.json",
                  {"schema": "css.taxonomy/1", "classes": taxonomy_doc_classes()})
    assert run(["validate", path]) == 0


def test_serve_starts_and_stops(world_file, capsys, monkeypatch):
    import csskit.cli as cli_module

    def interrupt(_):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module.time, "sleep", interrupt)
    code = run(["serve", "--world", world_file, "--resource", "r-driller-a",
                "--port", "0"])
    assert code == 0
    assert "serving resource r-driller-a" in capsys.readouterr().err


def test_market_eval_select_accept(tmp_path, world_file, capsys):
    request_path = _write(tmp_path, "request.json", request_doc())
    offer_a = offer_doc()
    offer_b = offer_doc()
    offer_b.update(
        offerId="off-8",
        coveredCapKeys=["cap-screw"],
        providedCapabilities={"cap-screw": "Screwing"},
        unitPrice=Decimal("0.40"),
        exclusiveGroup="lot-b",
    )
    offers = [
        _write(tmp_path, "offer-a.json", offer_a),
        _write(tmp_path, "offer-b.json", offer_b),
    ]
    now = ["--now", "2026-08-10T00:00:00Z"]

    code = run(["market", "eval", "--request", request_path, "--offers", *offers,
                "--world", world_file, *now])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert all(jsonio.loads(line)["admissible"] for line in out)

    code = run(["market", "select", "--request", request_path, "--offers", *offers,
                "--world", world_file, *now])
    selected = capsys.readouterr().out
    assert code == 0
    assert selected == (  # total 3 x (4.50 + 0.40)
        '{"quantityAllocation":"full-quantity-per-offer","requestId":"req-42",'
        '"selectedOfferIds":["off-7","off-8"],"strategy":"exact","totalCost":14.70}\n'
    )

    code = run(["market", "accept", "--request", request_path, "--offers", *offers,
                "--world", world_file, *now])
    contract = jsonio.loads(capsys.readouterr().out.strip())
    assert code == 0
    assert contract["contractId"] == "contract-req-42"
    assert contract["formedAt"] == "2026-08-10T00:00:00Z"


def test_market_accept_writes_the_contract_to_out(tmp_path, world_file, capsys):
    request_path = _write(tmp_path, "request.json", request_doc())
    offer = offer_doc()
    offer.update(coveredCapKeys=["cap-drill", "cap-screw"],
                 providedCapabilities={"cap-drill": "Drilling", "cap-screw": "Screwing"})
    out_file = tmp_path / "contract.json"
    code = run(["market", "accept", "--request", request_path,
                "--offers", _write(tmp_path, "offer.json", offer), "--world", world_file,
                "--now", "2026-08-10T00:00:00Z", "--out", str(out_file)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out_file.read_text(encoding="utf-8") == (
        '{"acceptedOfferIds":["off-7"],"contractId":"contract-req-42",'
        '"formedAt":"2026-08-10T00:00:00Z","requestId":"req-42","totalPrice":13.50}\n'
    )


def test_market_eval_normalizes_no_more_than_select(tmp_path, world_file, capsys,
                                                    monkeypatch):
    import csskit.market
    import csskit.matching

    calls = Counter()
    for module in (csskit.market, csskit.matching):
        def counted(expression, world, original=module.normalize, name=module.__name__):
            calls[name] += 1
            return original(expression, world)

        monkeypatch.setattr(module, "normalize", counted)
    request_path = _write(tmp_path, "request.json", request_doc())
    offers = []
    for i in range(6):
        doc = offer_doc()
        doc.update(offerId=f"off-{i}", unitPrice=Decimal(f"4.{i}0"))
        offers.append(_write(tmp_path, f"offer-{i}.json", doc))
    counts = {}
    for command in ("eval", "select"):  # select finds no cover of cap-screw
        calls.clear()
        run(["market", command, "--request", request_path, "--offers", *offers,
             "--world", world_file, "--now", "2026-08-10T00:00:00Z"])
        counts[command] = dict(calls)
        if command == "eval":
            assert len(capsys.readouterr().out.splitlines()) == 6
    # one normal form per requested key; eval matches the covered key of each
    # offer, select only off-0's: the other five share its key mask and group
    assert counts["eval"] == {"csskit.market": 1, "csskit.matching": 6}
    assert counts["select"] == {"csskit.market": 1, "csskit.matching": 1}


def test_market_select_no_combination_exit_one(tmp_path, world_file, capsys):
    request_path = _write(tmp_path, "request.json", request_doc())
    lonely = _write(tmp_path, "offer-a.json", offer_doc())  # covers only cap-drill
    code = run(["market", "select", "--request", request_path, "--offers", lonely,
                "--world", world_file, "--now", "2026-08-10T00:00:00Z"])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: no admissible combination covers ['cap-drill', 'cap-screw']\n"
    )


def test_market_accept_after_expiry_exit_one(tmp_path, world_file, capsys):
    request_path = _write(tmp_path, "request.json", request_doc())
    offer_a = offer_doc()
    offer_b = offer_doc()
    offer_b.update(
        offerId="off-8",
        coveredCapKeys=["cap-screw"],
        providedCapabilities={"cap-screw": "Screwing"},
        exclusiveGroup="lot-b",
    )
    offers = [
        _write(tmp_path, "offer-a.json", offer_a),
        _write(tmp_path, "offer-b.json", offer_b),
    ]
    # one second past validUntil: the offers drop out at selection already
    code = run(["market", "accept", "--request", request_path, "--offers", *offers,
                "--world", world_file, "--now", "2026-08-30T00:00:01Z"])
    assert code == 1
    assert capsys.readouterr() == (
        "", "error: no admissible combination covers ['cap-drill', 'cap-screw']\n"
    )


def test_market_rejects_a_document_of_the_wrong_schema(tmp_path, world_file, capsys):
    request_path = _write(tmp_path, "request.json", request_doc())
    offer_path = _write(tmp_path, "offer.json", offer_doc())
    now = ["--now", "2026-08-10T00:00:00Z"]
    code = run(["market", "select", "--request", request_path, "--offers", request_path,
                "--world", world_file, *now])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {request_path}: css.offer/1: expected schema 'css.offer/1', "
        "found 'css.request/1'\n"
    )
    code = run(["market", "select", "--request", offer_path, "--offers", offer_path,
                "--world", world_file, *now])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {offer_path}: css.request/1: expected schema 'css.request/1', "
        "found 'css.offer/1'\n"
    )


def test_market_refuses_a_delivery_date_that_is_not_a_timestamp(
    tmp_path, world_file, capsys
):
    offer_path = _write(tmp_path, "offer.json", {**offer_doc(), "deliveryDate": "soon"})
    code = run(["market", "eval", "--request", _write(tmp_path, "request.json", request_doc()),
                "--offers", offer_path, "--world", world_file, "--now", "2026-08-10T00:00:00Z"])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {offer_path}: css.offer/1.deliveryDate: ")


def test_market_names_the_offer_file_at_fault(tmp_path, world_file, capsys):
    request_path = _write(tmp_path, "request.json", request_doc())
    offers = []
    for i in range(3):
        doc = offer_doc()
        doc.update(offerId=f"off-{i}")
        if i == 1:
            doc["unitPrice"] = "cheap"
        offers.append(_write(tmp_path, f"offer-{i}.json", doc))
    code = run(["market", "select", "--request", request_path, "--offers", *offers,
                "--world", world_file, "--now", "2026-08-10T00:00:00Z"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {offers[1]}: css.offer/1.unitPrice: expected a number\n"
    )


@pytest.mark.parametrize(
    "endpoint",
    [
        "localhost", "127.0.0.1:", "127.0.0.1:7x", "127.0.0.1:65536", ":7007",
        pytest.param("127.0.0.1:" + "7" * 5000, id="port-of-5000-digits"),
    ],
)
def test_run_rejects_an_endpoint_that_is_not_host_port(
    tmp_path, world_file, product_file, capsys, endpoint
):
    endpoints_file = _write(
        tmp_path, "endpoints.json",
        {"schema": "css.endpoints/1", "endpoints": {
            "r-driller-a": endpoint, "r-driller-b": "127.0.0.1:1",
            "r-screwer": "127.0.0.1:1",
        }},
    )
    code = run(["run", "--product", product_file, "--world", world_file,
                "--endpoints", endpoints_file])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {endpoints_file}: css.endpoints/1.endpoints[r-driller-a]: "
        "expected host:port with a port from 0 to 65535\n"
    )


STEP = "products[prod-bracket].steps[step-drill]"


@pytest.mark.parametrize("command", ["plan", "run"])
@pytest.mark.parametrize("values, repeat, message", [
    ({"depth": 12, "speed": 3}, False,
     f"{STEP}.parameterValues[speed]: property 'speed' is not defined"),
    ({"depth": 24}, True,
     f"{STEP}: duplicate step id 'step-drill'; "
     f"{STEP}.parameterValues[depth]: value 24 violates the step's own constraints; "
     f"{STEP}.parameterValues[depth]: value 24 violates the step's own constraints"),
], ids=["undefined-property", "repeated-step-outside-own-constraints"])
def test_plan_and_run_check_the_product_file(
    tmp_path, world_file, capsys, command, values, repeat, message
):
    doc = {"schema": "css.product/1", **exec_world_doc()["products"][0]}
    doc["steps"][0]["parameterValues"] = values
    if repeat:
        doc["steps"].append(doc["steps"][0])
    product = _write(tmp_path, "product.json", doc)
    endpoints = _write(tmp_path, "endpoints.json", {
        "schema": "css.endpoints/1", "endpoints": {"r-driller-a": "127.0.0.1:1"},
    })
    argv = [command, "--product", product, "--world", world_file]
    if command == "run":
        argv += ["--endpoints", endpoints]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: product fails validation: {message}\n"


# --- output that UTF-8 cannot carry raw ----------------------------------------------

def _csskit_strict(*argv) -> subprocess.CompletedProcess:
    """``python -m csskit argv`` with stdout encoding strictly to UTF-8."""
    env = {
        **os.environ,
        "PYTHONIOENCODING": "utf-8:strict",
        "PYTHONPATH": str(Path(csskit.__file__).resolve().parents[1]),
    }
    return subprocess.run([sys.executable, "-m", "csskit", *argv],
                          capture_output=True, env=env, timeout=60)


@pytest.mark.parametrize("form", ["text", "lines"])
def test_plan_prints_a_lone_surrogate_as_its_escape(tmp_path, form):
    doc = lone_surrogate_world_doc()
    world_file = _write_escaped(tmp_path, "world.json", doc)
    product_file = _write_escaped(
        tmp_path, "product.json", {"schema": "css.product/1", **doc["products"][0]}
    )
    done = _csskit_strict("plan", "--product", product_file, "--world", world_file,
                          "--format", form)
    assert (done.returncode, done.stderr) == (0, b"")
    drill = done.stdout.decode("utf-8").splitlines()[0]
    if form == "text":
        assert drill == r"step-drill: r-driller-a/skill-drill-a (PLUGIN) depth=12, material=\ud800"
    else:
        assert jsonio.loads(drill)["parameters"] == {"depth": 12, "material": "\ud800"}


@pytest.mark.parametrize("command", ["eval", "select", "accept"])
def test_market_prints_a_lone_surrogate_as_its_escape(tmp_path, world_file, command):
    offer_a = {**offer_doc(), "offerId": "\ud800"}
    offer_b = {**offer_doc(), "offerId": "off-8", "coveredCapKeys": ["cap-screw"],
               "providedCapabilities": {"cap-screw": "Screwing"},
               "unitPrice": Decimal("0.40"), "exclusiveGroup": "lot-b"}
    offers = [_write_escaped(tmp_path, f"offer-{i}.json", doc)
              for i, doc in enumerate((offer_a, offer_b))]
    done = _csskit_strict("market", command, "--request",
                          _write(tmp_path, "request.json", request_doc()),
                          "--offers", *offers, "--world", world_file,
                          "--now", "2026-08-10T00:00:00Z")
    assert (done.returncode, done.stderr) == (0, b"")
    text = done.stdout.decode("utf-8")
    assert "\\ud800" in text
    ids = {"eval": lambda objs: [o["offerId"] for o in objs],
           "select": lambda objs: objs[0]["selectedOfferIds"],
           "accept": lambda objs: objs[0]["acceptedOfferIds"]}[command]
    assert sorted(ids([jsonio.loads(line) for line in text.splitlines()])) == ["off-8", "\ud800"]


# --- every output, byte for byte --------------------------------------------------------

#: (required, provided) -> exit code, text output, lines output
MATCH_OUTPUTS = {
    ("Drilling and (depth >= 10 mm) and (depth <= 20 mm)", "Drilling and (depth <= 15 mm)"): (
        0,
        "degree: INTERSECT\n"
        "witness: depth = 12\n"
        "property depth: required=[10, 20] provided=[0, 15] intersection=[10, 15]\n",
        '{"degree":"INTERSECT","perProperty":{"depth":{"intersection":"[10, 15]",'
        '"provided":"[0, 15]","required":"[10, 20]"}},"witness":{"depth":12}}\n',
    ),
    ("Drilling and (depth <= 15 mm)", "Drilling and (depth <= 25 mm)"): (
        0,
        "degree: PLUGIN\n"
        "witness: depth = 7\n"
        "property depth: required=[0, 15] provided=[0, 25] intersection=[0, 15]\n",
        '{"degree":"PLUGIN","perProperty":{"depth":{"intersection":"[0, 15]",'
        '"provided":"[0, 25]","required":"[0, 15]"}},"witness":{"depth":7}}\n',
    ),
    ("Drilling and (depth <= 15 mm)", "Drilling and (depth <= 15 mm)"): (
        0,
        "degree: EXACT\n"
        "witness: depth = 7\n"
        "property depth: required=[0, 15] provided=[0, 15] intersection=[0, 15]\n",
        '{"degree":"EXACT","perProperty":{"depth":{"intersection":"[0, 15]",'
        '"provided":"[0, 15]","required":"[0, 15]"}},"witness":{"depth":7}}\n',
    ),
    ("Drilling", "Drilling"): (
        0,
        "degree: EXACT\nwitness: (unconstrained)\n",
        '{"degree":"EXACT","perProperty":{},"witness":{}}\n',
    ),
    ("Drilling and (material in {steel, wood})",
     "Drilling and (material in {aluminium, steel})"): (
        0,
        "degree: INTERSECT\n"
        "witness: material = steel\n"
        "property material: required={steel, wood} provided={aluminium, steel} "
        "intersection={steel}\n",
        '{"degree":"INTERSECT","perProperty":{"material":{"intersection":"{steel}",'
        '"provided":"{aluminium, steel}","required":"{steel, wood}"}},'
        '"witness":{"material":"steel"}}\n',
    ),
    ("Screwing and (torque > 2.5) and (coolant = true)", "Screwing and (torque <= 5)"): (
        0,
        "degree: INTERSECT\n"
        "witness: coolant = true, torque = 3.75\n"
        "property coolant: required={true} provided={false, true} intersection={true}\n"
        "property torque: required=(2.5, 10] provided=[0, 5] intersection=(2.5, 5]\n",
        '{"degree":"INTERSECT","perProperty":{"coolant":{"intersection":"{true}",'
        '"provided":"{false, true}","required":"{true}"},"torque":{"intersection":"(2.5, 5]",'
        '"provided":"[0, 5]","required":"(2.5, 10]"}},'
        '"witness":{"coolant":true,"torque":3.75}}\n',
    ),
    ("Drilling and (depth >= 20 mm)", "Drilling and (depth <= 15 mm)"): (
        1,
        "degree: DISJOINT\n"
        "property depth: required=[20, 100] provided=[0, 15] intersection=EMPTY\n",
        '{"degree":"DISJOINT","perProperty":{"depth":{"intersection":"EMPTY",'
        '"provided":"[0, 15]","required":"[20, 100]"}},"witness":null}\n',
    ),
}


@pytest.mark.parametrize("required, provided", sorted(MATCH_OUTPUTS))
def test_match_output_byte_for_byte(world_file, capsys, required, provided):
    code, text, lines = MATCH_OUTPUTS[required, provided]
    for form, expected in (("text", text), ("lines", lines)):
        assert run(["match", "--required", required, "--provided", provided,
                    "--world", world_file, "--format", form]) == code
        assert capsys.readouterr() == (expected, "")


#: product id -> text output, lines output
PLAN_OUTPUTS = {
    "prod-bracket": (
        "step-drill: r-driller-a/skill-drill-a (PLUGIN) depth=12\n"
        "step-screw: r-screwer/skill-screw (PLUGIN) torque=2.5\n",
        '{"capabilityId":"cap-drill-a","degree":"PLUGIN","parameters":{"depth":12},'
        '"resourceId":"r-driller-a","skillId":"skill-drill-a","stepId":"step-drill"}\n'
        '{"capabilityId":"cap-screw","degree":"PLUGIN","parameters":{"torque":2.5},'
        '"resourceId":"r-screwer","skillId":"skill-screw","stepId":"step-screw"}\n',
    ),
}


def test_plan_output_byte_for_byte(tmp_path, world_file, capsys):
    products = exec_world_doc()["products"]
    assert sorted(p["id"] for p in products) == sorted(PLAN_OUTPUTS)
    for product in products:
        product_file = _write(tmp_path, "product.json", {"schema": "css.product/1", **product})
        for form, expected in zip(("text", "lines"), PLAN_OUTPUTS[product["id"]]):
            assert run(["plan", "--product", product_file, "--world", world_file,
                        "--format", form]) == 0
            assert capsys.readouterr() == (expected, "")


def test_run_writes_the_same_bytes_to_stdout_and_out(tmp_path, world_file, product_file,
                                                     capsys):
    """Each run gets servers of its own, so both start from the same skill states."""
    world = build_world([exec_world_doc()])
    out_file = tmp_path / "trace.lines"

    def run_on_new_servers(*out):
        servers, endpoints_file = _serve_for_run(
            tmp_path, world, {r.id: None for r in world.resources}
        )
        try:
            return run(["run", "--product", product_file, "--world", world_file,
                        "--endpoints", endpoints_file, *out])
        finally:
            for server in servers:
                server.close()

    assert run_on_new_servers() == 0
    printed = capsys.readouterr()
    assert run_on_new_servers("--out", str(out_file)) == 0
    assert capsys.readouterr() == ("", "")
    assert printed.err == ""
    written = out_file.read_bytes()
    assert printed.out.encode("utf-8") == written
    assert len(written.splitlines()) == 21
    assert written.splitlines()[8] == (
        b'{"detail":{"outputs":{"achievedDepth":12}},"kind":"outputRead",'
        b'"localRuntimeId":"lr-0001","stepId":"step-drill","timestamp":8}'
    )
    assert hashlib.sha256(written).hexdigest() == (
        "6d5410c26b50a5b2878ecb7fe21d2085f353b31737b6a0e6b1ac343d2bf2f513"
    )


def test_market_accept_writes_the_same_bytes_to_stdout_and_out(tmp_path, world_file, capsys):
    offer = offer_doc()
    offer.update(coveredCapKeys=["cap-drill", "cap-screw"],
                 providedCapabilities={"cap-drill": "Drilling", "cap-screw": "Screwing"})
    argv = ["market", "accept", "--request", _write(tmp_path, "request.json", request_doc()),
            "--offers", _write(tmp_path, "offer.json", offer), "--world", world_file,
            "--now", "2026-08-10T00:00:00Z"]
    out_file = tmp_path / "contract.json"
    assert run(argv) == 0
    printed = capsys.readouterr()
    assert run([*argv, "--out", str(out_file)]) == 0
    assert capsys.readouterr() == ("", "")
    assert printed == (
        '{"acceptedOfferIds":["off-7"],"contractId":"contract-req-42",'
        '"formedAt":"2026-08-10T00:00:00Z","requestId":"req-42","totalPrice":13.50}\n',
        "",
    )
    assert out_file.read_bytes() == printed.out.encode("utf-8")
