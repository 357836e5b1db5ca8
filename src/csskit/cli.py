"""Operator entry point: validate, match, plan, serve, run and market commands.

Exit codes: 0 success, 1 domain negative (DISJOINT match, validation errors,
no feasible offer combination, step failure), 2 usage or parse error,
3 I/O or network error. Machine output goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from . import jsonio
from .documents import (
    build_world,
    endpoints_from_doc,
    load_document_file,
    offer_from_doc,
    product_from_doc,
    request_from_doc,
)
from .errors import (
    BindFailureError,
    ConnectionLostError,
    CssError,
    DocumentInvalidError,
    ExpressionSyntaxError,
    ParseError,
    StepFailedNoAlternativeError,
    TimeoutError,
    TypeMismatchError,
    UnitMismatchError,
    UnknownClassError,
    UnknownPropertyError,
)
from .expressions import format_feasible_set, parse_expression
from .hosting import build_resource_host
from .market import FULL_QUANTITY_PER_OFFER, evaluate_offers, form_contract, select_offers
from .matching import MatchDegree, match_capabilities
from .model import validate_model
from .orchestrate import execute_plan, plan, trace_to_lines
from .protocol import FAILED_REQUEST, SkillClient, connect_tcp, serve
from .values import format_literal, format_timestamp, parse_timestamp

_USAGE_ERRORS = (
    DocumentInvalidError,
    ParseError,
    ExpressionSyntaxError,
    UnknownClassError,
    UnknownPropertyError,
    TypeMismatchError,
    UnitMismatchError,
)
_IO_ERRORS = (BindFailureError, ConnectionLostError, TimeoutError, OSError)


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (CssError, OSError) as exc:  # a CssError's str is its message
        _say(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _USAGE_ERRORS) else 3 if isinstance(exc, _IO_ERRORS) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csskit",
        description="Capability matchmaking, skill execution and service tendering.",
    )
    sub = parser.add_subparsers(dest="command")

    p_validate = sub.add_parser("validate", help="validate model documents")
    p_validate.add_argument("files", nargs="+")
    p_validate.set_defaults(func=_cmd_validate)

    p_match = sub.add_parser("match", help="match a required against a provided capability")
    p_match.add_argument("--required", required=True)
    p_match.add_argument("--provided", required=True)
    p_match.add_argument("--world", required=True)
    p_match.add_argument("--format", choices=("text", "lines"), default="text")
    p_match.set_defaults(func=_cmd_match)

    p_plan = sub.add_parser("plan", help="plan a product against the world")
    p_plan.add_argument("--product", required=True)
    p_plan.add_argument("--world", required=True)
    p_plan.add_argument("--format", choices=("text", "lines"), default="text")
    p_plan.set_defaults(func=_cmd_plan)

    p_serve = sub.add_parser("serve", help="serve one resource's skills over TCP")
    p_serve.add_argument("--world", required=True)
    p_serve.add_argument("--resource", required=True)
    p_serve.add_argument("--port", type=int, required=True)
    p_serve.set_defaults(func=_cmd_serve)

    p_run = sub.add_parser("run", help="plan and execute a product over TCP endpoints")
    p_run.add_argument("--product", required=True)
    p_run.add_argument("--world", required=True)
    p_run.add_argument("--endpoints", required=True)
    p_run.add_argument("--out")
    p_run.set_defaults(func=_cmd_run)

    p_market = sub.add_parser("market", help="evaluate, select or accept offers")
    market_sub = p_market.add_subparsers(dest="market_command")
    for name, func in (
        ("eval", _cmd_market_eval),
        ("select", _cmd_market_select),
        ("accept", _cmd_market_accept),
    ):
        p = market_sub.add_parser(name)
        p.add_argument("--request", required=True)
        p.add_argument("--offers", nargs="+", required=True)
        p.add_argument("--world", required=True)
        p.add_argument("--now", required=True, help="ISO-8601 UTC timestamp")
        if name == "accept":
            p.add_argument("--out")
        p.set_defaults(func=func)

    return parser


def _say(line, file=None) -> None:
    """Print one output line through ``jsonio.dumps_utf8``, the one UTF-8
    writer: a dict as its line, a text line with each lone surrogate escaped
    as that writer escapes it (``jsonio.escape_surrogates``)."""
    text = jsonio.dumps_utf8(line) if isinstance(line, dict) else jsonio.escape_surrogates(line)
    print(text, file=file)


def _say_to(path, line) -> None:
    """``_say`` of ``line`` into a new file at ``path``, or to stdout without one."""
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext() as handle:
        _say(line, file=handle)


def _literals(values: dict, sep: str) -> str:
    """``key<sep>literal`` of each item in key order, joined by ", "."""
    return ", ".join(f"{k}{sep}{format_literal(v)}" for k, v in sorted(values.items()))


def _read(path, reader, *args):
    """``reader(document, *args)`` of the document at ``path``. A document
    fault is re-raised with the path in front of its message."""
    try:
        return reader(load_document_file(path), *args)
    except (DocumentInvalidError, ParseError) as exc:
        raise DocumentInvalidError(f"{path}: {exc.message}") from exc


def _load_world(path):
    return _read(path, lambda doc: build_world([doc]))


def _cmd_validate(args) -> int:
    # a fault of the world assembled from several files names no one file
    world = build_world([_read(path, lambda doc: doc) for path in args.files])
    report = validate_model(world)
    for issue in report.issues:
        _say(f"{issue.severity}: {issue.path}: {issue.message}")
    if report.ok:
        _say(f"ok: {len(report.issues)} issue(s), none are errors", file=sys.stderr)
        return 0
    _say(f"invalid: {len(report.errors())} error(s)", file=sys.stderr)
    return 1


def _cmd_match(args) -> int:
    world = _load_world(args.world)
    required = parse_expression(args.required, world)
    provided = parse_expression(args.provided, world)
    result = match_capabilities(required, provided, world)
    record = {
        "degree": result.degree.value,
        "witness": result.witness,  # derived from per_property on each read
        "perProperty": {
            property_id: {
                side: format_feasible_set(getattr(comparison, side))
                for side in ("required", "provided", "intersection")
            }
            for property_id, comparison in sorted(result.per_property.items())
        },
    }
    if args.format == "lines":
        _say(record)
    else:
        _say(f"degree: {record['degree']}")
        if record["witness"] is not None:
            _say(f"witness: {_literals(record['witness'], ' = ') or '(unconstrained)'}")
        for property_id, sets in record["perProperty"].items():
            _say(f"property {property_id}: " + " ".join(f"{k}={v}" for k, v in sets.items()))
    return 1 if record["degree"] == MatchDegree.DISJOINT.value else 0


def _cmd_plan(args) -> int:
    world = _load_world(args.world)
    product = _read(args.product, product_from_doc, world)
    for entry in plan(product, world).entries:
        record = {
            "stepId": entry.step_id,
            "resourceId": entry.resource_id,
            "capabilityId": entry.capability_id,
            "skillId": entry.skill_id,
            "degree": entry.match_degree.value,
            "parameters": entry.parameter_assignment,
        }
        _say(record if args.format == "lines" else (
            f"{record['stepId']}: {record['resourceId']}/{record['skillId']} "
            f"({record['degree']}) {_literals(record['parameters'], '=')}"
        ))
    return 0


def _cmd_serve(args) -> int:
    world = _load_world(args.world)
    report = validate_model(world)
    if not report.ok:
        for issue in report.errors():
            _say(f"error: {issue.path}: {issue.message}", file=sys.stderr)
        return 1
    host = build_resource_host(world, args.resource)
    server = serve(host, ("127.0.0.1", args.port))
    _say(
        f"serving resource {args.resource} on port {server.port} "
        f"({len(host.local_runtime_ids())} skill(s))",
        file=sys.stderr,
    )
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        return 0
    finally:
        server.close()


def _cmd_run(args) -> int:
    world = _load_world(args.world)
    product = _read(args.product, product_from_doc, world)
    endpoints = _read(args.endpoints, endpoints_from_doc)
    production_plan = plan(product, world)

    primaries = sorted({entry.resource_id for entry in production_plan.entries})
    missing = [r for r in primaries if r not in endpoints]
    if missing:
        raise DocumentInvalidError(f"endpoints file misses resources {missing}")

    connections = _Connections(endpoints)
    try:
        for resource_id in primaries:
            client = connect_tcp(endpoints[resource_id])
            connections[resource_id] = client
            client.hello()
        code = 0
        try:
            trace = execute_plan(production_plan, connections)
        except StepFailedNoAlternativeError as exc:
            trace = exc.trace
            _say(f"error: {exc.message}", file=sys.stderr)
            code = 1
        _say_to(args.out, "\n".join(trace_to_lines(trace)))
        return code
    finally:
        for client in connections.values():
            client.close()


class _Connections(dict):
    """Resource id -> hello'd TCP client. A primary's client is connected
    before the run; any other resource's when an attempt first needs it. A
    resource without an endpoint, or whose connect or ``hello`` fails then,
    gets a client that has lost its connection, so the attempt records one
    ``ConnectionLost`` error and the run fails over."""

    def __init__(self, endpoints):
        super().__init__()
        self._endpoints = endpoints

    def __missing__(self, resource_id):
        client = SkillClient(send_line=None)
        try:
            if resource_id not in self._endpoints:
                raise ConnectionLostError(f"no endpoint for resource {resource_id!r}")
            client = connect_tcp(self._endpoints[resource_id])
            client.hello()
        except FAILED_REQUEST as exc:
            client.connection_lost(exc.message)  # the run closes it with the others
        self[resource_id] = client
        return client


def _load_market_inputs(args):
    world = _load_world(args.world)
    request = _read(args.request, request_from_doc, world)
    offers = [_read(path, offer_from_doc, world) for path in args.offers]
    now = parse_timestamp(args.now)
    return world, request, offers, now


def _cmd_market_eval(args) -> int:
    world, request, offers, _ = _load_market_inputs(args)
    for offer, verdict in zip(offers, evaluate_offers(request, offers, world)):
        violations = [{"criterion": v.criterion, "detail": v.detail} for v in verdict.violations]
        _say({"offerId": offer.offer_id, "admissible": verdict.admissible,
              "violations": violations})
    return 0


def _cmd_market_select(args) -> int:
    world, request, offers, now = _load_market_inputs(args)
    award = select_offers(request, offers, now, world)
    record = {
        "requestId": award.request_id,
        "selectedOfferIds": list(award.offer_ids()),
        "totalCost": award.total_cost,
        "strategy": award.strategy,
        "quantityAllocation": FULL_QUANTITY_PER_OFFER,
    }
    _say(record)
    return 0


def _cmd_market_accept(args) -> int:
    world, request, offers, now = _load_market_inputs(args)
    contract = form_contract(select_offers(request, offers, now, world), accepted_at=now)
    record = {
        "contractId": contract.contract_id,
        "requestId": contract.request_id,
        "acceptedOfferIds": list(contract.accepted_offer_ids),
        "totalPrice": contract.total_price,
        "formedAt": format_timestamp(contract.formed_at),
    }
    _say_to(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
