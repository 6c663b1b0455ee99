"""Plan (de)serialization: plans as plain dicts / JSON.

Lets callers persist a chosen plan (e.g. a plan cache keyed by query
shape) and re-execute it later without re-optimizing — the relational
engine's equivalent of a prepared statement.  Only structure and
physical methods are stored; statistics/cost annotations are
re-derivable via :func:`repro.plans.annotate.annotate`.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.errors import PlanError
from repro.plans.nodes import (
    GroupBy,
    IndexScan,
    PlanNode,
    ProductJoin,
    Scan,
    Select,
    SemiJoin,
)

__all__ = ["plan_to_dict", "plan_from_dict", "plan_to_json", "plan_from_json"]


def plan_to_dict(plan: PlanNode) -> dict:
    """Structural dict encoding of a plan tree."""
    if isinstance(plan, Scan):
        return {"op": "scan", "table": plan.table}
    if isinstance(plan, IndexScan):
        return {
            "op": "index_scan",
            "table": plan.table,
            "predicate": dict(plan.predicate),
        }
    if isinstance(plan, Select):
        return {
            "op": "select",
            "predicate": dict(plan.predicate),
            "child": plan_to_dict(plan.child),
        }
    if isinstance(plan, ProductJoin):
        return {
            "op": "product_join",
            "method": plan.method,
            "left": plan_to_dict(plan.left),
            "right": plan_to_dict(plan.right),
        }
    if isinstance(plan, GroupBy):
        return {
            "op": "group_by",
            "group_names": list(plan.group_names),
            "method": plan.method,
            "child": plan_to_dict(plan.child),
        }
    if isinstance(plan, SemiJoin):
        return {
            "op": "semijoin",
            "kind": plan.kind,
            "target": plan_to_dict(plan.target),
            "source": plan_to_dict(plan.source),
        }
    raise PlanError(f"cannot serialize node {type(plan).__name__}")


def plan_from_dict(data: dict) -> PlanNode:
    """Rebuild a plan tree from :func:`plan_to_dict` output.

    Malformed input — not a mapping, a missing field, a field of the
    wrong type, an unknown op — raises :class:`PlanError`.
    """
    try:
        return _node_from_dict(data)
    except KeyError as exc:
        raise PlanError(f"malformed plan dict: missing field {exc}") from None
    except TypeError as exc:
        raise PlanError(f"malformed plan dict: {exc}") from None


def _predicate(data: dict) -> Mapping:
    predicate = data["predicate"]
    if not isinstance(predicate, Mapping):
        raise PlanError(
            f"malformed plan dict: predicate must be a mapping, "
            f"got {predicate!r}"
        )
    return predicate


def _node_from_dict(data: dict) -> PlanNode:
    op = data["op"]
    if op == "scan":
        return Scan(data["table"])
    if op == "index_scan":
        return IndexScan(data["table"], _predicate(data))
    if op == "select":
        return Select(_node_from_dict(data["child"]), _predicate(data))
    if op == "product_join":
        return ProductJoin(
            _node_from_dict(data["left"]),
            _node_from_dict(data["right"]),
            method=data.get("method", "hash"),
        )
    if op == "group_by":
        return GroupBy(
            _node_from_dict(data["child"]),
            data["group_names"],
            method=data.get("method", "sort"),
        )
    if op == "semijoin":
        return SemiJoin(
            _node_from_dict(data["target"]),
            _node_from_dict(data["source"]),
            kind=data.get("kind", "product"),
        )
    raise PlanError(f"unknown plan op {op!r}")


def plan_to_json(plan: PlanNode, indent: int | None = None) -> str:
    return json.dumps(plan_to_dict(plan), indent=indent)


def plan_from_json(text: str) -> PlanNode:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"invalid plan JSON: {exc}") from exc
    return plan_from_dict(data)
