"""Lowering: plan trees → a shared physical DAG (CSE).

``lower`` converts one or more plan trees into a :class:`PlanDAG`:
nodes are deduplicated by :meth:`PlanNode.structural_key`, so repeated
``Scan``s and structurally identical subplans — within one query or
across a batch — become a single DAG node.  The runtime evaluates each
unique node at most once (see :mod:`repro.plans.runtime`), which is the
physical counterpart of the paper's Section 6 workload sharing: common
work across an MPF query batch is detected and paid for once.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.plans.nodes import IndexScan, PlanNode, Scan

__all__ = ["PlanDAG", "lower"]


class PlanDAG:
    """A deduplicated plan DAG over structural keys.

    ``nodes`` maps each structural key to one representative plan node;
    ``children`` gives each key's input keys; ``roots`` are the keys of
    the input trees, in input order (duplicates preserved so batch
    callers can zip results back to queries); ``order`` is a
    topological order with children before parents.
    """

    def __init__(
        self,
        nodes: dict[tuple, PlanNode],
        children: dict[tuple, tuple[tuple, ...]],
        depends_on: dict[tuple, frozenset[str]],
        roots: tuple[tuple, ...],
        order: tuple[tuple, ...],
        tree_nodes: int,
    ):
        self.nodes = nodes
        self.children = children
        self.depends_on = depends_on
        self.roots = roots
        self.order = order
        self.tree_nodes = tree_nodes

    # ------------------------------------------------------------------
    @property
    def unique_nodes(self) -> int:
        return len(self.nodes)

    @property
    def shared_nodes(self) -> int:
        """Tree occurrences eliminated by CSE."""
        return self.tree_nodes - self.unique_nodes

    def node(self, key: tuple) -> PlanNode:
        return self.nodes[key]

    def topological(self) -> Iterator[tuple]:
        """Keys with every child before its parents."""
        return iter(self.order)

    def base_tables(self, key: tuple) -> frozenset[str]:
        """Base tables the subplan rooted at ``key`` reads."""
        return self.depends_on[key]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlanDAG(roots={len(self.roots)}, unique={self.unique_nodes}, "
            f"shared={self.shared_nodes})"
        )


def lower(plans: PlanNode | Sequence[PlanNode]) -> PlanDAG:
    """Common-subexpression-eliminate plan trees into one DAG."""
    if isinstance(plans, PlanNode):
        plans = [plans]
    nodes: dict[tuple, PlanNode] = {}
    children: dict[tuple, tuple[tuple, ...]] = {}
    depends_on: dict[tuple, frozenset[str]] = {}
    order: list[tuple] = []

    def visit(root: PlanNode) -> tuple:
        # Iterative post-order: lowering must survive plans far deeper
        # than the interpreter recursion limit (long operator chains).
        stack = [root]
        while stack:
            node = stack[-1]
            key = node.structural_key()
            if key in nodes:
                stack.pop()
                continue
            pending = [
                c for c in node.children()
                if c.structural_key() not in nodes
            ]
            if pending:
                stack.extend(pending)
                continue
            child_keys = tuple(c.structural_key() for c in node.children())
            nodes[key] = node
            children[key] = child_keys
            tables = set()
            if isinstance(node, (Scan, IndexScan)):
                tables.add(node.table)
            for child_key in child_keys:
                tables |= depends_on[child_key]
            depends_on[key] = frozenset(tables)
            order.append(key)  # post-order ⇒ children first
            stack.pop()
        return root.structural_key()

    roots = tuple(visit(plan) for plan in plans)
    tree_nodes = sum(plan.count_nodes() for plan in plans)
    return PlanDAG(
        nodes=nodes,
        children=children,
        depends_on=depends_on,
        roots=roots,
        order=tuple(order),
        tree_nodes=tree_nodes,
    )

