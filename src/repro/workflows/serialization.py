"""Serialisation of workflows and chains to/from JSON, and DOT export.

A library users adopt needs a way to get their own workflows in and their
results out.  This module defines a small, versioned JSON format for
:class:`~repro.workflows.dag.Workflow` and
:class:`~repro.workflows.chain.LinearChain` instances, plus a Graphviz DOT
export for visual inspection of DAGs and schedules.

JSON format (version 1)::

    {
      "format": "repro-workflow",
      "version": 1,
      "name": "my-pipeline",
      "tasks": [
        {"name": "T1", "work": 10.0, "checkpoint_cost": 1.0,
         "recovery_cost": 1.0, "memory_footprint": null},
        ...
      ],
      "dependences": [["T1", "T2"], ...]
    }

Chains use ``"format": "repro-chain"`` with aligned arrays instead of a task
list (matching the :class:`LinearChain` constructor).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.workflows.chain import LinearChain
from repro.workflows.dag import Workflow
from repro.workflows.task import Task

__all__ = [
    "workflow_to_dict",
    "workflow_from_dict",
    "chain_to_dict",
    "chain_from_dict",
    "save_workflow",
    "load_workflow",
    "save_chain",
    "load_chain",
    "workflow_to_dot",
]

_WORKFLOW_FORMAT = "repro-workflow"
_CHAIN_FORMAT = "repro-chain"
_VERSION = 1


def workflow_to_dict(workflow: Workflow) -> Dict:
    """Serialise a workflow to a plain dict (JSON-compatible)."""
    return {
        "format": _WORKFLOW_FORMAT,
        "version": _VERSION,
        "name": workflow.name,
        "tasks": [
            {
                "name": task.name,
                "work": task.work,
                "checkpoint_cost": task.checkpoint_cost,
                "recovery_cost": task.recovery_cost,
                "memory_footprint": task.memory_footprint,
            }
            for task in workflow.tasks()
        ],
        "dependences": [[u, v] for u, v in workflow.dependences()],
    }


def _check_header(data: Dict, expected_format: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    fmt = data.get("format")
    if fmt != expected_format:
        raise ValueError(f"expected format {expected_format!r}, got {fmt!r}")
    version = data.get("version")
    if version != _VERSION:
        raise ValueError(f"unsupported {expected_format} version {version!r} (supported: {_VERSION})")


def workflow_from_dict(data: Dict) -> Workflow:
    """Deserialise a workflow from a dict produced by :func:`workflow_to_dict`."""
    _check_header(data, _WORKFLOW_FORMAT)
    try:
        tasks = [
            Task(
                name=entry["name"],
                work=entry["work"],
                checkpoint_cost=entry.get("checkpoint_cost", 0.0),
                recovery_cost=entry.get("recovery_cost", 0.0),
                memory_footprint=entry.get("memory_footprint"),
            )
            for entry in data["tasks"]
        ]
        dependences = [(u, v) for u, v in data.get("dependences", [])]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed workflow document: {exc}") from exc
    return Workflow(tasks, dependences, name=data.get("name", "workflow"))


def chain_to_dict(chain: LinearChain) -> Dict:
    """Serialise a linear chain to a plain dict (JSON-compatible)."""
    return {
        "format": _CHAIN_FORMAT,
        "version": _VERSION,
        "names": list(chain.names),
        "works": list(chain.works),
        "checkpoint_costs": list(chain.checkpoint_costs),
        "recovery_costs": list(chain.recovery_costs),
        "initial_recovery": chain.initial_recovery,
    }


def chain_from_dict(data: Dict) -> LinearChain:
    """Deserialise a linear chain from a dict produced by :func:`chain_to_dict`."""
    _check_header(data, _CHAIN_FORMAT)
    try:
        return LinearChain(
            works=data["works"],
            checkpoint_costs=data["checkpoint_costs"],
            recovery_costs=data["recovery_costs"],
            initial_recovery=data.get("initial_recovery", 0.0),
            names=data.get("names"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed chain document: {exc}") from exc


def save_workflow(workflow: Workflow, path: Union[str, Path]) -> None:
    """Write a workflow to a JSON file."""
    Path(path).write_text(json.dumps(workflow_to_dict(workflow), indent=2) + "\n")


def load_workflow(path: Union[str, Path]) -> Workflow:
    """Read a workflow from a JSON file."""
    return workflow_from_dict(json.loads(Path(path).read_text()))


def save_chain(chain: LinearChain, path: Union[str, Path]) -> None:
    """Write a linear chain to a JSON file."""
    Path(path).write_text(json.dumps(chain_to_dict(chain), indent=2) + "\n")


def load_chain(path: Union[str, Path]) -> LinearChain:
    """Read a linear chain from a JSON file."""
    return chain_from_dict(json.loads(Path(path).read_text()))


def _dot_escape(text: str) -> str:
    """``text`` made safe inside a DOT double-quoted string."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def workflow_to_dot(
    workflow: Workflow,
    *,
    checkpoint_after: Optional[List[str]] = None,
) -> str:
    """Render a workflow as a Graphviz DOT digraph.

    Tasks named in ``checkpoint_after`` (e.g. from a schedule) are drawn with a
    doubled border so checkpoint placements can be inspected visually.
    """
    checkpointed = set(checkpoint_after or [])
    unknown = checkpointed - set(workflow.task_names())
    if unknown:
        raise ValueError(f"checkpoint_after references unknown tasks: {sorted(unknown)}")
    lines = [f'digraph "{_dot_escape(workflow.name)}" {{', "  rankdir=LR;"]
    for task in workflow.tasks():
        shape = "doubleoctagon" if task.name in checkpointed else "box"
        name = _dot_escape(task.name)
        label = f"{name}\\nw={task.work:g} C={task.checkpoint_cost:g}"
        lines.append(f'  "{name}" [shape={shape}, label="{label}"];')
    for u, v in workflow.dependences():
        lines.append(f'  "{_dot_escape(u)}" -> "{_dot_escape(v)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
