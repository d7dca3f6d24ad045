"""Tests for workflow/chain JSON serialisation and DOT export."""

import json
import re

import pytest

from repro.workflows.dag import Workflow
from repro.workflows.generators import montage_like, uniform_random_chain
from repro.workflows.serialization import (
    chain_from_dict,
    chain_to_dict,
    load_chain,
    load_workflow,
    save_chain,
    save_workflow,
    workflow_from_dict,
    workflow_to_dict,
    workflow_to_dot,
)
from repro.workflows.task import Task


class TestWorkflowRoundTrip:
    def test_dict_round_trip_preserves_structure(self, diamond_workflow):
        data = workflow_to_dict(diamond_workflow)
        restored = workflow_from_dict(data)
        assert restored.task_names() == diamond_workflow.task_names()
        assert sorted(restored.dependences()) == sorted(diamond_workflow.dependences())
        for name in diamond_workflow.task_names():
            original = diamond_workflow.task(name)
            copy = restored.task(name)
            assert copy.work == original.work
            assert copy.checkpoint_cost == original.checkpoint_cost
            assert copy.recovery_cost == original.recovery_cost

    def test_dict_is_json_serialisable(self, diamond_workflow):
        text = json.dumps(workflow_to_dict(diamond_workflow))
        assert "repro-workflow" in text

    def test_file_round_trip(self, diamond_workflow, tmp_path):
        path = tmp_path / "wf.json"
        save_workflow(diamond_workflow, path)
        restored = load_workflow(path)
        assert restored.task_names() == diamond_workflow.task_names()

    def test_montage_round_trip(self, tmp_path):
        wf = montage_like(4)
        path = tmp_path / "montage.json"
        save_workflow(wf, path)
        restored = load_workflow(path)
        assert len(restored) == len(wf)
        assert sorted(restored.dependences()) == sorted(wf.dependences())

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="format"):
            workflow_from_dict({"format": "other", "version": 1, "tasks": []})

    def test_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="version"):
            workflow_from_dict({"format": "repro-workflow", "version": 99, "tasks": []})

    def test_rejects_malformed_tasks(self):
        with pytest.raises(ValueError, match="malformed"):
            workflow_from_dict(
                {"format": "repro-workflow", "version": 1, "tasks": [{"name": "A"}]}
            )

    def test_rejects_non_dict(self):
        with pytest.raises(ValueError):
            workflow_from_dict([1, 2, 3])


class TestChainRoundTrip:
    def test_dict_round_trip(self, small_chain):
        restored = chain_from_dict(chain_to_dict(small_chain))
        assert restored.works == small_chain.works
        assert restored.checkpoint_costs == small_chain.checkpoint_costs
        assert restored.recovery_costs == small_chain.recovery_costs
        assert restored.initial_recovery == small_chain.initial_recovery
        assert restored.names == small_chain.names

    def test_file_round_trip(self, tmp_path):
        chain = uniform_random_chain(7, seed=120)
        path = tmp_path / "chain.json"
        save_chain(chain, path)
        restored = load_chain(path)
        assert restored.works == chain.works

    def test_rejects_wrong_format(self, small_chain):
        data = chain_to_dict(small_chain)
        data["format"] = "repro-workflow"
        with pytest.raises(ValueError):
            chain_from_dict(data)

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="malformed"):
            chain_from_dict({"format": "repro-chain", "version": 1, "works": [1.0]})


class TestDotExport:
    def test_contains_all_tasks_and_edges(self, diamond_workflow):
        dot = workflow_to_dot(diamond_workflow)
        for name in diamond_workflow.task_names():
            assert f'"{name}"' in dot
        assert '"A" -> "B";' in dot
        assert dot.startswith('digraph "diamond"')

    def test_checkpointed_tasks_highlighted(self, diamond_workflow):
        dot = workflow_to_dot(diamond_workflow, checkpoint_after=["B", "D"])
        assert dot.count("doubleoctagon") == 2

    def test_unknown_checkpoint_task_rejected(self, diamond_workflow):
        with pytest.raises(ValueError, match="unknown tasks"):
            workflow_to_dot(diamond_workflow, checkpoint_after=["Z"])

    def test_quotes_and_backslashes_are_escaped(self):
        workflow = Workflow(
            [Task('say "hi"', work=1.0), Task("b\\", work=2.0)],
            [('say "hi"', "b\\")],
            name='my "flow"',
        )
        dot = workflow_to_dot(workflow, checkpoint_after=['say "hi"'])
        assert dot.startswith('digraph "my \\"flow\\"" {')
        assert '  "say \\"hi\\"" [shape=doubleoctagon, label="say \\"hi\\"\\nw=1 C=0"];' in dot
        assert '  "say \\"hi\\"" -> "b\\\\";' in dot
        # Every quoted string closes on its own line once escapes are dropped.
        for line in dot.splitlines():
            assert re.sub(r"\\.", "", line).count('"') % 2 == 0, line
