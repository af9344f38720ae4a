"""The CI workflow parses, keeps its limits and installs the test extra."""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_workflow_parses_and_keeps_its_limits():
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as fh:
        wf = yaml.safe_load(fh)
    assert wf["concurrency"] == {"group": "${{ github.ref }}", "cancel-in-progress": True}
    job = wf["jobs"]["tests"]
    assert job["timeout-minutes"] == 30
    runs = {step.get("name"): step.get("run", "") for step in job["steps"]}
    assert '"numpy==2.4.*"' in runs["Install dependencies"]
    assert "pyyaml" in runs["Install dependencies"].split()
    assert "--durations=10" in runs["Tier-1 tests"]
    assert "perfbench/test_smoke.py" in runs["Benchmark smoke test"]



def _name(requirement: str) -> str:
    """The package name of a requirement such as '"numpy==2.4.*"'."""
    return re.split(r"[=<>!~\[ ]", requirement.strip('"'))[0].lower()


def test_workflow_installs_the_test_extra():
    yaml = pytest.importorskip("yaml")
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as fh:
        steps = yaml.safe_load(fh)["jobs"]["tests"]["steps"]
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    install = next(s["run"] for s in steps if s.get("name") == "Install dependencies")
    installed = {_name(arg) for arg in install.split("pip install", 1)[1].split()}
    runtime = {_name(dep) for dep in project["dependencies"]}
    assert installed - runtime == {_name(dep) for dep in project["optional-dependencies"]["test"]}
