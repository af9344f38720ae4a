"""Smoke test: every script under scripts/ runs to exit 0 on small inputs."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPTS = [
    ("bergman_criterion.py", []),
    ("build_candidate.py", ["--horizon", "2000"]),
    ("rootweight_sweep.py", ["--pmax", "1", "--qmax", "2", "--out", "{tmp}/sweep"]),
]


def test_every_script_is_covered():
    listed = {name for name, _ in SCRIPTS}
    assert listed == {f for f in os.listdir(os.path.join(ROOT, "scripts")) if f.endswith(".py")}


@pytest.mark.parametrize("name,args", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_exits_zero(name, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    # the tier-1 warning policy: an unguarded numpy overflow fails the run
    argv = [sys.executable, "-W", "error::RuntimeWarning",
            os.path.join(ROOT, "scripts", name)]
    argv += [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
