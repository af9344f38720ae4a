"""The CI workflow parses, keeps its limits, fails when src/shiftlab/
passes its line budget, gates on full-size benchmark
runs and a tiny criterion-grid run, compares full-size numeric CSVs with
csv.writer's bytes and JSON-lines logs with json.dumps's, shows a pull
request's golden report, benchmark output and line-count diffs without
failing on them and installs the test extra; pytest turns RuntimeWarnings,
ResourceWarnings and unraisable exceptions into errors; the benchmark's
tracer finds every name it wraps; Hypothesis draws the same examples on
every run; the constructor decides no series tail of its own; README names
no checker that the code does not have; importing the package loads no
process pool."""

import ast
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("budget, code", [(3551, 0), (100, 1)])
def test_line_budget_step_passes_here_and_fails_past_the_budget(budget, code):
    yaml = pytest.importorskip("yaml")
    if shutil.which("bash") is None:
        pytest.skip("needs bash")
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as fh:
        steps = yaml.safe_load(fh)["jobs"]["tests"]["steps"]
    script = next(s["run"] for s in steps if s.get("name") == "Line budget")
    done = subprocess.run(["bash", "-e", "-c", script.replace("3551", str(budget))],
                          cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == code
    assert ("over the budget of 100" in done.stdout) == bool(code)


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
    # the log shows each module's lines, and the step fails past the budget
    assert runs["Line budget"].splitlines() == [
        "wc -l src/shiftlab/*.py",
        "total=$(cat src/shiftlab/*.py | wc -l)",
        'if [ "$total" -gt 3551 ]; then echo "src/shiftlab/ has $total lines, '
        'over the budget of 3551"; exit 1; fi',
    ]
    assert "perfbench/test_smoke.py" in runs["Benchmark smoke test"]
    assert runs["Benchmark oracle self-check"] == "python3 perfbench/oracles.py"
    gate = runs["Benchmark gate"]
    # every workload at full size, and criterion-grid at --tiny as well
    assert ('for w in criterion-grid construct-verify orbit-density "criterion-grid --tiny"; do'
            in gate)
    assert "python3 perfbench/run.py --workload $w --seed 0 --seconds 1 --trace 0" in gate
    # each workload's ops:, oracle:, counters: and passes: lines go to the
    # log under its name, so a moved verdict or sum shows there, not only in
    # "correct", and so does the pass count that peak_rss_mb creeps with
    assert 'sed -nE "s/^(ops|oracle|counters|passes):/$w \\1:/p"' in gate
    # run.py exits 0 either way: the step must read "correct" off the last line
    assert "tail -n 1" in gate and '["correct"] is not True' in gate
    # full-size numeric CSVs against csv.writer and JSON-lines logs against
    # json.dumps: the script names its files
    assert (runs["Numeric CSV and JSON lines match csv.writer and json.dumps"]
            == "PYTHONPATH=src python3 tests/csv_bytes.py")
    with open(os.path.join(ROOT, "tests", "csv_bytes.py"), encoding="utf-8") as fh:
        script = fh.read()
    assert '"times": list(range(1, 10**6 + 1, 3))' in script
    assert '"nseq": [1, 2, 3, 4, 5], "horizon": 10**6' in script
    assert 'CHECKED = ("density_profile.csv", "jsets.csv", "bit_patterns.csv")' in script
    assert 'JSONL_CHECKED = ("orbit_events.jsonl", "bit_patterns.jsonl")' in script
    # the memory gate: the 10^6-event log streams within twice write_csv's
    # tracemalloc peak on the same columns
    assert "tracemalloc.start()" in script
    assert "streams = jsonl_peak <= 2 * csv_peak" in script
    assert "status |= not streams" in script
    assert "Numeric CSV matches csv.writer" not in runs
    assert "Forked CSV matches serial CSV" not in runs


def test_golden_diff_runs_on_pull_requests_and_never_fails():
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tests.yml"), encoding="utf-8") as fh:
        steps = yaml.safe_load(fh)["jobs"]["tests"]["steps"]
    step = next(s for s in steps if s.get("name") == "Golden report diff against the base commit")
    assert step["if"] == "github.event_name == 'pull_request'"
    # the one guard: no command of the step can fail the job
    assert step["continue-on-error"] is True
    lines = step["run"].strip().splitlines()
    assert lines[0] == 'base_sha="${{ github.event.pull_request.base.sha }}"'
    # only this step needs the base commit, so only it fetches it
    assert lines[1] == 'git fetch --depth=1 origin "$base_sha"'
    assert "with" not in steps[0]
    assert lines[2] == 'git worktree add --detach "$RUNNER_TEMP/base" "$base_sha"'
    # the base tree's and the head tree's report reprs, then their diff
    assert lines[3].startswith(
        '(cd "$RUNNER_TEMP/base" && PYTHONPATH=src python tests/test_goldens.py)')
    assert lines[4].startswith("PYTHONPATH=src python tests/test_goldens.py")
    # the benchmark's output digests on the base tree and on this one; the
    # script imports each tree's program and workloads itself
    assert lines[5] == (
        'python tests/bench_outputs.py "$RUNNER_TEMP/base" > "$RUNNER_TEMP/bench-base.txt"')
    assert lines[6] == 'python tests/bench_outputs.py . > "$RUNNER_TEMP/bench-head.txt"'
    # the package modules' line counts on the base tree and on this one
    assert lines[7] == (
        '(cd "$RUNNER_TEMP/base" && wc -l src/shiftlab/*.py) > "$RUNNER_TEMP/lines-base.txt"')
    assert lines[8] == 'wc -l src/shiftlab/*.py > "$RUNNER_TEMP/lines-head.txt"'
    # all three diffs print, whichever differs; a difference only sets the status
    assert lines[9:] == [
        "status=0",
        'diff "$RUNNER_TEMP/goldens-base.txt" "$RUNNER_TEMP/goldens-head.txt" || status=$?',
        'diff "$RUNNER_TEMP/bench-base.txt" "$RUNNER_TEMP/bench-head.txt" || status=$?',
        'diff "$RUNNER_TEMP/lines-base.txt" "$RUNNER_TEMP/lines-head.txt" || status=$?',
        'exit "$status"',
    ]
    assert os.path.isfile(os.path.join(ROOT, "tests", "bench_outputs.py"))


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


def test_runtime_warnings_fail_the_tests():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        options = tomllib.load(fh)["tool"]["pytest"]["ini_options"]
    assert "error::RuntimeWarning" in options["filterwarnings"]
    # an unclosed file fails the run too, also when it is only reported
    # at garbage collection
    assert "error::ResourceWarning" in options["filterwarnings"]
    assert "error::pytest.PytestUnraisableExceptionWarning" in options["filterwarnings"]


def _tracer():
    """A ``Tracer`` of perfbench/tracer.py, imported read-only."""
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    tracer_mod = types.ModuleType("perfbench_tracer")
    with open(path, encoding="utf-8") as fh:  # compiled here: no bytecode written
        exec(compile(fh.read(), path, "exec"), tracer_mod.__dict__)
    return tracer_mod.Tracer()


def test_tracer_wraps_names_that_exist():
    # perfbench/tracer.py looks up WeightSeq.warm/prefix/prefix_logmag and
    # reads WeightSeq._lm by name; a rename fails here, not only in the
    # benchmark's smoke run.
    import numpy as np

    from shiftlab.shiftops import BergmanWeight

    tracer = _tracer()
    with tracer.active():
        got = BergmanWeight().prefix_logmag(np.array([1, 3]))
    assert got.tolist() == BergmanWeight().prefix_logmag(np.array([1, 3])).tolist()
    metrics = tracer.pass_metrics()
    assert metrics["shiftops.prefix_bulk_points"][0] == 2
    assert metrics["shiftops.prefix_reach"][0] == 3


def test_traced_build_times_its_selection():
    # build_vector takes its thresholds from select_Nk, so the tracer's
    # constructor.select_s sees the selection, which runs the criterion once
    from shiftlab import constructor
    from shiftlab.seqspace import lp
    from shiftlab.shiftops import ConstantWeight

    tracer = _tracer()
    with tracer.active():
        constructor.build_vector(lp(2), ConstantWeight(2), 1,
                                 constructor.canonical_targets(2), horizon=100)
    metrics = tracer.pass_metrics()
    assert metrics["constructor.select_s"][0] > 0
    assert metrics["constructor.criterion_calls_per_build"][0] == 1.0


def test_constructor_reads_tails_from_the_criterion():
    # the certificates take the mass past their window from the series'
    # verdict, so the constructor imports none of the rule's parts
    with open(os.path.join(ROOT, "src", "shiftlab", "constructor.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "criterion"
                for alias in node.names}
    assert not imported & {"_class_tail", "_decide", "_past_head"}
    assert "_classify_weighted" in imported


def test_readme_names_only_existing_checkers():
    # a checker that README names, backticked as `name` or `name(...)`, is
    # one that shiftlab.criterion still has
    from shiftlab import criterion

    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        names = set(re.findall(r"`(?:[\w.]+\.)?(\w+_(?:check|condition))[`(]", fh.read()))
    assert {"qfhc_check", "unilateral_condition"} <= names
    assert sorted(n for n in names if not hasattr(criterion, n)) == []


def test_import_loads_no_process_pool():
    # setup_s is mostly a fresh interpreter's import of the package: the
    # writer's worker thread needs only threading, which numpy's import has
    # loaded, and nothing may pull in concurrent.futures (7.5 ms of imports)
    # or multiprocessing
    code = ("import shiftlab, shiftlab.cli, sys; "
            "print(*(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    assert done.stdout.split() == []


def test_hypothesis_examples_are_derandomized():
    # tests/conftest.py loads the profile; a test's own @settings keeps it
    from hypothesis import settings

    assert settings.default.derandomize is True
    assert settings(max_examples=5, deadline=None).derandomize is True
