"""Print a digest of every output of one seed-0 pass of the benchmark's
three workloads, run on the program of a given source tree.

    python tests/bench_outputs.py TREE

TREE is a checkout of this repository (``.`` for this one).  The program
is imported from ``TREE/src`` and the workloads from
``TREE/perfbench/workloads.py``, which is read and executed in place;
no bytecode is written, so TREE is left as it was.  Each job writes into
a temporary directory.  One line ``path<TAB>sha256`` is printed per
output file (the job's ``config.json`` input and its
``config.resolved.json`` echo aside) and per API value, hashed as its
``repr``; an operation that raised prints its error instead.  A plain
``diff`` of two trees' outputs shows which outputs a change moved.

This is a script, not a test module: pytest does not collect it.
"""

import hashlib
import os
import sys
import tempfile
import types

SEED = 0
SKIPPED = ("config.json", "config.resolved.json")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_workloads(tree: str) -> types.ModuleType:
    """``TREE/perfbench/workloads.py`` as a module, with TREE's program."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    path = os.path.join(tree, "perfbench", "workloads.py")
    module = types.ModuleType("workloads")
    module.__file__ = path
    sys.modules[module.__name__] = module  # its dataclasses look it up
    with open(path, encoding="utf-8") as fh:
        exec(compile(fh.read(), path, "exec"), module.__dict__)
    return module


def digest_lines(workloads: types.ModuleType, tmp: str):
    """``path<TAB>digest`` of every output of one pass of each workload."""
    for name, workload in workloads.WORKLOADS.items():
        workdir = os.path.join(tmp, name)
        for out in workload(SEED, workdir).run_pass():
            if out.error is not None:
                yield f"{name}/{out.name}\terror {out.error}"
            elif out.value is not None:
                yield f"{name}/{out.name}\t{_sha(repr(out.value).encode())}"
        for root, _, files in sorted(os.walk(workdir)):
            for file in sorted(set(files) - set(SKIPPED)):
                path = os.path.join(root, file)
                with open(path, "rb") as fh:
                    yield f"{os.path.relpath(path, tmp)}\t{_sha(fh.read())}"


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    workloads = load_workloads(os.path.abspath(argv[0]))
    with tempfile.TemporaryDirectory() as tmp:
        for line in digest_lines(workloads, tmp):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
