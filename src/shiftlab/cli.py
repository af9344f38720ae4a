"""Batch experiment runner.

Scenarios are described by a JSON config (unknown keys rejected, all
defaults materialized into the resolved copy); command-line flags override
the scalar fields.  Every run writes its resolved config to
``config.resolved.json`` next to its outputs and prints only its path.
CSV files hold the bytes csv.writer would write (header row, '.' decimals,
newline line ends), streamed from columns.  A column whose cells come in
long runs of equal values is formatted once per run, as literal text in
the row template of each run's segment, and a large CSV is formatted on
every allowed CPU by forked helpers; orbit logs are JSON-lines, and all
files are written atomically.

Exit codes: 0 completed, 1 usage/config error, 2 refusal or violations.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import signal
import sys
import tempfile
import threading
import time

import numpy as np

from . import constructor as ctor
from . import criterion as crit
from . import density as dens
from .errors import ConstructionRefusedError, InvalidArgumentError, ShiftLabError
from .seqspace import (
    UNILATERAL,
    CoeffVector,
    SpaceSpec,
    c0,
    entire,
    linf_weakstar,
    lp,
)
from .shiftops import (
    BACKWARD,
    BergmanWeight,
    BilateralTableWeight,
    ConstantWeight,
    LogRatioWeight,
    OperatorSpec,
    RootRatioWeight,
    TableWeight,
    TMuWeight,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUSED = 2

MAX_GRID = 512
CSV_CHUNK_ROWS = 1 << 16
# write_csv formats fewer rows than this in one process.  Forking a
# 230 MB process and copying a helper's bytes back costs about 19 ms,
# which halving the work repays from about 2 * 19 ms / 0.26 us = 146k rows
# of int pairs (floats, at 1.7 us a row, repay it from 22k).  A steady
# column (CSV_RUN_ROWS) makes rows cheaper still.  Medians of 15 on
# 2 CPUs with 230 MB resident, serial against forked: rows shaped like
# jsets.csv (a steady class, a changing int) take 28 against 41 ms at
# 2^17 rows and 43 against 36 ms at 258k rows; density-profile rows
# (two ints, a float, none steady) take 238 against 143 ms at 2^17 and
# 433 against 279 ms at 2^18.  So the bar stays here: below 2^18, only
# rows that are mostly steady columns lose, by up to 13 ms.
CSV_FORK_ROWS = 1 << 17
# A numpy column with at most one run of equal cells per this many rows
# of a chunk is steady: its text is formatted once per run, in the row
# template of each segment of the chunk (see _csv_rows).  A segment costs
# 2-3 us, and a cell formatted once instead of on every row saves 55-130
# ns (bools, ints) to 0.4-1.1 us (floats), so 64 rows of the cheapest
# cells repay a segment.
CSV_RUN_ROWS = 64
_KIND_CODES = {"f": "%r", "i": "%d", "u": "%d", "b": "%s"}  # numpy dtype kind -> code
_TYPE_CODES = {float: "%r", int: "%d", bool: "%s"}


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def _check_keys(obj: dict, allowed: dict, where: str) -> dict:
    """Reject unknown keys; fill defaults.  ``allowed`` maps key ->
    default (``...`` marks a required key)."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")
    out = {}
    for key, default in allowed.items():
        if key in obj:
            out[key] = obj[key]
        elif default is ...:
            raise ConfigError(f"{where}: missing required key {key!r}")
        else:
            out[key] = default
    return out


def _complex(v) -> complex:
    """A config number: a real or an [re, im] pair."""
    if isinstance(v, list):
        re, im = v
        return complex(re, im)
    return complex(v)


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _convert(convert, value, where: str):
    """convert(value); a value it cannot take is a config error at ``where``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _optional(convert, cfg: dict, key: str):
    """cfg[key] converted as by ``_convert``, or None when it is None."""
    value = cfg[key]
    return None if value is None else _convert(convert, value, f"config.{key}")


def parse_weights(spec: dict, where: str = "weights"):
    spec = dict(spec or {})
    family = spec.pop("family", None)
    if family is None:
        raise ConfigError(f"{where}: missing 'family'")
    try:
        if family == "Constant":
            w = ConstantWeight(complex(spec.pop("value", 2.0)))
        elif family == "Bergman":
            w = BergmanWeight()
        elif family == "LogWeight":
            w = LogRatioWeight()
        elif family == "RootWeight":
            w = RootRatioWeight(int(spec.pop("p", 1)))
        elif family == "TMu":
            w = TMuWeight(_complex(spec.pop("mu", 1.0)))
        elif family == "Table":
            values = [complex(v) for v in spec.pop("values", [])]
            w = TableWeight(tuple(values), complex(spec.pop("default", 1.0)))
        elif family == "BilateralTable":
            entries = {int(k): complex(v) for k, v in spec.pop("entries", {}).items()}
            w = BilateralTableWeight(
                entries,
                complex(spec.pop("default_pos", 1.0)),
                complex(spec.pop("default_nonpos", 1.0)),
            )
        else:
            raise ConfigError(f"{where}: unknown weight family {family!r}")
    except (ShiftLabError, ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    if spec:
        raise ConfigError(f"{where}: unknown keys {sorted(spec)}")
    return w


def parse_space(spec: dict, where: str = "space") -> SpaceSpec:
    spec = _check_keys(
        spec or {},
        {"kind": "lp", "p": 2.0, "domain": UNILATERAL, "rmax": 8},
        where,
    )
    try:
        kind = spec["kind"]
        if kind == "lp":
            return lp(_convert(float, spec["p"], f"{where}.p"), spec["domain"])
        if kind == "c0":
            return c0(spec["domain"])
        if kind == "entire":
            return entire(_convert(int, spec["rmax"], f"{where}.rmax"))
        if kind == "linf_weakstar":
            return linf_weakstar()
    except ShiftLabError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown space kind {spec['kind']!r}")


def parse_vector(spec: dict, domain: str, where: str = "vector") -> CoeffVector:
    spec = _check_keys(spec or {}, {"basis": None, "entries": None}, where)
    if spec["basis"] is not None:
        return CoeffVector.basis(_convert(int, spec["basis"], f"{where}.basis"), domain)
    if spec["entries"] is not None:
        entries = _convert(lambda es: {int(k): _complex(v) for k, v in es.items()},
                           spec["entries"], f"{where}.entries")
        return CoeffVector(domain, entries)
    raise ConfigError(f"{where}: need 'basis' or 'entries'")


def parse_target(spec: dict, domain: str, where: str = "target"):
    spec = dict(spec or {})
    kind = spec.pop("kind", None)

    def num(convert, key, default):
        return _convert(convert, spec.pop(key, default), f"{where}.{key}")

    if kind == "ball":
        center = parse_vector(spec.pop("center", {}), domain, f"{where}.center")
        return ctor.BallTarget(center, num(float, "radius", 0.5))
    if kind == "modulus_exceeds":
        t = ctor.modulus_exceeds(num(int, "index", 1), num(float, "threshold", 1.0))
    elif kind == "modulus_ball":
        t = ctor.modulus_ball(num(float, "threshold", 0.5))
    elif kind == "weakstar":
        center = parse_vector(spec.pop("center", {}), domain, f"{where}.center")
        m = num(int, "functionals", 3)
        eps = num(float, "eps", 0.5)
        return ctor.WeakStarTarget(center, ctor.coordinate_functionals(m, domain), eps)
    else:
        raise ConfigError(f"{where}: unknown target kind {kind!r}")
    if spec:
        raise ConfigError(f"{where}: unknown keys {sorted(spec)}")
    return t


# ---------------------------------------------------------------------------
# atomic outputs
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file that replaces ``path`` only once it is fully written."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str, data: str):
    with _atomic_file(path) as fh:
        fh.write(data)


def _code(column) -> str | None:
    """The %-code that writes each cell of ``column`` as csv.writer would
    (ints and bools by str, floats by repr), or None for other cells."""
    if isinstance(column, np.ndarray):
        return _KIND_CODES.get(column.dtype.kind)
    kinds = set(map(type, column))
    return _TYPE_CODES.get(kinds.pop()) if len(kinds) == 1 else None


def _changes(column) -> np.ndarray:
    """Whether each cell of a numpy chunk after its first differs from the
    cell before it, compared as bytes: 0.0 next to -0.0 starts a new run
    of equal cells, and a run of NaNs stays one run."""
    if column.dtype.kind == "f":
        column = column.view(f"i{column.itemsize}")
    return column[1:] != column[:-1]


def _csv_rows(columns, lo: int, hi: int) -> str:
    """Rows lo..hi-1 of ``columns``, one chunk, as csv.writer writes them.
    A chunk of numeric columns is cut at each run start of its steady
    columns: numpy columns with at most one run of equal cells per
    CSV_RUN_ROWS rows.  Each segment is one %-format over the interleaved
    ``.tolist()`` values of the other columns, in a row template that holds
    each steady column's text, formatted once; a chunk without a steady
    column is one segment.  Any other chunk goes through csv.writer."""
    chunk = [c[lo:hi] for c in columns]
    codes = [_code(c) for c in chunk]
    if None in codes:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(zip(*chunk))
        return buf.getvalue()
    rows = hi - lo
    changes = {j: _changes(c) for j, c in enumerate(chunk) if isinstance(c, np.ndarray)}
    steady = {j for j, d in changes.items() if (np.count_nonzero(d) + 1) * CSV_RUN_ROWS <= rows}
    starts = [np.flatnonzero(changes[j]) + 1 for j in steady]
    cuts = np.unique(np.concatenate([[0, rows], *starts])).tolist()
    # each column's field in the row template of each segment
    fields = [[(code % v).replace("%", "%%") for v in c[cuts[:-1]].tolist()] if j in steady
              else [code] * (len(cuts) - 1) for j, (c, code) in enumerate(zip(chunk, codes))]
    free = [c.tolist() if isinstance(c, np.ndarray) else c
            for j, c in enumerate(chunk) if j not in steady]
    width = len(free)
    flat = [None] * (width * rows)
    for j, vals in enumerate(free):
        flat[j :: width] = vals
    flat = tuple(flat)
    return "".join((",".join(row) + "\n") * (b - a) % flat[a * width : b * width]
                   for a, b, row in zip(cuts, cuts[1:], zip(*fields)))


def _chunks(lo: int, hi: int):
    """The CSV_CHUNK_ROWS-row chunks of rows lo..hi-1, as (start, stop)."""
    return ((a, min(a + CSV_CHUNK_ROWS, hi)) for a in range(lo, hi, CSV_CHUNK_ROWS))


def _range_cuts(rows: int) -> list[int]:
    """Chunk-aligned row cuts, one range per process that formats rows:
    this one and a forked helper for each further allowed CPU.  A single
    range when the rows are few, forking is missing, or a second thread
    runs (fork is unsafe then)."""
    chunks = -(-rows // CSV_CHUNK_ROWS)
    if (rows < CSV_FORK_ROWS or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity") or threading.active_count() > 1):
        parts = 1
    else:
        parts = min(len(os.sched_getaffinity(0)), chunks)
    return [min(i * chunks // parts * CSV_CHUNK_ROWS, rows) for i in range(parts + 1)]


def _fork_helper(columns, lo: int, hi: int, helpers: list) -> None:
    """Fork a helper that formats rows lo..hi-1 and sends their UTF-8
    bytes, after an 8-byte length, down a pipe; append (pid, the pipe's
    read end as a binary file) to ``helpers``.  The helper closes every
    read end, so it gets EPIPE once its reader is gone, and it leaves by
    ``os._exit`` only, so it never flushes an inherited buffer or returns
    into the caller."""
    r, w = os.pipe()
    pipe = open(r, "rb")
    try:
        pid = os.fork()
    except BaseException:
        pipe.close()
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            for reader in [pipe] + [p for _, p in helpers]:
                reader.close()
            blocks = [_csv_rows(columns, a, b).encode("utf-8") for a, b in _chunks(lo, hi)]
            with open(w, "wb") as out:
                out.write(sum(map(len, blocks)).to_bytes(8, "little"))
                out.writelines(blocks)
            code = 0
        finally:
            os._exit(code)
    helpers.append((pid, pipe))
    os.close(w)


def _copy_helper(pipe, out) -> tuple[int, int]:
    """Copy a helper's bytes from ``pipe`` to the binary file ``out`` until
    the helper closes it; return (bytes copied, bytes announced)."""
    head = pipe.read(8)
    sent = 0
    while block := pipe.read1(1 << 20):
        out.write(block)
        sent += len(block)
    return sent, int.from_bytes(head, "little") if len(head) == 8 else -1


def write_csv(path: str, header, columns):
    """Write equal-length ``columns`` (numpy arrays or sequences) under a
    header row, CSV_CHUNK_ROWS rows at a time, in csv.writer's bytes (see
    ``_csv_rows``).  From CSV_FORK_ROWS rows on, with more than one allowed
    CPU and no second thread, the rows are split into contiguous
    chunk-aligned ranges, one per CPU: this process formats and writes the
    first, and a forked helper formats each other range and sends its bytes
    back, which are written in range order.  The bytes are those of the
    serial path.  A helper that fails or sends short makes write_csv raise,
    leaving ``path`` untouched; every helper is reaped before write_csv
    returns or raises, and killed first if the write failed."""
    rows = len(columns[0]) if len(columns) else 0
    cuts = _range_cuts(rows)
    helpers = []  # (pid, pipe) of each helper not yet reaped, in range order
    with _atomic_file(path) as fh:
        try:
            for lo, hi in zip(cuts[1:], cuts[2:]):
                _fork_helper(columns, lo, hi, helpers)
            csv.writer(fh, lineterminator="\n").writerow(header)
            for lo, hi in _chunks(0, cuts[1]):
                fh.write(_csv_rows(columns, lo, hi))
            fh.flush()
            while helpers:
                pid, pipe = helpers[0]
                sent, size = _copy_helper(pipe, fh.buffer)
                status = os.waitpid(pid, 0)[1]
                del helpers[0]
                pipe.close()
                if status != 0 or sent != size:
                    raise ChildProcessError(
                        f"CSV helper {pid}: wait status {status}, {sent} of {size} bytes")
        finally:  # on an error: stop and reap the helpers still listed
            for pid, pipe in helpers:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with contextlib.suppress(ChildProcessError):  # reaped just before the error
                    os.waitpid(pid, 0)
                pipe.close()


def write_jsonl(path: str, records):
    encode = json.JSONEncoder(sort_keys=True).encode
    lines = [encode(rec) for rec in records]
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def _indented_json(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` at indentation
    ``pad``, with the same bytes for JSON-loaded values (string keys).
    That call runs the pure-Python encoder, since the C one does not
    indent; here each list of scalars goes to the C encoder whole, with the
    line break and indentation as its item separator, and only dicts and
    nested lists recurse."""
    if not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = pad + "  "
    if isinstance(value, dict):
        body = (",\n" + inner).join(f"{json.dumps(key)}: {_indented_json(v, inner)}"
                                    for key, v in sorted(value.items()))
        return "{\n" + inner + body + "\n" + pad + "}"
    if any(isinstance(v, (dict, list, tuple)) for v in value):
        body = (",\n" + inner).join(_indented_json(v, inner) for v in value)
    else:
        body = json.dumps(value, separators=(",\n" + inner, ": "))[1:-1]
    return "[\n" + inner + body + "\n" + pad + "]"


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

_COMMON_DEFAULTS = {
    "scenario": ...,
    "out": ".",
    "horizon": 10**4,
}


def _resolve(config: dict, args, allowed_extra: dict) -> dict:
    """The config with defaults filled and flags applied, written to
    ``config.resolved.json`` in the output directory."""
    allowed = dict(_COMMON_DEFAULTS)
    allowed.update(allowed_extra)
    cfg = _check_keys(config, allowed, "config")
    for key in ("out", "horizon"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["horizon"] = _convert(int, cfg["horizon"], "config.horizon")
    path = os.path.join(cfg["out"], "config.resolved.json")
    atomic_write(path, _indented_json(cfg) + "\n")
    print(f"resolved config: {path}")
    return cfg


def run_density(config: dict, args) -> int:
    cfg = _resolve(config, args, {"times": ..., "q": 1, "burn_in": None})
    q = _convert(int, cfg["q"], "config.q")
    hs = dens.HitSet.from_iterable(cfg["times"], cfg["horizon"])
    est = dens.q_lower_density(hs, q, burn_in=_optional(int, cfg, "burn_in"))
    write_csv(os.path.join(cfg["out"], "density_profile.csv"), ["N", "count", "p_N"],
              est.profile.columns)
    print(
        f"q={est.q} lower-density estimate {est.value:.6g} "
        f"(burn-in {est.burn_in}, {len(hs)} hit times, horizon {hs.horizon})"
    )
    return EXIT_OK


def run_jsets(config: dict, args) -> int:
    cfg = _resolve(config, args, {"nseq": ..., "k": None})
    fam = dens.generate_jsets(_convert(_ints, cfg["nseq"], "config.nseq"),
                              _optional(int, cfg, "k"), cfg["horizon"])
    report = dens.verify_jsets(fam)
    pos, label = fam.walk.columns
    by_class = np.argsort(label, kind="stable")
    write_csv(os.path.join(cfg["out"], "jsets.csv"), ["class", "element"],
              [label[by_class], pos[by_class]])
    write_csv(
        os.path.join(cfg["out"], "jsets_densities.csv"),
        ["class", "density"],
        [np.arange(1, fam.k_classes + 1), np.array(report.class_densities)],
    )
    print(
        f"classes={fam.k_classes} elements={len(fam.walk)} "
        f"disjoint={report.disjoint} gap_violations={len(report.gap_violations)} "
        f"min_violations={len(report.min_bound_violations)}"
    )
    return EXIT_OK if report.ok else EXIT_REFUSED


def run_criterion(config: dict, args) -> int:
    cfg = _resolve(
        config,
        args,
        {
            "space": {},
            "weights": ...,
            "q": 1,
            "indices": [1, 2, 3, 4, 5],
            "max_exp": crit.DEFAULT_MAX_EXP,
        },
    )
    space = parse_space(cfg["space"])
    w = parse_weights(cfg["weights"])
    report = crit.qfhc_check(
        space,
        w,
        _convert(int, cfg["q"], "config.q"),
        _convert(_ints, cfg["indices"], "config.indices"),
        max_exp=_convert(int, cfg["max_exp"], "config.max_exp"),
    )
    write_csv(
        os.path.join(cfg["out"], "criterion.csv"),
        ["series", "verdict", "rule", "sum_estimate"],
        list(zip(*[(e.label, e.verdict.kind, e.verdict.rule, e.verdict.sum_estimate)
                   for e in report.entries])),
    )
    print(f"operator: {report.operator}\nspace: {report.space}\noverall: {report.overall}")
    return EXIT_OK if report.satisfied else EXIT_REFUSED


def run_construct(config: dict, args) -> int:
    cfg = _resolve(
        config,
        args,
        {"space": {}, "weights": ..., "q": 1, "k": 3, "n_max": 4096},
    )
    space = parse_space(cfg["space"])
    w = parse_weights(cfg["weights"])
    q, k, n_max = (_convert(int, cfg[key], f"config.{key}") for key in ("q", "k", "n_max"))
    targets = ctor.canonical_targets(k, w.domain)
    try:
        plan = ctor.build_vector(space, w, q, targets, horizon=cfg["horizon"], n_max=n_max)
    except ConstructionRefusedError as exc:
        print(f"construction refused: {exc}")
        if exc.report is not None:
            for e in exc.report.entries:
                print(f"  {e.label}: {e.verdict.kind} [{e.verdict.rule}]")
        return EXIT_REFUSED
    report = ctor.verify_eq33(plan)
    write_csv(
        os.path.join(cfg["out"], "candidate.csv"),
        ["index", "re", "im"],
        list(zip(*[(i, c.real, c.imag) for i, c in plan.candidate.entries.items()])),
    )
    write_csv(
        os.path.join(cfg["out"], "eq33.csv"),
        ["class", "m", "error", "bound", "ok"],
        [report.k, report.m, report.error, report.bound, report.passed],
    )
    for msg in plan.warnings:
        print(f"warning: {msg}")
    print(
        f"Nseq={plan.nseq} support={len(plan.candidate.entries)} "
        f"checks={len(report.m)} edge_times={len(report.edge_times)} "
        f"violations={np.count_nonzero(~report.passed)}"
    )
    return EXIT_OK if report.ok else EXIT_REFUSED


def run_orbit(config: dict, args) -> int:
    cfg = _resolve(
        config,
        args,
        {
            "space": {},
            "weights": ...,
            "vector": ...,
            "target": ...,
            "q": 1,
            "exponents": "linear",
            "direction": BACKWARD,
            "rotation": None,
            "power": 1,
            "burn_in": None,
        },
    )
    space = parse_space(cfg["space"])
    w = parse_weights(cfg["weights"])
    rotation = cfg["rotation"]
    op = OperatorSpec(
        w,
        cfg["direction"],
        rotation=1.0 if rotation is None else _convert(_complex, rotation, "config.rotation"),
        power=_convert(int, cfg["power"], "config.power"),
    )
    x = parse_vector(cfg["vector"], w.domain)
    target = parse_target(cfg["target"], w.domain)
    result = ctor.hit_experiment(
        space,
        op,
        x,
        target,
        exponents=cfg["exponents"],
        q=_convert(int, cfg["q"], "config.q"),
        horizon=cfg["horizon"],
        burn_in=_optional(int, cfg, "burn_in"),
    )
    write_jsonl(os.path.join(cfg["out"], "orbit_events.jsonl"), result.events)
    write_csv(os.path.join(cfg["out"], "hits.csv"), ["time"], [result.hits.array])
    growth = (
        f"bounded C={result.growth.constant:.6g}"
        if result.growth and result.growth.bounded
        else ("unbounded" if result.growth else "n/a (no hits)")
    )
    print(
        f"target {result.target}: {len(result.hits)} hits, "
        f"density {result.density.value:.6g}, growth {growth}"
    )
    return EXIT_OK


def run_weakstar(config: dict, args) -> int:
    cfg = _resolve(
        config,
        args,
        {
            "weights": ...,
            "vector": ...,
            "center": ...,
            "functionals": 3,
            "eps": 0.5,
            "burn_in": None,
        },
    )
    w = parse_weights(cfg["weights"])
    x = parse_vector(cfg["vector"], w.domain)
    center = parse_vector(cfg["center"], w.domain, "center")
    try:
        result = ctor.transfer_weakstar(
            w,
            x,
            ctor.coordinate_functionals(
                _convert(int, cfg["functionals"], "config.functionals"), w.domain
            ),
            center,
            eps=_convert(float, cfg["eps"], "config.eps"),
            horizon=cfg["horizon"],
            burn_in=_optional(int, cfg, "burn_in"),
        )
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
    write_jsonl(os.path.join(cfg["out"], "weakstar_events.jsonl"), result.events)
    write_csv(os.path.join(cfg["out"], "hits.csv"), ["time"], [result.hits.array])
    print(
        f"weak* target {result.target}: {len(result.hits)} hits, "
        f"density {result.density.value:.6g}"
    )
    return EXIT_OK


def run_sweep(config: dict, args) -> int:
    cfg = _resolve(
        config,
        args,
        {
            "space": {},
            "grid": ...,
            "q_values": ...,
            "indices": [0, 1, 2, 3, 4],
            "max_exp": crit.DEFAULT_MAX_EXP,
            "mode": "offsets",  # 'offsets' (scalar condition) or 'basis'
        },
    )
    grid = cfg["grid"]
    qs = _convert(_ints, cfg["q_values"], "config.q_values")
    if not grid or not qs:
        raise ConfigError("sweep grid and q_values must be nonempty")
    if len(grid) * len(qs) > MAX_GRID:
        print(f"sweep refused: grid size {len(grid) * len(qs)} exceeds {MAX_GRID}")
        return EXIT_REFUSED
    if cfg["mode"] not in ("offsets", "basis"):
        raise ConfigError(f"config.mode: unknown mode {cfg['mode']!r} (offsets or basis)")
    space = parse_space(cfg["space"])
    indices = _convert(_ints, cfg["indices"], "config.indices")
    max_exp = _convert(int, cfg["max_exp"], "config.max_exp")
    rows = []
    for wspec in grid:
        w = parse_weights(wspec)
        row = [w.describe()]
        for q in qs:
            if cfg["mode"] == "offsets":
                report = crit.unilateral_condition(w, space, q, indices, max_exp=max_exp)
            else:
                report = crit.qfhc_check(space, w, q, indices, max_exp=max_exp)
            row.append(report.overall)
        rows.append(row)
    write_csv(
        os.path.join(cfg["out"], "sweep.csv"),
        ["weights"] + [f"q={q}" for q in qs],
        list(zip(*rows)),
    )
    for row in rows:
        print("  ".join(str(c) for c in row))
    return EXIT_OK


SCENARIOS = {
    "density": run_density,
    "jsets": run_jsets,
    "criterion": run_criterion,
    "construct": run_construct,
    "orbit": run_orbit,
    "weakstar": run_weakstar,
    "sweep": run_sweep,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="Weighted-shift density, criterion, and orbit experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SCENARIOS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="JSON scenario config")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--horizon", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                print(
                    f"config error: {args.config}:{exc.lineno}:{exc.colno}: {exc.msg}",
                    file=sys.stderr,
                )
                return EXIT_USAGE
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(config, dict):
        print("config error: top level must be an object", file=sys.stderr)
        return EXIT_USAGE
    declared = config.get("scenario", args.command)
    if declared != args.command:
        print(
            f"config error: scenario {declared!r} does not match subcommand "
            f"{args.command!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    config["scenario"] = args.command
    start = time.monotonic()
    try:
        code = SCENARIOS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ShiftLabError, OverflowError) as exc:
        # OverflowError: a value past double range, e.g. an l^p norm of a
        # forward orbit whose coefficients outgrow floats
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    print(f"elapsed: {time.monotonic() - start:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
