"""Batch experiment runner.

Scenarios are described by a JSON config (unknown keys rejected, all
defaults materialized into the resolved copy); command-line flags override
the scalar fields.  Every run writes its resolved config to
``config.resolved.json`` next to its outputs and prints only its path.
CSV files hold the bytes csv.writer would write (header row, '.' decimals,
newline line ends), streamed from columns; orbit logs are JSON-lines, and
all files are written atomically.

Exit codes: 0 completed, 1 usage/config error, 2 refusal or violations.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import tempfile
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


def write_csv(path: str, header, columns):
    """Write equal-length ``columns`` (numpy arrays or sequences) under a
    header row, CSV_CHUNK_ROWS rows at a time.  A chunk of numeric columns
    is one %-format over its interleaved ``.tolist()`` values; any other
    chunk goes through csv.writer.  Both give csv.writer's bytes."""
    rows = len(columns[0]) if len(columns) else 0
    with _atomic_file(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for lo in range(0, rows, CSV_CHUNK_ROWS):
            chunk = [c[lo : lo + CSV_CHUNK_ROWS] for c in columns]
            codes = [_code(c) for c in chunk]
            if None in codes:
                writer.writerows(zip(*chunk))
                continue
            values = [c.tolist() if isinstance(c, np.ndarray) else c for c in chunk]
            flat = [None] * (len(values) * len(values[0]))
            for j, vals in enumerate(values):
                flat[j :: len(values)] = vals
            fh.write((",".join(codes) + "\n") * len(values[0]) % tuple(flat))


def write_jsonl(path: str, records):
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

_COMMON_DEFAULTS = {
    "scenario": ...,
    "out": ".",
    "horizon": 10**4,
    "tol": crit.DEFAULT_TOL,
}


def _resolve(config: dict, args, allowed_extra: dict) -> dict:
    """The config with defaults filled and flags applied, written to
    ``config.resolved.json`` in the output directory."""
    allowed = dict(_COMMON_DEFAULTS)
    allowed.update(allowed_extra)
    cfg = _check_keys(config, allowed, "config")
    for key in ("out", "horizon", "tol"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["horizon"] = _convert(int, cfg["horizon"], "config.horizon")
    cfg["tol"] = _convert(float, cfg["tol"], "config.tol")
    path = os.path.join(cfg["out"], "config.resolved.json")
    atomic_write(path, json.dumps(cfg, indent=2, sort_keys=True) + "\n")
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
        tol=cfg["tol"],
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
        list(zip(*[(c.k, c.m, c.error, c.bound, c.ok) for c in report.checks])),
    )
    for msg in plan.warnings:
        print(f"warning: {msg}")
    print(
        f"Nseq={plan.nseq} support={len(plan.candidate.entries)} "
        f"checks={len(report.checks)} edge_times={len(report.edge_times)} "
        f"violations={len(report.violations)}"
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
                report = crit.unilateral_condition(
                    w, space, q, indices, tol=cfg["tol"], max_exp=max_exp
                )
            else:
                report = crit.qfhc_check(
                    space, w, q, indices, tol=cfg["tol"], max_exp=max_exp
                )
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
        sp.add_argument("--tol", type=float, default=None)
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
