"""Batch experiment runner.

Scenarios are described by a JSON config (unknown keys rejected, all
defaults materialized into the echoed copy); command-line flags override
the scalar fields.  Every run writes its resolved config next to its
outputs, CSV files use a header row, '.' decimals and newline line ends,
orbit logs are JSON-lines, and all files are written atomically.

Exit codes: 0 completed, 1 usage/config error, 2 refusal or violations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time

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
            mu = spec.pop("mu", 1.0)
            if isinstance(mu, list):
                mu = complex(mu[0], mu[1])
            w = TMuWeight(complex(mu))
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
            return lp(float(spec["p"]), spec["domain"])
        if kind == "c0":
            return c0(spec["domain"])
        if kind == "entire":
            return entire(int(spec["rmax"]))
        if kind == "linf_weakstar":
            return linf_weakstar()
    except ShiftLabError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown space kind {spec['kind']!r}")


def parse_vector(spec: dict, domain: str, where: str = "vector") -> CoeffVector:
    spec = _check_keys(spec or {}, {"basis": None, "entries": None}, where)
    if spec["basis"] is not None:
        return CoeffVector.basis(int(spec["basis"]), domain)
    if spec["entries"] is not None:
        entries = {}
        for k, v in spec["entries"].items():
            entries[int(k)] = complex(v[0], v[1]) if isinstance(v, list) else complex(v)
        return CoeffVector(domain, entries)
    raise ConfigError(f"{where}: need 'basis' or 'entries'")


def parse_target(spec: dict, domain: str, where: str = "target"):
    spec = dict(spec or {})
    kind = spec.pop("kind", None)
    if kind == "ball":
        center = parse_vector(spec.pop("center", {}), domain, f"{where}.center")
        return ctor.BallTarget(center, float(spec.pop("radius", 0.5)))
    if kind == "modulus_exceeds":
        t = ctor.modulus_exceeds(int(spec.pop("index", 1)), float(spec.pop("threshold", 1.0)))
    elif kind == "modulus_ball":
        t = ctor.modulus_ball(float(spec.pop("threshold", 0.5)))
    elif kind == "weakstar":
        center = parse_vector(spec.pop("center", {}), domain, f"{where}.center")
        m = int(spec.pop("functionals", 3))
        eps = float(spec.pop("eps", 0.5))
        return ctor.WeakStarTarget(center, ctor.coordinate_functionals(m, domain), eps)
    else:
        raise ConfigError(f"{where}: unknown target kind {kind!r}")
    if spec:
        raise ConfigError(f"{where}: unknown keys {sorted(spec)}")
    return t


# ---------------------------------------------------------------------------
# atomic outputs
# ---------------------------------------------------------------------------


def atomic_write(path: str, data: str):
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write(path, buf.getvalue())


def write_jsonl(path: str, records):
    lines = [json.dumps(rec, sort_keys=True) for rec in records]
    atomic_write(path, "\n".join(lines) + ("\n" if lines else ""))


def _fmt(x: float) -> str:
    return repr(float(x))


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
    allowed = dict(_COMMON_DEFAULTS)
    allowed.update(allowed_extra)
    cfg = _check_keys(config, allowed, "config")
    for key in ("out", "horizon", "tol"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg["horizon"] = int(cfg["horizon"])
    cfg["tol"] = float(cfg["tol"])
    return cfg


def _echo(cfg: dict, out_dir: str):
    payload = json.dumps(cfg, indent=2, sort_keys=True)
    atomic_write(os.path.join(out_dir, "config.resolved.json"), payload + "\n")
    print("resolved config:")
    print(payload)


def run_density(config: dict, args) -> int:
    cfg = _resolve(
        config,
        args,
        {"times": ..., "q": 1, "burn_in": None},
    )
    out = cfg["out"]
    _echo(cfg, out)
    hs = dens.HitSet.from_iterable(cfg["times"], cfg["horizon"])
    est = dens.q_lower_density(hs, int(cfg["q"]), burn_in=cfg["burn_in"])
    write_csv(
        os.path.join(out, "density_profile.csv"),
        ["N", "count", "p_N"],
        [(n, c, _fmt(p)) for n, c, p in est.profile],
    )
    print(
        f"q={est.q} lower-density estimate {est.value:.6g} "
        f"(burn-in {est.burn_in}, {len(hs)} hit times, horizon {hs.horizon})"
    )
    return EXIT_OK


def run_jsets(config: dict, args) -> int:
    cfg = _resolve(config, args, {"nseq": ..., "k": None})
    out = cfg["out"]
    _echo(cfg, out)
    fam = dens.generate_jsets(cfg["nseq"], cfg["k"], cfg["horizon"])
    report = dens.verify_jsets(fam)
    rows = []
    for k, cls in enumerate(fam.classes, start=1):
        for v in cls:
            rows.append((k, v))
    write_csv(os.path.join(out, "jsets.csv"), ["class", "element"], rows)
    write_csv(
        os.path.join(out, "jsets_densities.csv"),
        ["class", "density"],
        [(k + 1, _fmt(d)) for k, d in enumerate(report.class_densities)],
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
    out = cfg["out"]
    _echo(cfg, out)
    space = parse_space(cfg["space"])
    w = parse_weights(cfg["weights"])
    report = crit.qfhc_check(
        space,
        w,
        int(cfg["q"]),
        [int(j) for j in cfg["indices"]],
        tol=cfg["tol"],
        max_exp=int(cfg["max_exp"]),
    )
    write_csv(
        os.path.join(out, "criterion.csv"),
        ["series", "verdict", "rule", "sum_estimate"],
        [
            (
                e.label,
                e.verdict.kind,
                e.verdict.rule,
                _fmt(e.verdict.sum_estimate) if e.verdict.sum_estimate is not None else "",
            )
            for e in report.entries
        ],
    )
    print(f"operator: {report.operator}\nspace: {report.space}\noverall: {report.overall}")
    return EXIT_OK if report.satisfied else EXIT_REFUSED


def run_construct(config: dict, args) -> int:
    cfg = _resolve(
        config,
        args,
        {"space": {}, "weights": ..., "q": 1, "k": 3, "n_max": 4096},
    )
    out = cfg["out"]
    _echo(cfg, out)
    space = parse_space(cfg["space"])
    w = parse_weights(cfg["weights"])
    targets = ctor.canonical_targets(int(cfg["k"]), w.domain)
    try:
        plan = ctor.build_vector(
            space, w, int(cfg["q"]), targets,
            horizon=cfg["horizon"], n_max=int(cfg["n_max"]),
        )
    except ConstructionRefusedError as exc:
        print(f"construction refused: {exc}")
        if exc.report is not None:
            for e in exc.report.entries:
                print(f"  {e.label}: {e.verdict.kind} [{e.verdict.rule}]")
        return EXIT_REFUSED
    report = ctor.verify_eq33(plan)
    write_csv(
        os.path.join(out, "candidate.csv"),
        ["index", "re", "im"],
        [(i, _fmt(c.real), _fmt(c.imag)) for i, c in plan.candidate.entries.items()],
    )
    write_csv(
        os.path.join(out, "eq33.csv"),
        ["class", "m", "error", "bound", "ok"],
        [(c.k, c.m, _fmt(c.error), _fmt(c.bound), c.ok) for c in report.checks],
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
    out = cfg["out"]
    _echo(cfg, out)
    space = parse_space(cfg["space"])
    w = parse_weights(cfg["weights"])
    rot = cfg["rotation"]
    if isinstance(rot, list):
        rot = complex(rot[0], rot[1])
    op = OperatorSpec(
        w,
        cfg["direction"],
        rotation=complex(rot) if rot is not None else 1.0,
        power=int(cfg["power"]),
    )
    x = parse_vector(cfg["vector"], w.domain)
    target = parse_target(cfg["target"], w.domain)
    result = ctor.hit_experiment(
        space,
        op,
        x,
        target,
        exponents=cfg["exponents"],
        q=int(cfg["q"]),
        horizon=cfg["horizon"],
        burn_in=cfg["burn_in"],
    )
    write_jsonl(os.path.join(out, "orbit_events.jsonl"), result.events)
    write_csv(
        os.path.join(out, "hits.csv"),
        ["time"],
        [(t,) for t in result.hits.times],
    )
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
    out = cfg["out"]
    _echo(cfg, out)
    w = parse_weights(cfg["weights"])
    x = parse_vector(cfg["vector"], w.domain)
    center = parse_vector(cfg["center"], w.domain, "center")
    try:
        result = ctor.transfer_weakstar(
            w,
            x,
            ctor.coordinate_functionals(int(cfg["functionals"]), w.domain),
            center,
            eps=float(cfg["eps"]),
            horizon=cfg["horizon"],
            burn_in=cfg["burn_in"],
        )
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
    write_jsonl(os.path.join(out, "weakstar_events.jsonl"), result.events)
    write_csv(os.path.join(out, "hits.csv"), ["time"], [(t,) for t in result.hits.times])
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
    out = cfg["out"]
    _echo(cfg, out)
    grid = cfg["grid"]
    qs = [int(q) for q in cfg["q_values"]]
    if not grid or not qs:
        raise ConfigError("sweep grid and q_values must be nonempty")
    if len(grid) * len(qs) > MAX_GRID:
        print(f"sweep refused: grid size {len(grid) * len(qs)} exceeds {MAX_GRID}")
        return EXIT_REFUSED
    space = parse_space(cfg["space"])
    indices = [int(j) for j in cfg["indices"]]
    rows = []
    for wspec in grid:
        w = parse_weights(wspec)
        row = [w.describe()]
        for q in qs:
            if cfg["mode"] == "offsets":
                report = crit.unilateral_condition(
                    w, space, q, indices, tol=cfg["tol"], max_exp=int(cfg["max_exp"])
                )
            else:
                report = crit.qfhc_check(
                    space, w, q, indices, tol=cfg["tol"], max_exp=int(cfg["max_exp"])
                )
            row.append(report.overall)
        rows.append(row)
    write_csv(
        os.path.join(out, "sweep.csv"),
        ["weights"] + [f"q={q}" for q in qs],
        rows,
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
