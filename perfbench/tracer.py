"""Timing and counting wrappers for the benchmark's traced run.

``Tracer.active()`` replaces, for the duration of a pass, every public
module-level function of the six shiftlab layers, wherever the package
holds a reference to it (so ``constructor.iterate`` and
``criterion.fnorm`` are wrapped as well as ``shiftops.iterate`` and
``seqspace.fnorm``), plus the methods that carry a layer's work:
``WeightSeq.warm/prefix/prefix_logmag``, ``CoeffVector.__init__`` and
``HitSet.__init__/from_iterable``.  On exit the originals are restored.

Each wrapped call is a span.  Self time is the span's duration minus the
durations of the wrapped calls made inside it.  Every call is
aggregated per function and per caller-callee edge; raw spans are kept
for calls at stack depth <= SPAN_DEPTH (scenario and layer entry calls),
up to MAX_SPANS, and written with the aggregates by ``write``.  Per-
element weight methods (``weight``, ``log_weight``) are not wrapped:
their cost shows in the bulk prefix time of the call that made them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import statistics
import sys
from time import perf_counter

import numpy as np

LAYERS = ("shiftops", "criterion", "constructor", "seqspace", "density", "cli")
SPAN_DEPTH = 3
MAX_SPANS = 50_000
PREFIX_METHODS = ("warm", "prefix", "prefix_logmag")

# function -> groups.  A group's time is that of its outermost calls, so
# nested members (iterate -> orbit_entries) are not counted twice.
GROUPS = {
    "shiftops.WeightSeq.warm": ("prefix_bulk",),
    "shiftops.WeightSeq.prefix_logmag": ("prefix_bulk",),
    "shiftops.orbit_entries": ("orbit",),
    "shiftops.iterate": ("orbit",),
    "criterion.classify_magnitudes": ("series",),
    "criterion.classify_sup_decay": ("series",),
    "criterion.classify_limit_infinite": ("series",),
    "constructor.build_vector": ("build",),
    "density.HitSet.__init__": ("hitset",),
    "density.HitSet.from_iterable": ("hitset",),
    "cli.parse_weights": ("parse",),
    "cli.parse_space": ("parse",),
    "cli.parse_vector": ("parse",),
    "cli.parse_target": ("parse",),
    "cli.atomic_write": ("write",),
    "cli.write_csv": ("write", "csv"),
    "cli.write_jsonl": ("write", "jsonl"),
}
# groups whose outermost-call durations are kept for percentiles
TIMED_GROUPS = ("orbit", "series")


def _cache_len(w) -> int:
    return len(w._lm) + len(getattr(w, "_lm_neg", ()))


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


class Tracer:
    def __init__(self):
        self.mods = {name: importlib.import_module(f"shiftlab.{name}") for name in LAYERS}
        self.fnorm = self.mods["seqspace"].fnorm
        self.request = ""
        self.targets = self._targets()
        self.names = [t[2] for t in self.targets]
        self.layer_of = [LAYERS.index(n.split(".")[0]) for n in self.names]
        self.pass_log = []
        self.spans = []
        self.spans_dropped = 0
        self._reset()

    # -- what gets wrapped ---------------------------------------------
    def _targets(self):
        """(owner, attribute, name, original, is_classmethod) for each target."""
        out = []
        for layer, mod in self.mods.items():
            for attr, obj in sorted(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    out.append((mod, attr, f"{layer}.{attr}", obj, False))
        ws = self.mods["shiftops"].WeightSeq
        for attr in PREFIX_METHODS:
            out.append((ws, attr, f"shiftops.WeightSeq.{attr}", ws.__dict__[attr], False))
        cv = self.mods["seqspace"].CoeffVector
        out.append((cv, "__init__", "seqspace.CoeffVector.__init__",
                    cv.__dict__["__init__"], False))
        hs = self.mods["density"].HitSet
        out.append((hs, "__init__", "density.HitSet.__init__", hs.__dict__["__init__"], False))
        out.append((hs, "from_iterable", "density.HitSet.from_iterable",
                    hs.__dict__["from_iterable"].__func__, True))
        return out

    @contextlib.contextmanager
    def active(self):
        """Install the wrappers for one pass; restore the originals after."""
        self._reset()
        wrappers = {}
        patched = []
        for fid, (owner, attr, name, orig, is_cm) in enumerate(self.targets):
            wrap = self._wrap(fid, orig, self._hook(name))
            if inspect.isclass(owner):
                patched.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, classmethod(wrap) if is_cm else wrap)
            else:
                wrappers[id(orig)] = (orig, wrap)
        # module-level functions: replace every reference inside the package,
        # including dispatch tables such as cli.SCENARIOS
        patched_items = []
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "shiftlab" or modname.startswith("shiftlab.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        hit = wrappers.get(id(val))
                        if hit is not None and hit[0] is val:
                            patched_items.append((obj, key, val))
                            obj[key] = hit[1]
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(patched):
                setattr(owner, attr, orig)
            for table, key, orig in patched_items:
                table[key] = orig

    def set_request(self, name: str):
        self.request = name

    # -- recording -----------------------------------------------------
    def _reset(self):
        n = len(self.targets)
        self.fstats = [[0, 0.0, 0.0, 0] for _ in range(n)]  # calls, incl, self, errors
        self.edges = {}
        self.layer_depth = [0] * len(LAYERS)
        self.layer_errors = [0] * len(LAYERS)
        self.group_depth = {}
        self.group_stats = {}  # group -> [outermost calls, time]
        self.group_durations = {g: [] for g in TIMED_GROUPS}
        self.counts = dict.fromkeys(
            ("bulk_points", "reach", "bytes", "orbit_terms", "terms_requested",
             "decided", "criterion_in_build", "eq33_checks", "nonvacuous",
             "orbit_times", "vector_entries", "profile_points", "jset_elements",
             "bytes_written", "rows_written"), 0)
        self.stack = []

    def _wrap(self, fid, fn, hook):
        tracer = self
        name = self.names[fid]
        li = self.layer_of[fid]
        groups = GROUPS.get(name, ())
        st = self.fstats[fid]
        pre = _cache_len if name.startswith("shiftops.WeightSeq.") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            ld = tracer.layer_depth[li]
            tracer.layer_depth[li] = ld + 1
            gdepth = tracer.group_depth
            outer = []
            for g in groups:
                d = gdepth.get(g, 0)
                gdepth[g] = d + 1
                outer.append(d == 0)
            parent = stack[-1] if stack else None
            frame = [0.0, fid, -1]  # child time, function, span id
            if len(stack) < SPAN_DEPTH:
                if len(tracer.spans) < MAX_SPANS:
                    frame[2] = len(tracer.spans)
                    tracer.spans.append(None)
                else:
                    tracer.spans_dropped += 1
            stack.append(frame)
            state = pre(args[0]) if pre else None
            t0 = perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if not ok:
                    st[3] += 1
                    if ld == 0:
                        tracer.layer_errors[li] += 1
                tracer.layer_depth[li] = ld
                for g, top in zip(groups, outer):
                    gdepth[g] -= 1
                    if top:
                        gs = tracer.group_stats.setdefault(g, [0, 0.0])
                        gs[0] += 1
                        gs[1] += dt
                        if g in tracer.group_durations:
                            tracer.group_durations[g].append(dt)
                pfid = parent[1] if parent else -1
                if parent:
                    parent[0] += dt
                e = tracer.edges.get((pfid, fid))
                if e is None:
                    tracer.edges[(pfid, fid)] = [1, dt]
                else:
                    e[0] += 1
                    e[1] += dt
                if frame[2] >= 0:
                    tracer.spans[frame[2]] = (
                        frame[2], parent[2] if parent else -1, tracer.request,
                        name, t0, t1,
                    )
            if hook is not None:
                hook(args, kwargs, result, state)
            return result

        return wrapper

    def _hook(self, name):
        """Per-function counting at the layer boundary, or None."""
        c = self.counts

        if name.startswith("shiftops.WeightSeq."):
            method = name.rsplit(".", 1)[1]

            def hook(args, kwargs, result, before):
                c["bytes"] += 16 * (_cache_len(args[0]) - before)
                if method == "prefix":
                    reach = abs(args[1])
                elif method == "warm":
                    nmin = args[2] if len(args) > 2 else kwargs.get("nmin", 0)
                    c["bulk_points"] += max(0, args[1]) + max(0, -nmin)
                    reach = max(args[1], -nmin)
                else:
                    points = np.asarray(args[1])
                    c["bulk_points"] += points.size
                    reach = int(np.abs(points).max(initial=0))
                c["reach"] = max(c["reach"], reach)
            return hook
        if name == "shiftops.orbit_entries":
            def hook(args, kwargs, result, _):
                c["orbit_terms"] += len(result)
            return hook
        if name in ("criterion.classify_magnitudes", "criterion.classify_sup_decay"):
            def hook(args, kwargs, result, _):
                c["terms_requested"] += int(args[1] if len(args) > 1 else kwargs["n_max"])
                c["decided"] += result.kind != "inconclusive"
            return hook
        if name == "criterion.classify_limit_infinite":
            def hook(args, kwargs, result, _):
                c["terms_requested"] += len(args[0])
                c["decided"] += result.kind != "inconclusive"
            return hook
        if name == "criterion.qfhc_check":
            def hook(args, kwargs, result, _):
                c["criterion_in_build"] += self.group_depth.get("build", 0) > 0
            return hook
        if name == "constructor.verify_eq33":
            def hook(args, kwargs, result, _):
                plan = args[0]
                norms = [self.fnorm(plan.space, x) for x in plan.targets]
                c["eq33_checks"] += len(result.checks)
                c["nonvacuous"] += sum(ch.bound < norms[ch.k - 1] for ch in result.checks)
            return hook
        if name == "constructor.hit_experiment":
            def hook(args, kwargs, result, _):
                c["orbit_times"] += len(result.events)
            return hook
        if name == "seqspace.CoeffVector.__init__":
            def hook(args, kwargs, result, _):
                c["vector_entries"] += len(args[0].entries)
            return hook
        if name in ("density.q_lower_density", "density.q_density_via_ranks"):
            def hook(args, kwargs, result, _):
                c["profile_points"] += len(result.profile)
            return hook
        if name == "density.generate_jsets":
            def hook(args, kwargs, result, _):
                c["jset_elements"] += len(result.walk)
            return hook
        if name == "cli.atomic_write":
            def hook(args, kwargs, result, _):
                data = args[1]
                c["bytes_written"] += len(data)
                if self.group_depth.get("csv", 0):
                    c["rows_written"] += data.count("\n") - 1
                elif self.group_depth.get("jsonl", 0):
                    c["rows_written"] += data.count("\n")
            return hook
        return None

    # -- metrics -------------------------------------------------------
    def pass_metrics(self) -> dict:
        """Per-layer metrics of the pass just traced."""
        c = self.counts
        by_name = {n: st for n, st in zip(self.names, self.fstats)}

        def calls(n):
            return by_name[n][0]

        def incl(*ns):
            return sum(by_name[n][1] for n in ns)

        def selft(*ns):
            return sum(by_name[n][2] for n in ns)

        def group(g, i=1):
            return self.group_stats.get(g, [0, 0.0])[i]

        orbit_d = self.group_durations["orbit"]
        series_d = self.group_durations["series"]
        builds = calls("constructor.build_vector")
        m = {
            "shiftops.prefix_bulk_s": (group("prefix_bulk"), "s"),
            "shiftops.prefix_bulk_points": (c["bulk_points"], "count"),
            "shiftops.prefix_reach": (c["reach"], "index"),
            "shiftops.prefix_bytes_computed": (c["bytes"], "B"),
            "shiftops.prefix_scalar_calls": (calls("shiftops.WeightSeq.prefix"), "count"),
            "shiftops.prefix_scalar_s": (incl("shiftops.WeightSeq.prefix"), "s"),
            "shiftops.orbit_calls": (group("orbit", 0), "count"),
            "shiftops.orbit_terms": (c["orbit_terms"], "count"),
            "shiftops.orbit_s": (group("orbit"), "s"),
            "shiftops.orbit_us_p50": (1e6 * _pct(orbit_d, 50), "us"),
            "shiftops.orbit_us_p99": (1e6 * _pct(orbit_d, 99), "us"),
            "criterion.series": (group("series", 0), "count"),
            "criterion.terms_requested": (c["terms_requested"], "count"),
            "criterion.scan_s": (selft("criterion.classify_magnitudes",
                                       "criterion.classify_sup_decay",
                                       "criterion.classify_limit_infinite"), "s"),
            "criterion.check_s": (self._layer_top_time("criterion"), "s"),
            "criterion.series_ms_p50": (1e3 * _pct(series_d, 50), "ms"),
            "criterion.series_ms_p90": (1e3 * _pct(series_d, 90), "ms"),
            "criterion.decided_frac": (c["decided"] / max(1, group("series", 0)), "1"),
            "constructor.select_s": (incl("constructor.select_Nk"), "s"),
            "constructor.build_s": (incl("constructor.build_vector")
                                    - incl("constructor.select_Nk"), "s"),
            "constructor.verify_s": (incl("constructor.verify_eq33"), "s"),
            "constructor.criterion_calls_per_build": (
                c["criterion_in_build"] / builds if builds else 0.0, "1"),
            "constructor.eq33_checks": (c["eq33_checks"], "count"),
            "constructor.nonvacuous_frac": (c["nonvacuous"] / max(1, c["eq33_checks"]), "1"),
            "constructor.hit_s": (incl("constructor.hit_experiment"), "s"),
            "constructor.orbit_times": (c["orbit_times"], "count"),
            "seqspace.fnorm_calls": (calls("seqspace.fnorm"), "count"),
            "seqspace.fnorm_s": (incl("seqspace.fnorm"), "s"),
            "seqspace.vector_builds": (calls("seqspace.CoeffVector.__init__"), "count"),
            "seqspace.vector_entries": (c["vector_entries"], "count"),
            "seqspace.vector_build_s": (incl("seqspace.CoeffVector.__init__"), "s"),
            "density.profile_s": (incl("density.q_lower_density",
                                       "density.q_density_via_ranks"), "s"),
            "density.profile_points": (c["profile_points"], "count"),
            "density.hitset_s": (group("hitset"), "s"),
            "density.jsets_gen_s": (incl("density.generate_jsets"), "s"),
            "density.jsets_verify_s": (incl("density.verify_jsets"), "s"),
            "density.jset_elements": (c["jset_elements"], "count"),
            "cli.parse_s": (selft("cli.main") + group("parse"), "s"),
            "cli.write_s": (group("write"), "s"),
            "cli.bytes_written": (c["bytes_written"], "B"),
            "cli.rows_written": (c["rows_written"], "count"),
        }
        for li, layer in enumerate(LAYERS):
            m[f"{layer}.self_s"] = (
                sum(st[2] for st, l2 in zip(self.fstats, self.layer_of) if l2 == li), "s")
            m[f"{layer}.errors"] = (self.layer_errors[li], "count")
        self.pass_log.append({
            "functions": {n: {"calls": st[0], "incl_s": st[1], "self_s": st[2],
                              "errors": st[3]}
                          for n, st in zip(self.names, self.fstats) if st[0]},
            "edges": [[self.names[p] if p >= 0 else None, self.names[f], e[0], e[1]]
                      for (p, f), e in sorted(self.edges.items())],
        })
        return m

    def _layer_top_time(self, layer):
        """Inclusive time of calls into a layer from outside it."""
        li = LAYERS.index(layer)
        total = 0.0
        for (p, f), e in self.edges.items():
            if self.layer_of[f] == li and (p < 0 or self.layer_of[p] != li):
                total += e[1]
        return total

    @staticmethod
    def summarize(per_pass: list[dict]) -> dict:
        """Median over traced passes of each metric."""
        return {k: (statistics.median(p[k][0] for p in per_pass), per_pass[0][k][1])
                for k in per_pass[0]}

    def write(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = [s for s in self.spans if s is not None]
        t0 = min((s[4] for s in spans), default=0.0)
        payload = {
            "passes": self.pass_log,
            "spans": [
                {"id": s[0], "parent": s[1], "request": s[2], "name": s[3],
                 "start_s": s[4] - t0, "end_s": s[5] - t0}
                for s in spans
            ],
            "spans_dropped": self.spans_dropped,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
