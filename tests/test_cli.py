import csv
import io
import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from shiftlab import cli
from shiftlab.cli import CSV_CHUNK_ROWS, _indented_json, main, write_csv, write_jsonl


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(argv):
    return main([str(a) for a in argv])


class TestConfigHandling:
    def test_missing_file(self, tmp_path, capsys):
        assert run(["density", "--config", tmp_path / "nope.json"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "scenario": "density",\n  oops\n}')
        assert run(["density", "--config", path]) == 1
        err = capsys.readouterr().err
        assert "bad.json:3" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"scenario": "density", "times": [1], "horizon": 10, "bogus": 1},
        )
        assert run(["density", "--config", cfg]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_dead_seed_key_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", {"scenario": "density", "times": [1], "seed": 0}
        )
        assert run(["density", "--config", cfg]) == 1
        assert "unknown key 'seed'" in capsys.readouterr().err

    def test_tol_key_and_flag_rejected(self, tmp_path, capsys):
        # verdicts come from asymptotic classes; no tolerance is configurable
        cfg = write_config(
            tmp_path, "c.json", {"scenario": "density", "times": [1, 2, 3], "tol": [1]}
        )
        assert run(["density", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == "config error: config: unknown key 'tol'\n"
        with pytest.raises(SystemExit):
            run(["density", "--config", cfg, "--tol", "1e-8"])

    def test_scenario_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"scenario": "jsets", "times": [1]})
        assert run(["density", "--config", cfg]) == 1

    def test_defaults_materialized_in_echo(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", {"scenario": "density", "times": [1, 4, 9]})
        assert run(["density", "--config", cfg, "--out", out, "--horizon", 9]) == 0
        echoed = json.loads((out / "config.resolved.json").read_text())
        assert echoed["horizon"] == 9
        assert echoed["q"] == 1

    def test_flag_overrides_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "density", "times": [1, 4, 9], "horizon": 1000},
        )
        assert run(["density", "--config", cfg, "--out", out, "--horizon", 9]) == 0
        echoed = json.loads((out / "config.resolved.json").read_text())
        assert echoed["horizon"] == 9


BALL = {"kind": "ball", "center": {"basis": 1}}
ORBIT = {"weights": {"family": "Constant", "value": 2}, "vector": {"basis": 3}}


@pytest.mark.parametrize("scenario, config, where", [
    ("density", {"times": [1, 2, 3], "q": "x"}, "config.q"),
    ("density", {"times": [1, 2, 3], "horizon": "h"}, "config.horizon"),
    ("density", {"times": [1, 2, 3], "horizon": 10, "burn_in": "x"}, "config.burn_in"),
    ("jsets", {"nseq": ["a", 2], "horizon": 100}, "config.nseq"),
    ("jsets", {"nseq": [1, 2], "k": "x", "horizon": 100}, "config.k"),
    ("orbit", dict(ORBIT, target=dict(BALL, radius="r")), "target.radius"),
    ("orbit", dict(ORBIT, target={"kind": "modulus_exceeds", "index": "i"}), "target.index"),
    ("orbit", dict(ORBIT, target=BALL, rotation=["a", "b"]), "config.rotation"),
    ("orbit", dict(ORBIT, target=BALL, rotation=[1]), "config.rotation"),
    ("orbit", dict(ORBIT, target=BALL, power=None), "config.power"),
    ("orbit", dict(ORBIT, target=BALL, burn_in=[2]), "config.burn_in"),
    ("weakstar", dict(ORBIT, center={"basis": 1}, burn_in="b"), "config.burn_in"),
    ("orbit", dict(ORBIT, target=BALL, vector={"entries": {"x": 1}}), "vector.entries"),
    ("orbit", dict(ORBIT, target=BALL, vector={"basis": "b"}), "vector.basis"),
    ("criterion", {"weights": {"family": "Bergman"}, "indices": ["a"]}, "config.indices"),
    ("criterion", {"weights": {"family": "Bergman"}, "space": {"p": "x"}}, "space.p"),
    ("criterion", {"weights": {"family": "Bergman"}, "space": {"kind": "entire", "rmax": "r"}},
     "space.rmax"),
    ("construct", {"weights": {"family": "Constant"}, "n_max": "n"}, "config.n_max"),
    ("weakstar", dict(ORBIT, center={"basis": 1}, eps="e"), "config.eps"),
    ("sweep", {"grid": [{"family": "Bergman"}], "q_values": ["q"]}, "config.q_values"),
    ("sweep", {"grid": [{"family": "Bergman"}], "q_values": [1], "max_exp": {}},
     "config.max_exp"),
    # malformed objects, at any depth
    ("criterion", {"weights": "Bergman"}, "weights"),
    ("criterion", {"weights": [["family", "Bergman"]]}, "weights"),
    ("criterion", {"weights": {"family": "Bergman"}, "space": "lp"}, "space"),
    ("orbit", dict(ORBIT, target="ball"), "target"),
    ("orbit", dict(ORBIT, target=BALL, vector=[0, 1]), "vector"),
    ("criterion", {"weights": {"family": "BilateralTable", "entries": [1, 2]}},
     "weights.entries"),
    ("criterion", {"weights": {"family": "Table", "values": 5}}, "weights.values"),
    ("sweep", {"grid": [{"family": "Bergman"}, "Bergman"], "q_values": [1]}, "config.grid[1]"),
])
def test_malformed_scalar_is_a_config_error(tmp_path, capsys, scenario, config, where):
    cfg = write_config(tmp_path, "c.json", dict(config, scenario=scenario))
    assert run([scenario, "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("scenario, config, where", [
    ("criterion", {"weights": {"family": "Constant", "bogus": 1}}, "weights"),
    ("criterion", {"weights": {"family": "Bergman"}, "space": {"bogus": 1}}, "space"),
    ("orbit", dict(ORBIT, target=dict(BALL, bogus=1)), "target"),
    ("orbit", dict(ORBIT, target=BALL, vector={"basis": 1, "bogus": 1}), "vector"),
])
def test_unknown_key_is_named_in_every_object(tmp_path, capsys, scenario, config, where):
    cfg = write_config(tmp_path, "c.json", dict(config, scenario=scenario))
    assert run([scenario, "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == f"config error: {where}: unknown key 'bogus'\n"


WEAKSTAR_TARGET = {"kind": "weakstar", "center": {"basis": 1}}


@pytest.mark.parametrize("scenario, config", [
    ("weakstar", dict(ORBIT, center={"basis": 1}, functionals=0)),
    ("orbit", dict(ORBIT, target=dict(WEAKSTAR_TARGET, functionals=0))),
    ("weakstar", dict(ORBIT, center={"basis": 1}, horizon=10, burn_in=50)),
    ("orbit", dict(ORBIT, target=WEAKSTAR_TARGET, horizon=10, burn_in=50)),
])
def test_refused_value_exits_two_in_every_scenario(tmp_path, capsys, scenario, config):
    cfg = write_config(tmp_path, "c.json", dict(config, scenario=scenario))
    assert run([scenario, "--config", cfg, "--out", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def readme_config_table() -> dict:
    """README's table of config keys: row label -> {key: default as JSON
    text, or None for a required key}."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    table = text[text.index("| Object | Keys and defaults |"):].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        label, keys = line.strip("| ").split(" | ")
        rows[label] = {k: d or None for k, d in re.findall(r"`([a-z_]+)(?:=([^`]*))?`", keys)}
    return rows


def test_readme_config_table_matches_declared_fields():
    def declared(fields):
        return {k: None if d is ... else json.dumps(d) for k, (d, _) in fields.items()}

    rows = readme_config_table()
    common = rows.pop("every scenario")
    got = {label: {**common, **keys} if label.strip("`") in cli.FIELDS else keys
           for label, keys in rows.items()}
    want = {f"`{name}`": declared(fields) for name, fields in cli.FIELDS.items()}
    want["`space`"] = declared(cli.SPACE_FIELDS)
    want["`vector`"] = declared(cli.VECTOR_FIELDS)
    for family, (_, fields) in cli.WEIGHT_FAMILIES.items():
        want[f"`weights` `{family}`"] = declared(fields)
    for kind, fields in cli.TARGET_KINDS.items():
        want[f"`target` `{kind}`"] = declared(fields)
    assert got == want


class TestScenarios:
    def test_density_profile_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "density",
                "times": [k * k for k in range(1, 11)],
                "horizon": 100,
                "q": 2,
            },
        )
        assert run(["density", "--config", cfg, "--out", out]) == 0
        lines = (out / "density_profile.csv").read_text().splitlines()
        assert lines[0] == "N,count,p_N"
        assert lines[1].startswith("1,1,")

    def test_jsets_outputs(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "jsets", "nseq": [5, 11], "horizon": 500},
        )
        assert run(["jsets", "--config", cfg, "--out", out]) == 0
        body = (out / "jsets.csv").read_text()
        assert body.splitlines()[0] == "class,element"
        dens = (out / "jsets_densities.csv").read_text().splitlines()
        assert len(dens) == 3

    def test_criterion_satisfies_exit_zero(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "criterion",
                "space": {"kind": "lp", "p": 2},
                "weights": {"family": "Bergman"},
                "q": 2,
                "indices": [1, 2, 3],
            },
        )
        assert run(["criterion", "--config", cfg, "--out", out]) == 0
        body = (out / "criterion.csv").read_text()
        assert "S-series j=1" in body

    def test_criterion_fails_exit_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "criterion",
                "weights": {"family": "Bergman"},
                "q": 1,
                "indices": [1, 2],
            },
        )
        assert run(["criterion", "--config", cfg, "--out", tmp_path / "o"]) == 2

    def test_criterion_with_an_overflowing_t_head_exits_zero(self, tmp_path):
        # the T-series head's terms 4^n pass double range before n = 1999:
        # it converges with an empty sum cell
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "criterion",
                "space": {"kind": "lp", "p": 2},
                "weights": {"family": "Constant", "value": 2},
                "q": 1,
                "indices": [2000],
            },
        )
        assert run(["criterion", "--config", cfg, "--out", out]) == 0
        rows = (out / "criterion.csv").read_text().splitlines()
        assert rows[1] == (
            "T-series j=2000,converges,terms eventually zero (backward shift falls off the edge),")
        assert rows[2].startswith("S-series j=2000,converges,")

    def test_criterion_past_the_geometric_tail_range_exits_zero(self, tmp_path):
        # the log ratio 2 log(1e160) = 736.8 is past e^x's double range:
        # every series converges, the S-series with its one term 1e-320
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {"scenario": "criterion", "weights": {"family": "Constant", "value": 1e160},
             "indices": [1]},
        )
        assert run(["criterion", "--config", cfg, "--out", out]) == 0
        rows = (out / "criterion.csv").read_text().splitlines()
        assert rows[2] == (
            "S-series j=1,converges,asymptotic class at n: coefficient -736.827 < 0,1e-320")

    def test_construct_past_the_geometric_tail_range_builds(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"scenario": "construct", "weights": {"family": "Constant", "value": 1e160}},
        )
        assert run(["construct", "--config", cfg, "--out", tmp_path / "o"]) == 0
        assert (tmp_path / "o" / "candidate.csv").exists()

    @pytest.mark.parametrize("max_exp, cell", [(4, ""), (12, "1.6123753486854908")])
    def test_criterion_short_scan_reports_no_power_law_sum(self, tmp_path, max_exp, cell):
        # Bergman on l^3: the terms (n + 1)^(-3/2) sum to zeta(1.5) - 1,
        # which a 16-term scan and its power-law tail miss by 2.5e-8
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {"scenario": "criterion", "space": {"kind": "lp", "p": 3},
             "weights": {"family": "Bergman"}, "indices": [0], "max_exp": max_exp},
        )
        assert run(["criterion", "--config", cfg, "--out", out]) == 0
        rows = (out / "criterion.csv").read_text().splitlines()
        assert rows[2] == ("S-series j=0,converges,"
                           f"asymptotic class at log n: coefficient -3/2 < -1,{cell}")

    def test_construct_and_refusal(self, tmp_path):
        ok_cfg = write_config(
            tmp_path,
            "ok.json",
            {
                "scenario": "construct",
                "weights": {"family": "Constant", "value": 2},
                "q": 1,
                "k": 2,
                "horizon": 1000,
            },
        )
        out = tmp_path / "out"
        assert run(["construct", "--config", ok_cfg, "--out", out]) == 0
        assert (out / "candidate.csv").exists()
        assert (out / "eq33.csv").read_text().splitlines()[0] == "class,m,error,bound,ok"

        bad_cfg = write_config(
            tmp_path,
            "bad.json",
            {
                "scenario": "construct",
                "weights": {"family": "Bergman"},
                "q": 1,
                "k": 1,
            },
        )
        assert run(["construct", "--config", bad_cfg, "--out", tmp_path / "o2"]) == 2

    def test_construct_past_the_certificate_reach_is_an_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"scenario": "construct", "weights": {"family": "Constant", "value": 2},
             "q": 9, "k": 2},
        )
        assert run(["construct", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "error: q=9 leaves 59 terms within the exact-index limit 2^53; "
            "the tail certificates need 64\n")
        assert not (tmp_path / "o" / "candidate.csv").exists()

    def test_construct_at_q4_builds(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {"scenario": "construct", "weights": {"family": "Constant", "value": 2},
             "q": 4, "k": 2},
        )
        assert run(["construct", "--config", cfg, "--out", tmp_path / "o"]) == 0
        assert (tmp_path / "o" / "candidate.csv").exists()

    def test_orbit_events_jsonl(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "orbit",
                "weights": {"family": "Constant", "value": 2},
                "vector": {"basis": 1},
                "target": {"kind": "ball", "center": {"basis": 1}, "radius": 0.1},
                "horizon": 10,
            },
        )
        assert run(["orbit", "--config", cfg, "--out", out]) == 0
        lines = (out / "orbit_events.jsonl").read_text().splitlines()
        assert len(lines) == 10
        rec = json.loads(lines[0])
        assert set(rec) == {"n", "exponent", "value", "hit"}
        assert (out / "hits.csv").read_text().splitlines()[0] == "time"

    def test_construct_with_a_steep_power_law_tail(self, tmp_path, capsys):
        # the tail fit's n_max^s leaves double range; the criterion holds
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "construct",
                "weights": {"family": "Constant", "value": 1.05},
                "k": 2,
                "horizon": 10000,
            },
        )
        assert run(["construct", "--config", cfg, "--out", tmp_path / "out"]) == 0
        out = capsys.readouterr().out
        assert "Nseq=(25, 39) support=156 checks=156" in out
        assert "violations=0" in out

    def test_orbit_of_a_vector_whose_phase_underflows(self, tmp_path):
        # arg(2 + 5e-324j) underflows; it is 0.0, not a math range error
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "orbit",
                "weights": {"family": "Bergman"},
                "vector": {"entries": {"1": [2.0, 5e-324], "3": [1.0, 0.0]}},
                "target": {"kind": "ball", "center": {"basis": 1}, "radius": 0.5},
                "horizon": 20,
            },
        )
        assert run(["orbit", "--config", cfg, "--out", out]) == 0
        assert (out / "hits.csv").read_text() == "time\n2\n"

    def test_orbit_overflow_is_an_error_not_a_traceback(self, tmp_path, capsys):
        # forward Constant(0.5) coefficients grow as 2^n; their l^2 norm
        # overflows a double long before the horizon
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "orbit",
                "weights": {"family": "Constant", "value": 0.5},
                "direction": "forward",
                "vector": {"basis": 1},
                "target": {"kind": "ball", "center": {"basis": 1}, "radius": 0.1},
                "horizon": 2000,
            },
        )
        assert run(["orbit", "--config", cfg, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("target", [
        {"kind": "ball", "center": {"basis": 1}, "radius": 0.1},
        {"kind": "modulus_exceeds", "index": 1, "threshold": 0.1},
    ])
    def test_orbit_power_past_int64_is_the_zero_orbit(self, tmp_path, target):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "orbit",
                "weights": {"family": "Constant", "value": 2},
                "vector": {"basis": 3},
                "target": target,
                "power": 2**70,
                "horizon": 10,
            },
        )
        assert run(["orbit", "--config", cfg, "--out", out]) == 0
        with (out / "orbit_events.jsonl").open() as fh:
            events = [json.loads(line) for line in fh]
        assert [e["exponent"] for e in events] == [n * 2**70 for n in range(1, 11)]
        assert not any(e["hit"] for e in events)
        assert (out / "hits.csv").read_text() == "time\n"

    def test_weakstar_scenario(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "weakstar",
                "weights": {"family": "Constant", "value": 2},
                "vector": {"entries": {"2": 0.5, "3": 0.25}},
                "center": {"entries": {"1": 1.0}},
                "functionals": 2,
                "eps": 2.0,
                "horizon": 20,
            },
        )
        assert run(["weakstar", "--config", cfg, "--out", out]) == 0
        assert (out / "weakstar_events.jsonl").exists()

    def test_sweep_matrix(self, tmp_path):
        # the benchmark's grid.  RootWeight(p) on l^2 has terms of order
        # n^(-q/p) (Bayart-Ruzsa), summable iff q >= p + 1
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "sweep",
                "space": {"kind": "lp", "p": 2},
                "grid": [{"family": "RootWeight", "p": p} for p in range(1, 11)],
                "q_values": list(range(1, 12)),
                "mode": "offsets",
                "max_exp": 20,
            },
        )
        assert run(["sweep", "--config", cfg, "--out", out]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["weights"] + [f"q={q}" for q in range(1, 12)]] + [
            [f"rootweight(p={p})"] + ["fails" if q <= p else "satisfies" for q in range(1, 12)]
            for p in range(1, 11)]

    def test_sweep_past_the_exact_index_limit_is_decided(self, tmp_path):
        # at q=54 the first term 1 + j is the only one within 2^53: the
        # asymptotic class decides without reading any
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "sweep",
                "space": {"kind": "lp", "p": 2},
                "grid": [{"family": "RootWeight", "p": 1}],
                "q_values": [1, 54],
            },
        )
        assert run(["sweep", "--config", cfg, "--out", out]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "weights,q=1,q=54"
        assert lines[1].endswith("fails,satisfies")

    @pytest.mark.parametrize("grid, space, message", [
        # 2 times a unitary shift on l^2(Z): no offset series can read it
        ([{"family": "BilateralTable", "default_pos": 2, "default_nonpos": 2}],
         {"kind": "lp", "p": 2},
         "error: bilateral weights on a unilateral space l^2 (unilateral)\n"),
        ([{"family": "Bergman"}], {"kind": "lp", "p": 2, "domain": "bilateral"},
         "error: unilateral condition reduces to unilateral lp or c0 only\n"),
    ], ids=["bilateral-family", "bilateral-space"])
    def test_sweep_across_domains_is_an_error(self, tmp_path, capsys, grid, space, message):
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "sweep", "space": space, "grid": grid, "q_values": [1, 2]},
        )
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o" / "sweep.csv").exists()

    @pytest.mark.parametrize("indices, named", [([-5], -5), ([-1, 0], -1)])
    def test_sweep_negative_offset_is_an_error(self, tmp_path, capsys, indices, named):
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "sweep", "grid": [{"family": "Bergman"}], "q_values": [1],
             "indices": indices},
        )
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            f"error: offset {named} is negative; a unilateral family needs j >= 0\n")
        assert not (tmp_path / "o" / "sweep.csv").exists()

    @pytest.mark.parametrize("mode", ["offset", "Basis", ""])
    def test_sweep_unknown_mode_is_a_config_error(self, tmp_path, capsys, mode):
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "sweep", "grid": [{"family": "RootWeight", "p": 1}],
             "q_values": [1], "mode": mode},
        )
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config.mode:")
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_criterion_misspelled_domain_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "criterion", "space": {"kind": "lp", "p": 2, "domain": "bilaterl"},
             "weights": {"family": "Bergman"}},
        )
        assert run(["criterion", "--config", cfg, "--out", tmp_path / "o"]) == 1
        assert "unknown domain 'bilaterl'" in capsys.readouterr().err

    def test_sweep_empty_grid_usage_error(self, tmp_path):
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "sweep", "grid": [], "q_values": [1]},
        )
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 1

    def test_sweep_empty_indices_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "sweep", "grid": [{"family": "RootWeight", "p": 1}],
             "q_values": [1], "indices": []},
        )
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "error: need at least one index" in capsys.readouterr().err

    def test_criterion_index_past_the_exact_index_limit_is_an_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "criterion", "weights": {"family": "Bergman"},
             "indices": [2**53 + 1]},
        )
        assert run(["criterion", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "error: index 9007199254740993 is past the exact-index limit 2^53\n")
        # an index past the former 2^22 reach is read
        cfg = write_config(
            tmp_path, "d.json",
            {"scenario": "criterion", "weights": {"family": "Bergman"}, "q": 2,
             "indices": [5000000]},
        )
        assert run(["criterion", "--config", cfg, "--out", tmp_path / "d"]) == 0
        rows = (tmp_path / "d" / "criterion.csv").read_text().splitlines()
        # the 2236-term T-series head is read whole, so it keeps its sum
        assert rows[1].startswith("T-series j=5000000,converges,") and rows[1][-1] != ","

    def test_criterion_anchor_past_the_precision_limit_is_an_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "criterion", "weights": {"family": "Constant", "value": 2},
             "indices": [2**40]},
        )
        assert run(["criterion", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: anchor 1099511627776: |P(1099511627776)| = 7.62123e+11 >= 2^27")

    def test_density_non_integral_time_is_an_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json", {"scenario": "density", "times": [1.7, 2, 3], "horizon": 10}
        )
        assert run(["density", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "error: hit times must be integers" in capsys.readouterr().err
        assert not (tmp_path / "o" / "density_profile.csv").exists()

    def test_sweep_too_large_refused(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "sweep",
                "grid": [{"family": "Constant", "value": 2}] * 200,
                "q_values": [1, 2, 3],
            },
        )
        assert run(["sweep", "--config", cfg, "--out", tmp_path / "o"]) == 2


class TestReproducibility:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "construct",
                "weights": {"family": "Constant", "value": 2},
                "q": 1,
                "k": 2,
                "horizon": 500,
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(["construct", "--config", cfg, "--out", out1]) == 0
        assert run(["construct", "--config", cfg, "--out", out2]) == 0
        for name in ("candidate.csv", "eq33.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_echoed_config_round_trips(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "criterion",
                "weights": {"family": "Bergman"},
                "q": 2,
                "indices": [1, 2],
            },
        )
        out1 = tmp_path / "a"
        assert run(["criterion", "--config", cfg, "--out", out1]) == 0
        echoed = out1 / "config.resolved.json"
        out2 = tmp_path / "b"
        # re-running from the echoed config must resolve identically
        assert run(["criterion", "--config", echoed, "--out", out2]) == 0
        a = json.loads(echoed.read_text())
        b = json.loads((out2 / "config.resolved.json").read_text())
        a["out"], b["out"] = None, None
        assert a == b
        assert (out1 / "criterion.csv").read_bytes() == (out2 / "criterion.csv").read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "density", "times": [1, 2], "horizon": 9},
        )
        assert run(["density", "--config", cfg, "--out", out]) == 0
        assert not [p for p in os.listdir(out) if p.startswith(".tmp-")]


class TestResolvedConfigEcho:
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
        max_leaves=20,
    )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(json_values)
    def test_indented_json_matches_json_dumps(self, value):
        assert _indented_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_dict_and_list_subclasses_in_a_list_recurse(self):
        class Record(dict):
            pass

        class Row(list):
            pass

        value = {"rows": [Record(b=[1, 2], a=None), Row([3, Record()]), 4.5, "s", Row()]}
        assert _indented_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_stdout_names_the_file_only(self, tmp_path, capsys):
        times = list(range(1, 200_001, 2))  # 1e5 hit times
        cfg = write_config(
            tmp_path, "c.json", {"scenario": "density", "times": times, "horizon": 200_000}
        )
        out = tmp_path / "out"
        assert run(["density", "--config", cfg, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert len(stdout.encode()) < 1024
        path = out / "config.resolved.json"
        assert f"resolved config: {path}" in stdout.splitlines()
        echoed = json.loads(path.read_text())
        assert echoed == {
            "scenario": "density", "out": str(out), "horizon": 200_000,
            "times": times, "q": 1, "burn_in": None,
        }


def csv_writer_bytes(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


TRICKY_STRINGS = [
    "plain", "", " ", "a,b", 'say "hi"', '"', "line\nbreak", "cr\rret", "crlf\r\n",
    "tab\tsep", "semi;colon", "é ünïcode", "trailing,", ",", '""', "'single'",
]
TRICKY_FLOATS = [
    0.1, 1 / 3, -0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
    2.2250738585072014e-308, 1e-310, 1e16, 1e22, 123456789012345.6, 1.7976931348623157e308,
]
TRICKY_INTS = [0, -1, 2**53, 2**53 + 1, -(2**63), 2**63 - 1, 2**64 + 7, 10**30]


@st.composite
def run_columns(draw):
    """Up to six columns of one length: int64, uint64, bool and float64
    numpy columns made of runs of repeated cells (0.0 next to -0.0, NaN,
    infinities and subnormals among the floats), a float column that
    changes on every row and a Python-list column, in any order."""
    rows = draw(st.integers(1, 150))

    def runs(cells, dtype):
        values = draw(st.lists(cells, min_size=1, max_size=6))
        lengths = draw(st.lists(st.integers(1, 60), min_size=len(values),
                                max_size=len(values)))
        return np.resize(np.repeat(np.array(values, dtype=dtype), lengths), rows)

    floats = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                              5e-324, 1e-310, 2.2250738585072014e-308]) | st.floats()
    make = [
        lambda: runs(st.integers(-(2**63), 2**63 - 1), np.int64),
        lambda: runs(st.integers(0, 2**64 - 1), np.uint64),
        lambda: runs(st.booleans(), bool),
        lambda: runs(floats, np.float64),
        lambda: np.sqrt(np.arange(rows)) + draw(st.floats(0, 1)),
        lambda: runs(st.integers(-(2**70), 2**70), object).tolist(),
    ]
    picks = draw(st.lists(st.sampled_from(range(len(make))), min_size=1, max_size=6))
    return [make[j]() for j in picks]


def bits_to_floats(bits) -> np.ndarray:
    return np.array(bits, dtype=np.uint64).view(np.float64)


def float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


# the digit kernel covers 1e-4 <= |x| < 1e15; repr writes the rest
KERNEL_EDGES = [float(np.nextafter(x, to)) for x in (1e-4, 1e15, 1e16)
                for to in (0.0, x, np.inf)]
SPECIAL_FLOATS = (
    [2.0**j for j in range(-20, 51)] + KERNEL_EDGES
    # just below powers of ten, where log10 can round up to the power
    + [float(np.nextafter(10.0**j, 0.0)) for j in range(-3, 16)]
    + [0.1 + 0.2, 9.999999999999999e14, 5e-324, 1e-310, 2.2250738585072014e-308,
       float(np.nextafter(2.2250738585072014e-308, 0.0)), 0.0, -0.0,
       float("nan"), float("inf"), float("-inf")]
)
SPECIAL_COLUMNS = [
    np.array(SPECIAL_FLOATS + [-v for v in SPECIAL_FLOATS]),
    np.resize(np.array([-(2**63), 2**63 - 1, 0, -1, 10**4, 9999]), 2 * len(SPECIAL_FLOATS)),
    np.resize(np.array([2**64 - 1, 0, 2**63], dtype=np.uint64), 2 * len(SPECIAL_FLOATS)),
    np.resize(np.array([True, False, False]), 2 * len(SPECIAL_FLOATS)),
]


# the special floats by kind, each written on its own
TINY = 2.2250738585072014e-308
SPECIAL_KINDS = {
    "powers of two": [2.0**j for j in range(-1074, 1024)],
    "kernel edges": KERNEL_EDGES,
    "below powers of ten": [float(np.nextafter(10.0**j, 0.0)) for j in range(-6, 18)],
    "short and long digits": [0.1 + 0.2, 0.3, 1 / 3, 2 / 3, 9.999999999999999e14, 123.0,
                              123456789012345.6, 1.7976931348623157e308],
    "subnormals": [5e-324, 1e-310, TINY, float(np.nextafter(TINY, 0.0))],
    "zeros and non-finite": [0.0, -0.0, float("nan"), float("inf"), float("-inf")],
}


@st.composite
def bit_pattern_columns(draw):
    """A float64 column of raw uint64 bit patterns, in runs of up to 5
    equal cells: any pattern, or one in the kernel's range of either sign;
    and int64, uint64 and bool columns of the same length."""
    in_range = st.integers(float_bits(1e-4) - 8, float_bits(1e15) + 8)
    bits = draw(st.lists(in_range | in_range.map(lambda b: b | 1 << 63)
                         | st.integers(0, 2**64 - 1), min_size=1, max_size=60))
    lengths = draw(st.lists(st.integers(1, 5), min_size=len(bits), max_size=len(bits)))
    floats = np.repeat(bits_to_floats(bits), lengths)
    n = len(floats)
    ints = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    uints = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return [floats, np.array(ints, np.int64), np.array(uints, np.uint64), np.array(flags)]


class TestWriteCsvMatchesCsvWriter:
    def check(self, tmp_path, header, columns):
        """write_csv's bytes equal csv.writer's on the same cells as
        Python scalars, also when every numeric chunk, however short,
        takes the numpy route."""
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        want = csv_writer_bytes(header, rows).encode("utf-8")
        path = tmp_path / "t.csv"
        for writer_rows in (cli._WRITER_ROWS, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "_WRITER_ROWS", writer_rows)
                write_csv(str(path), header, columns)
            assert path.read_bytes() == want

    def test_string_cells(self, tmp_path):
        n = len(TRICKY_STRINGS)
        self.check(tmp_path, ["s", "rev", "i"],
                   [TRICKY_STRINGS, TRICKY_STRINGS[::-1], list(range(n))])

    def test_one_column_empty_cells_are_quoted(self, tmp_path):
        self.check(tmp_path, ["s"], [TRICKY_STRINGS])
        self.check(tmp_path, [""], [["", "x", ""]])

    def test_numeric_cells_as_lists_and_arrays(self, tmp_path):
        floats = TRICKY_FLOATS
        bools = [i % 3 == 0 for i in range(len(floats))]
        ints = (TRICKY_INTS * 2)[: len(floats)]
        self.check(tmp_path, ["f", "b", "i"], [floats, bools, ints])
        in64 = [i for i in TRICKY_INTS if -(2**63) <= i < 2**63]
        self.check(tmp_path, ["f", "b"], [np.array(floats), np.array(bools)])
        unsigned = np.array([0, 1, 2**53 + 1, 2**63, 2**64 - 1, 7], dtype=np.uint64)
        self.check(tmp_path, ["i", "u"], [np.array(in64), unsigned])

    def test_narrow_numpy_dtypes(self, tmp_path):
        n = 300
        self.check(tmp_path, ["i8", "u16", "f32", "f16"],
                   [np.arange(n, dtype=np.int8) - 100, np.arange(n, dtype=np.uint16) * 200,
                    np.float32(1 / 3) * np.arange(n, dtype=np.float32),
                    np.arange(n, dtype=np.float16) / 7])

    def test_mixed_object_cells(self, tmp_path):
        cells = [None, 1.5, "a,b", True, 7, -0.0, float("nan"), "", 2**70, (1, 2)]
        self.check(tmp_path, ["mixed", "pad"], [cells, ["p"] * len(cells)])

    def test_header_only_and_chunk_edges(self, tmp_path):
        self.check(tmp_path, ["a", "b,c"], [[], []])
        for n in (CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, 2 * CSV_CHUNK_ROWS + 1):
            ns = np.arange(n)
            self.check(tmp_path, ["n", "x"], [ns, np.sqrt(ns)])
        # numeric chunks and a last chunk with a None: each chunk picks its writer
        xs = np.sqrt(ns).tolist()
        xs[-1] = None
        self.check(tmp_path, ["n", "x"], [ns, xs])

    def test_a_chunk_with_a_none_mid_chunk(self, tmp_path, monkeypatch):
        # 23 rows in 5-row chunks: numeric chunks, a chunk whose None sits
        # mid-chunk and a last chunk of 3 rows
        monkeypatch.setattr(cli, "CSV_CHUNK_ROWS", 5)
        xs = np.sqrt(np.arange(23)).tolist()
        xs[12] = None
        self.check(tmp_path, ["n", "x"], [np.arange(23), xs])
        strings = [f"r{i}" if i % 4 else f"r,{i}\n" for i in range(23)]
        self.check(tmp_path, ["s", "n"], [strings, np.arange(23)])

    def test_never_forks(self, tmp_path, monkeypatch):
        def refuse():
            raise AssertionError("write_csv forked")

        monkeypatch.setattr(os, "fork", refuse)
        ns = np.arange(3 * CSV_CHUNK_ROWS)
        self.check(tmp_path, ["n", "x"], [ns, np.sqrt(ns)])

    # 14 rows in 13-row chunks: runs on both sides of the chunk edge, and a
    # one-row second chunk
    @example(columns=[np.array([0.0] * 5 + [-0.0] * 4 + [float("nan")] * 5),
                      np.array([True] * 13 + [False]), np.full(14, 2**64 - 1, np.uint64)],
             chunk_rows=13)
    @example(columns=[np.array([-0.0] * 13 + [0.0]), np.arange(14)], chunk_rows=13)
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=run_columns(), chunk_rows=st.integers(1, 40))
    def test_runs_of_equal_cells(self, tmp_path, columns, chunk_rows):
        # small chunks put run starts and one-row chunks on both sides of
        # chunk edges
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
            self.check(tmp_path, [f"c{j}" for j in range(len(columns))], columns)

    @example(columns=SPECIAL_COLUMNS, chunk_rows=7)
    @example(columns=SPECIAL_COLUMNS, chunk_rows=CSV_CHUNK_ROWS)
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=bit_pattern_columns(), chunk_rows=st.integers(1, 64))
    def test_float_bit_patterns(self, tmp_path, columns, chunk_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
            self.check(tmp_path, ["x", "i", "u", "b"], columns)

    @pytest.mark.parametrize("values", SPECIAL_KINDS.values(), ids=SPECIAL_KINDS)
    def test_special_floats_by_kind(self, tmp_path, values):
        # either sign, in runs of three equal cells, in 7-row chunks that
        # split the runs, 300-row ones and the default
        column = np.repeat(np.array(values + [-v for v in values]), 3)
        for chunk_rows in (7, 300, CSV_CHUNK_ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
                self.check(tmp_path, ["x", "i"], [column, np.arange(len(column))])

    def test_powers_of_two_in_range_take_the_kernel(self):
        # 2^-13, ..., 2^49: the kernel's own digits, not repr's; every power
        # of two outside [1e-4, 1e15) falls back
        x = np.ldexp(1.0, np.arange(-1074, 1024))
        c, kt, exact, _ = cli._shortest(x.copy())
        in_range = (x >= 1e-4) & (x < 1e15)
        assert in_range.sum() == 63 and exact[in_range].all() and not exact[~in_range].any()
        for ci, ki, xi in zip(c[in_range].tolist(), kt[in_range].tolist(), x[in_range].tolist()):
            assert float(f"{ci}e-{ki}") == xi

    def test_the_kernel_range_in_bulk(self, tmp_path):
        # 2^17 bit patterns spread over the digit kernel's range, either sign,
        # with a column of their 17-digit neighbours' ratios
        rng = np.random.default_rng(7)
        bits = rng.integers(float_bits(1e-4), float_bits(1e15), 1 << 17, dtype=np.uint64)
        bits[::2] |= np.uint64(1 << 63)
        ratios = rng.integers(1, 10**6, 1 << 17) / rng.integers(1, 10**6, 1 << 17)
        self.check(tmp_path, ["x", "r"], [bits.view(np.float64), ratios])


# JSON spells these floats NaN, Infinity and -Infinity, and writes the rest
# of them, outside the digit kernel's range, by repr
JSON_FLOATS = SPECIAL_KINDS["zeros and non-finite"] + SPECIAL_KINDS["subnormals"] + KERNEL_EDGES


@st.composite
def event_columns(draw):
    """The columns (n, exponent, value, hit) of one length, 0, 1, just
    below _WRITER_ROWS or any up to 700 rows, in runs of equal cells: int64
    cells at the extremes or anywhere, an exponent column that may hold
    Python ints past int64, float64 cells from raw bit patterns or the
    special floats, and bools."""
    rows = draw(st.sampled_from([0, 1, cli._WRITER_ROWS - 1]) | st.integers(0, 700))

    def runs(cells, dtype):
        values = draw(st.lists(cells, min_size=1, max_size=8))
        lengths = draw(st.lists(st.integers(1, 90), min_size=len(values),
                                max_size=len(values)))
        return np.resize(np.repeat(np.array(values, dtype=dtype), lengths), rows)

    ints = st.sampled_from([-(2**63), 2**63 - 1, 0, -1]) | st.integers(-(2**63), 2**63 - 1)
    exponents = (st.integers(2**63, 2**70), object) if draw(st.booleans()) else (ints, np.int64)
    bits = runs(st.integers(0, 2**64 - 1) | st.sampled_from(JSON_FLOATS).map(float_bits),
                np.uint64)
    return [runs(ints, np.int64), runs(*exponents), bits.view(np.float64),
            runs(st.booleans(), bool)]


class TestWriteJsonlMatchesJsonDumps:
    # a numeric chunk of exactly _WRITER_ROWS rows, then a 1-row chunk that
    # goes to json.dumps
    @example(columns=[np.arange(257), np.full(257, -(2**63)),
                      np.resize(np.array(JSON_FLOATS), 257), np.arange(257) % 3 == 0],
             chunk_rows=256)
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(columns=event_columns(),
           chunk_rows=st.sampled_from([7, CSV_CHUNK_ROWS]) | st.integers(1, 600))
    def test_event_columns(self, tmp_path, columns, chunk_rows):
        # the columns in the event log's order; each line is json.dumps of
        # its record with sorted keys, also when every chunk, however
        # short, takes the row kernel
        keys = ("n", "exponent", "value", "hit")
        want = "".join(json.dumps(dict(zip(keys, row)), sort_keys=True) + "\n"
                       for row in zip(*(c.tolist() for c in columns)))
        path = tmp_path / "events.jsonl"
        for writer_rows in (cli._WRITER_ROWS, 0):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "CSV_CHUNK_ROWS", chunk_rows)
                mp.setattr(cli, "_WRITER_ROWS", writer_rows)
                write_jsonl(str(path), keys, columns)
            assert path.read_text(encoding="utf-8") == want
