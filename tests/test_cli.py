import csv
import io
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.cli import CSV_CHUNK_ROWS, _indented_json, main, write_csv


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
])
def test_malformed_scalar_is_a_config_error(tmp_path, capsys, scenario, config, where):
    cfg = write_config(tmp_path, "c.json", dict(config, scenario=scenario))
    assert run([scenario, "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where}: ")
    assert "Traceback" not in err


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
             "q": 4, "k": 2},
        )
        assert run(["construct", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "error: q=4 leaves 53 terms within the 2^23 prefix reach; "
            "the tail certificates need 64\n")
        assert not (tmp_path / "o" / "candidate.csv").exists()

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
        events = [json.loads(line) for line in (out / "orbit_events.jsonl").open()]
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
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "sweep",
                "space": {"kind": "lp", "p": 2},
                "grid": [
                    {"family": "RootWeight", "p": 1},
                    {"family": "RootWeight", "p": 2},
                ],
                "q_values": [1, 2, 3],
            },
        )
        assert run(["sweep", "--config", cfg, "--out", out]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "weights,q=1,q=2,q=3"
        assert lines[1].endswith("fails,satisfies,satisfies")
        assert lines[2].endswith("fails,fails,satisfies")

    def test_sweep_past_the_prefix_reach_is_decided(self, tmp_path):
        # at q=23 the second term 2^23 + j lies past the 2^22 reach: the
        # asymptotic class decides without reading it
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "scenario": "sweep",
                "space": {"kind": "lp", "p": 2},
                "grid": [{"family": "RootWeight", "p": 1}],
                "q_values": [1, 23],
            },
        )
        assert run(["sweep", "--config", cfg, "--out", out]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "weights,q=1,q=23"
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

    def test_criterion_index_past_the_reach_is_an_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "c.json",
            {"scenario": "criterion", "weights": {"family": "Bergman"}, "indices": [5000000]},
        )
        assert run(["criterion", "--config", cfg, "--out", tmp_path / "o"]) == 2
        assert "error: index 5000000 is past the 2^22 prefix reach" in capsys.readouterr().err

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


class TestWriteCsvMatchesCsvWriter:
    def check(self, tmp_path, header, columns):
        """write_csv's bytes equal csv.writer's on the same cells as
        Python scalars."""
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        path = tmp_path / "t.csv"
        write_csv(str(path), header, columns)
        assert path.read_bytes() == csv_writer_bytes(header, rows).encode("utf-8")

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
