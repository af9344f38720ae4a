import json
import os

from shiftlab.cli import main


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

    def test_scenario_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"scenario": "jsets", "times": [1]})
        assert run(["density", "--config", cfg]) == 1

    def test_defaults_materialized_in_echo(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "c.json", {"scenario": "density", "times": [1, 4, 9]})
        assert run(["density", "--config", cfg, "--out", out, "--horizon", 9]) == 0
        echoed = json.loads((out / "config.resolved.json").read_text())
        assert echoed["horizon"] == 9
        assert echoed["tol"] == 1e-8
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
