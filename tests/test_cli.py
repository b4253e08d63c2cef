import json
import math
import os

from suspshift.cli import main


GOLDEN = {"kind": "sft", "alphabet_size": 2, "forbidden": ["11"]}
FULL2 = {"kind": "sft", "alphabet_size": 2, "adjacency": [[1, 1], [1, 1]]}
STURMIAN = {"kind": "sturmian", "alpha": {"a": "-1", "b": "1", "d": 2}}
ROOT2_FLOW = {
    "base": STURMIAN,
    "roof": {"window": 0,
             "table": {"0": {"a": "0", "b": "1", "d": 2},
                       "1": {"a": "0", "b": "1", "d": 2}}},
}


def run_cli(tmp_path, command, config, seed=0, name="cfg.json"):
    cfg_path = tmp_path / name
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--seed", str(seed),
                 "--out", str(out)])
    return code, out


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    return lines


def test_entropy_golden_mean(tmp_path):
    code, out = run_cli(tmp_path, "entropy",
                        {"system": GOLDEN, "parameters": {"horizon": 20}})
    assert code == 0
    lines = read_csv(out / "entropy.csv")
    assert lines[0].startswith("config_hash,")
    values = dict(l.split(",") for l in lines[2:])
    phi = (1 + math.sqrt(5)) / 2
    assert abs(float(values["perron"]) - math.log(phi)) < 1e-9
    assert abs(float(values["count_n20"]) - math.log(phi)) < 0.02


def test_entropy_block_table(tmp_path):
    cfg = {"system": FULL2,
           "parameters": {"horizon": 10, "measure": "parry", "blocks": 6}}
    cfg["system"] = GOLDEN
    code, out = run_cli(tmp_path, "entropy", cfg)
    assert code == 0
    lines = read_csv(out / "block_entropy.csv")
    assert lines[1] == "n,H_n,H_n_over_n,H_gain"
    assert len(lines) == 8


def test_marker_certificate(tmp_path):
    cfg = {"system": STURMIAN,
           "parameters": {"n": 5, "max_word_len": 20, "depth": 100}}
    code, out = run_cli(tmp_path, "marker", cfg)
    assert code == 0
    cert = json.loads((out / "marker.json").read_text())
    assert cert["separation_n"] == 5
    assert cert["min_return"] >= 5


def test_marker_failure_emits_error_json(tmp_path, capsys):
    cfg = {"system": FULL2, "parameters": {"n": 3}}
    code, out = run_cli(tmp_path, "marker", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"] == "NoMarkerFound"
    assert "period" in err["precondition"]


def test_recode_two_valued_rejects_rational_dependence(tmp_path, capsys):
    cfg = {"system": ROOT2_FLOW,
           "parameters": {"p": {"a": "1", "b": "0"}, "q": {"a": "1", "b": "0"},
                          "delta": {"a": "1/10", "b": "0"}}}
    code, out = run_cli(tmp_path, "recode-dex", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert "independence" in err["precondition"]


def test_recode_marked_binary_and_roundtrip(tmp_path):
    dep_cfg = {
        "system": ROOT2_FLOW,
        "parameters": {"p": {"a": "1", "b": "0"}, "q": {"a": "0", "b": "1"},
                       "M": 2, "delta": {"a": "-1", "b": "1"}, "horizon": 1500},
    }
    code, out = run_cli(tmp_path, "recode-dep", dep_cfg, seed=3)
    assert code == 0
    report = json.loads((out / "marked_binary_report.json").read_text())
    assert report["scheduling_words_ok"]
    assert report["pattern_window_bound"] <= 400
    lines = read_csv(out / "marked_binary_census.csv")
    classes = {l.split(",")[0] for l in lines[2:]}
    assert classes == {"p", "q", "remainder"}

    rt_cfg = {
        "system": ROOT2_FLOW,
        "parameters": {"p": {"a": "1", "b": "0"}, "q": {"a": "0", "b": "1"},
                       "M": 2, "delta": {"a": "-1", "b": "1"},
                       "n": 50, "points": 6},
    }
    code, out2 = run_cli(tmp_path, "generator-roundtrip", rt_cfg, seed=7,
                         name="rt.json")
    assert code == 0
    lines = read_csv(out2 / "roundtrip.csv")
    assert lines[1] == "seed,n,match,recoveredLen"
    for line in lines[2:]:
        seed, n, match, rec_len = line.split(",")
        assert match == "1" and n == "50"


def test_kac_check(tmp_path):
    cfg = {"system": FULL2,
           "parameters": {"a_symbols": [0], "returns": 4000, "tau_max": 32}}
    code, out = run_cli(tmp_path, "kac-check", cfg, seed=11)
    assert code == 0
    lines = read_csv(out / "kac.csv")
    values = dict(l.split(",") for l in lines[2:])
    assert abs(float(values["simulated_mean"]) - 2.0) < 0.1
    assert abs(float(values["exact_truncated_mean"]) - 2.0) < 1e-6
    assert (out / "return_spectra.csv").exists()


def test_kac_check_unreachable_section_emits_error_json(tmp_path, capsys):
    # two disjoint loops: a walk started on the 1-loop never meets [0], which
    # must end in an error JSON, not a silent redraw or a traceback
    cfg = {"system": {"kind": "sft", "alphabet_size": 2, "adjacency": [[1, 0], [0, 1]]},
           "parameters": {"a_symbols": [0], "returns": 100, "tau_max": 8,
                          "measure": {"kind": "markov", "P": [["1", "0"], ["0", "1"]],
                                      "pi": ["1/2", "1/2"]}}}
    code, out = run_cli(tmp_path, "kac-check", cfg, seed=0)
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"] == "NotHit"


def test_ocap_cylinder_past_the_sampled_orbit_emits_error_json(tmp_path, capsys):
    # each orbit is sampled 20 symbols past the horizon, so a 25-symbol
    # cylinder read near the horizon leaves the sample
    cfg = {"system": FULL2,
           "parameters": {"cylinders": ["0" * 25], "horizon": 50, "samples": 1,
                          "period_max": 2}}
    code, out = run_cli(tmp_path, "ocap", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"] == "HorizonExceeded"
    assert "sampled window" in err["precondition"]


def test_induced_check(tmp_path):
    cfg = {"system": FULL2, "parameters": {"a_symbols": [0], "ns": [8, 10]}}
    code, out = run_cli(tmp_path, "induced-check", cfg)
    assert code == 0
    lines = read_csv(out / "induced.csv")
    assert len(lines) == 4


def test_abramov_check(tmp_path):
    flow = {
        "base": FULL2,
        "roof": {"window": 0, "table": {"0": {"a": "2", "b": "0"},
                                        "1": {"a": "2", "b": "0"}}},
    }
    cfg = {"system": flow, "parameters": {"n": 12, "delta": 1}}
    code, out = run_cli(tmp_path, "abramov-check", cfg)
    assert code == 0
    values = dict(l.split(",") for l in read_csv(out / "abramov.csv")[2:])
    assert abs(float(values["abramov_formula"]) - math.log(2) / 2) < 1e-12
    assert abs(float(values["tower_gain_n12"]) - math.log(2) / 2) < 1e-9


def test_ocap_golden_ones(tmp_path):
    cfg = {"system": GOLDEN,
           "parameters": {"cylinders": ["1"], "horizon": 400, "samples": 10,
                          "period_max": 8}}
    code, out = run_cli(tmp_path, "ocap", cfg, seed=3)
    assert code == 0
    values = dict(l.split(",") for l in read_csv(out / "ocap.csv")[2:])
    assert float(values["lower_witness_mass"]) == 0.5
    assert values["witness"] in ("01", "10")


def test_periodic_census(tmp_path):
    cfg = {"system": GOLDEN, "parameters": {"n_max": 8}}
    code, out = run_cli(tmp_path, "periodic", cfg)
    assert code == 0
    lines = read_csv(out / "periodic_growth.csv")
    values = dict(l.rsplit(",", 1) for l in lines[2:])
    phi = (1 + math.sqrt(5)) / 2
    assert abs(float(values["growth_at_horizon"]) - math.log(phi)) < 0.05


def test_replays_are_byte_identical(tmp_path):
    cfg = {"system": GOLDEN,
           "parameters": {"cylinders": ["1"], "horizon": 200, "samples": 5,
                          "period_max": 6}}
    code1, out1 = run_cli(tmp_path, "ocap", cfg, seed=7)
    body1 = (out1 / "ocap.csv").read_bytes()
    os.rename(out1, tmp_path / "first")
    code2, out2 = run_cli(tmp_path, "ocap", cfg, seed=7)
    assert body1 == (out2 / "ocap.csv").read_bytes()
    # a different seed changes the hash line
    code3, out3 = run_cli(tmp_path, "ocap", cfg, seed=8, name="cfg2.json")
    assert (out3 / "ocap.csv").read_bytes() != body1


def test_env_var_overrides_out(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"system": GOLDEN, "parameters": {"horizon": 8}}))
    special = tmp_path / "special"
    monkeypatch.setenv("SUSPSHIFT_OUT", str(special))
    code = main(["entropy", "--config", str(cfg_path), "--out", str(tmp_path / "ignored")])
    assert code == 0
    assert (special / "entropy.csv").exists()
