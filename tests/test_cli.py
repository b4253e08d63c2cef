import json
import math
import os
import tracemalloc

import pytest

import suspshift.cli as cli
from suspshift.cli import COMMANDS, main
from test_golden import ROOT, RUNS


GOLDEN = {"kind": "sft", "alphabet_size": 2, "forbidden": ["11"]}
FULL2 = {"kind": "sft", "alphabet_size": 2, "adjacency": [[1, 1], [1, 1]]}
STURMIAN = {"kind": "sturmian", "alpha": {"a": "-1", "b": "1", "d": 2}}
ROOT2_FLOW = {
    "base": STURMIAN,
    "roof": {"window": 0,
             "table": {"0": {"a": "0", "b": "1", "d": 2},
                       "1": {"a": "0", "b": "1", "d": 2}}},
}
GOLDEN_FLOW = {"base": GOLDEN,
               "roof": {"window": 0, "table": {"0": {"a": "1"}, "1": {"a": "2"}}}}
FULL3 = {"kind": "sft", "alphabet_size": 3, "adjacency": [[1, 1, 1]] * 3}
# p = 1, q = sqrt2, delta = 1/10: the two-valued parameters of the shipped configs
RECODE = {"p": {"a": "1"}, "q": {"a": "0", "b": "1"}, "delta": {"a": "1/10"}}


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


def test_entropy_count_rate_without_the_language(tmp_path):
    # golden-mean language(32) has F(34) = 5,702,887 words; the count rate
    # comes from the walk's merged state counts instead
    cfg = {"system": GOLDEN,
           "parameters": {"horizon": 32, "measure": "parry", "blocks": 12}}
    tracemalloc.start()
    try:
        code, out = run_cli(tmp_path, "entropy", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 64 * 2**20
    values = dict(l.split(",") for l in read_csv(out / "entropy.csv")[2:])
    assert values["count_n32"] == repr(math.log(5702887) / 32)


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


def _config_error(tmp_path, capsys, path):
    code = main(["entropy", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    return json.loads(capsys.readouterr().out.strip().split("\n")[-1])


def test_non_json_config_emits_error_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    err = _config_error(tmp_path, capsys, bad)
    assert err["error"] == "JSONDecodeError"


def test_missing_config_emits_error_json(tmp_path, capsys):
    err = _config_error(tmp_path, capsys, tmp_path / "missing.json")
    assert err["error"] == "FileNotFoundError"
    assert "missing.json" in err["precondition"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_of_the_wrong_shape_emits_error_json(tmp_path, capsys, command):
    # JSON that is not an object, or whose system or parameters is not an
    # object, is refused before any command reads it
    shipped = json.loads((ROOT / RUNS[command][0]).read_text())
    bad = [[1], "entropy", 3, None,
           {**shipped, "system": [1]},
           {**shipped, "parameters": [1]},
           {**shipped, "parameters": "n=3"}]
    for i, config in enumerate(bad):
        code, _ = run_cli(tmp_path, command, config, name=f"bad{i}.json")
        assert code == 2, config
        err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert err["error"] == "ConfigError", config


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_without_a_top_level_key_emits_config_error(tmp_path, capsys, command):
    # a shipped config with `system` or `parameters` dropped is refused
    # before any command reads it, by an error that names the key
    shipped = json.loads((ROOT / RUNS[command][0]).read_text())
    assert {"system", "parameters"} <= set(shipped)
    for key in ("system", "parameters"):
        config = {k: v for k, v in shipped.items() if k != key}
        code, _ = run_cli(tmp_path, command, config, name=f"no-{key}.json")
        assert code == 2
        err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert err["error"] == "ConfigError"
        assert repr(key) in err["precondition"]


def _shipped_config(command, edit):
    config = json.loads((ROOT / RUNS[command][0]).read_text())
    edit(config)
    return config


@pytest.mark.parametrize("command, edit, error", [
    # every word of length 1 is forbidden
    ("entropy", lambda c: c.update(system={"kind": "sft", "alphabet_size": 2,
                                           "forbidden": ["0", "1"]}), "EmptySubshift"),
    # a roof value of 3/2 is no multiple of the tower step 1
    ("abramov-check", lambda c: c["system"]["roof"]["table"].update({"1": {"a": "3/2", "b": "0"}}),
     "IncommensurableRoof"),
    # the Parry measure of a reducible graph: no exact Perron data
    ("kac-check", lambda c: (c.update(system={**FULL2, "adjacency": [[1, 1], [0, 1]]}),
                             c["parameters"].update(measure="parry")), "ValueError"),
], ids=["entropy", "abramov-check", "kac-check-parry-reducible"])
def test_domain_errors_emit_error_json(tmp_path, capsys, command, edit, error):
    code, _ = run_cli(tmp_path, command, _shipped_config(command, edit))
    out = capsys.readouterr()
    assert code == 2
    assert json.loads(out.out.strip().split("\n")[-1])["error"] == error
    assert "Traceback" not in out.out + out.err


def test_periodic_reads_cylinders_of_any_length(tmp_path):
    # each orbit's measure counts a word over its period, so metric depth
    # 400 (cylinders up to length 11) needs no longer blocks kept
    config = _shipped_config("periodic",
                             lambda c: c["parameters"].update(metric_depth=400, n_max=4))
    code, out = run_cli(tmp_path, "periodic", config)
    assert code == 0
    assert sorted(f.name for f in out.iterdir()) == ["periodic_census.csv",
                                                     "periodic_growth.csv"]


def test_empty_sft_error_names_its_forbidden_words(tmp_path, capsys):
    config = {"system": {"kind": "sft", "alphabet_size": 2, "forbidden": ["0", "1"]},
              "parameters": {}}
    code, _ = run_cli(tmp_path, "entropy", config)
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"] == "EmptySubshift"
    assert err["precondition"] == \
        "the SFT over 2 symbols forbidding ['0', '1'] has no bi-infinite point"


@pytest.mark.parametrize("command, config, key", [
    ("ocap", {"system": STURMIAN, "parameters": {"cylinders": ["1"]}}, "system"),
    ("kac-check", {"system": STURMIAN, "parameters": {"returns": 10}}, "system"),
    ("entropy", {"system": GOLDEN, "parameters": {"horizon": 0}}, "horizon"),
    ("entropy", {"system": GOLDEN, "parameters": {"horizon": -3}}, "horizon"),
    ("kac-check", {"system": FULL2, "parameters": {"a_symbols": [3], "returns": 10}},
     "a_symbols"),
    ("kac-check", {"system": FULL2, "parameters": {"a_symbols": [], "returns": 10}},
     "a_symbols"),
    ("kac-check", {"system": FULL2, "parameters": {"returns": 0}}, "returns"),
    ("induced-check", {"system": FULL2, "parameters": {"a_symbols": [3]}}, "a_symbols"),
    ("kac-check", {"system": FULL2, "parameters": {"a_symbols": 3, "returns": 10}},
     "a_symbols"),
    ("induced-check", {"system": FULL2, "parameters": {"a_symbols": 3}}, "a_symbols"),
    ("kac-check", {"system": FULL2, "parameters": {"tau_max": 0, "returns": 10}}, "tau_max"),
    ("kac-check", {"system": FULL2, "parameters": {"tau_max": -3, "returns": 10}},
     "tau_max"),
    ("induced-check", {"system": FULL2, "parameters": {"tau_max": 0}}, "tau_max"),
    ("ocap", {"system": FULL2, "parameters": {"cylinders": ["2"]}}, "cylinders"),
    ("ocap", {"system": FULL2, "parameters": {"cylinders": []}}, "cylinders"),
    ("ocap", {"system": FULL2, "parameters": {"cylinders": ["1"], "samples": 0}}, "samples"),
    ("ocap", {"system": FULL2, "parameters": {"cylinders": ["1"], "horizon": 0}}, "horizon"),
    ("kac-check", {"system": FULL2, "parameters": {"tau_max": "x", "returns": 10}}, "tau_max"),
    ("periodic", {"system": GOLDEN, "parameters": {"metric_depth": "eight"}}, "metric_depth"),
    ("induced-check", {"system": FULL2, "parameters": {"ns": [0]}}, "ns"),
    ("generator-roundtrip", {"system": ROOT2_FLOW, "parameters": {"points": 2.5}}, "points"),
    ("entropy", {"system": GOLDEN, "parameters": {"horizon": True}}, "horizon"),
    ("entropy", {"system": GOLDEN, "parameters": {"measure": 5}}, "measure"),
    ("entropy", {"system": GOLDEN, "parameters": {"measure": "bogus"}}, "measure"),
    ("entropy", {"system": GOLDEN, "parameters": {"measure": {"kind": "sturmian"}}},
     "measure"),
    ("entropy", {"system": STURMIAN, "parameters": {"measure": "parry"}}, "measure"),
    ("induced-check", {"system": FULL3, "parameters": {}}, "measure"),
    ("kac-check", {"system": GOLDEN, "parameters": {"returns": 10}}, "measure"),
    ("abramov-check", {"system": ROOT2_FLOW, "parameters": {}}, "measure"),
    ("periodic", {"system": GOLDEN, "parameters": {"eps": "12"}}, "eps"),
    ("periodic", {"system": GOLDEN, "parameters": {"eps": ["x"]}}, "eps"),
    ("recode-dex", {"system": ROOT2_FLOW, "parameters": {**RECODE, "epsilon": [1]}}, "epsilon"),
    ("recode-dep", {"system": ROOT2_FLOW, "parameters": {**RECODE, "q": None}}, "q"),
    ("generator-roundtrip", {"system": ROOT2_FLOW, "parameters": {**RECODE, "p": {"b": "1"}}},
     "p"),
    ("abramov-check", {"system": GOLDEN_FLOW, "parameters": {"measure": "parry", "delta": "0"}},
     "delta"),
    ("abramov-check", {"system": GOLDEN_FLOW, "parameters": {"measure": "parry", "delta": "-1"}},
     "delta"),
], ids=["ocap-sturmian", "kac-check-sturmian", "entropy-horizon-0", "entropy-horizon-negative",
        "kac-check-symbol-3", "kac-check-no-symbol", "kac-check-no-return",
        "induced-check-symbol-3", "kac-check-symbols-not-a-list",
        "induced-check-symbols-not-a-list", "kac-check-tau-max-0",
        "kac-check-tau-max-negative", "induced-check-tau-max-0", "ocap-symbol-2",
        "ocap-no-cylinder", "ocap-samples-0", "ocap-horizon-0",
        "kac-check-tau-max-not-a-number", "periodic-metric-depth-a-word",
        "induced-check-ns-0", "generator-roundtrip-points-a-float",
        "entropy-horizon-a-bool", "entropy-measure-5", "entropy-measure-bogus",
        "entropy-measure-sturmian", "entropy-parry-on-sturmian",
        "induced-check-default-measure-on-3-symbols", "kac-check-default-measure-on-golden",
        "abramov-check-default-measure-on-sturmian",
        "periodic-eps-a-string", "periodic-eps-not-a-number", "recode-dex-epsilon-a-list",
        "recode-dep-q-null", "generator-roundtrip-p-without-a", "abramov-check-delta-0",
        "abramov-check-delta-negative"])
def test_bad_parameter_emits_config_error_naming_its_key(tmp_path, capsys, command, config,
                                                         key):
    # a bad value of one key ends in a ConfigError that names it, before
    # the command writes any output
    code, out = run_cli(tmp_path, command, config)
    captured = capsys.readouterr()
    assert code == 2
    err = json.loads(captured.out.strip().split("\n")[-1])
    assert err["error"] == "ConfigError"
    assert repr(key) in err["precondition"]
    assert list(out.iterdir()) == []


def test_generator_letter_budget_emits_error_json(tmp_path, capsys):
    # Sturmian((sqrt5-1)/2), roof sqrt5, p = 1, q = (1+sqrt5)/2: the build
    # succeeds and the generator refuses 2(q - p) >= p
    root5 = {"a": "0", "b": "1", "d": 5}
    cfg = {"system": {"base": {"kind": "sturmian", "alpha": {"a": "-1/2", "b": "1/2", "d": 5}},
                      "roof": {"window": 0, "table": {"0": root5, "1": root5}}},
           "parameters": {"p": {"a": "1", "b": "0"}, "q": {"a": "1/2", "b": "1/2", "d": 5},
                          "M": 2, "delta": {"a": "-1/2", "b": "1/2", "d": 5}, "points": 2}}
    code, _ = run_cli(tmp_path, "generator-roundtrip", cfg)
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"] == "PreconditionFailed"
    assert "need 2(q - p) < p" in err["precondition"]


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


def test_kac_check_refuses_a_markov_measure(tmp_path, capsys):
    # a measure is absent or "parry": a Markov chain given by its matrix is
    # refused before any return is drawn
    cfg = {"system": {"kind": "sft", "alphabet_size": 2, "adjacency": [[1, 0], [0, 1]]},
           "parameters": {"a_symbols": [0], "returns": 100, "tau_max": 8,
                          "measure": {"kind": "markov", "P": [["1", "0"], ["0", "1"]],
                                      "pi": ["1/2", "1/2"]}}}
    code, out = run_cli(tmp_path, "kac-check", cfg, seed=0)
    assert code == 2
    err = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert err["error"] == "ConfigError"
    assert "'measure'" in err["precondition"]
    assert list(out.iterdir()) == []


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


def test_abramov_check_reads_the_tower_at_n_and_n_minus_2_only(tmp_path, monkeypatch):
    # the average at n and the two-step gain share the level-n tower
    levels, tower = [], cli.time_delta_tower_entropy

    def counting_tower(measure, roof, delta, labels, n):
        levels.append(n)
        return tower(measure, roof, delta, labels, n)

    monkeypatch.setattr(cli, "time_delta_tower_entropy", counting_tower)
    code, _ = run_cli(tmp_path, "abramov-check", _shipped_config("abramov-check", lambda c: None))
    assert code == 0
    assert levels == [12, 10]


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
