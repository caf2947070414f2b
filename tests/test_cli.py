import io
import json
import os
import subprocess
import sys

import pytest

import netvax
from netvax import harness, load_edge_list
from netvax.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, main

from _oracles import all_subsets_objective, all_subsets_welfare

TINY_CONFIG = """
n_units = 12
density = 0.5
n_networks = 2
capacity_fractions = 0.1,0.25
random_draws = 200
seed = 4
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "net.edges"
    assert main(["gen", "--n", "20", "--density", "0.4", "--seed", "3",
                 "--out", str(out)]) == EXIT_OK
    assert "20 units" in capsys.readouterr().out
    with open(out, encoding="utf-8") as handle:
        graph = load_edge_list(handle)
    assert graph.n_units == 20


def test_solve_greedy_json(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    assert main(["solve", "--config", config, "--policy", "greedy"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["policy"] == "greedy"
    assert record["n_units"] == 12
    assert record["capacity"] == 1  # first configured fraction 0.1 of 12
    assert len(record["selected"]) == 1
    assert record["welfare"] >= record["f_value"]


def test_solve_capacity_override_and_out_file(tmp_path):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    out = tmp_path / "result.json"
    assert main(["solve", "--config", config, "--policy", "brute",
                 "--capacity-fraction", "0.25", "--out", str(out)]) == EXIT_OK
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["capacity"] == 3
    assert len(record["selected"]) == 3


def assert_random_record_is_exhaustive(record, inst):
    """The linear random record against F and welfare at every subset."""
    d = record["capacity"]
    f_vals = all_subsets_objective(inst.ctx, d)
    welfare = all_subsets_welfare(inst, d)
    assert record["draws"] == 0
    assert abs(record["mean_f"] - f_vals.mean()) <= 1e-12
    assert abs(record["sd_f"] - f_vals.std()) <= 1e-9 * f_vals.std()
    assert abs(record["mean_welfare"] - welfare.mean()) <= 1e-12
    assert abs(record["sd_welfare"] - welfare.std()) <= 1e-9 * welfare.std()


def test_solve_random_policy(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    cfg = harness.parse_experiment_config(TINY_CONFIG)
    inst = harness.draw_instance(12, 0.5, cfg.params(), cfg.group1_probability,
                                 cfg.initial_states, cfg.weights,
                                 harness.replicate_seed(4, 0))
    for fraction, d in (("0.1", 1), ("0.25", 3), ("0.5", 6)):
        assert main(["solve", "--config", config, "--policy", "random",
                     "--capacity-fraction", fraction]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert record["capacity"] == d
        assert_random_record_is_exhaustive(record, inst)


def test_solve_with_edge_list(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    edges = tmp_path / "net.edges"
    assert main(["gen", "--n", "15", "--density", "0.5", "--seed", "1",
                 "--out", str(edges)]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", "--config", config, "--edges", str(edges),
                 "--policy", "greedy"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    # the supplied network overrides the configured size
    assert record["n_units"] == 15


def test_solve_bad_fraction_is_config_error(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    assert main(["solve", "--config", config,
                 "--capacity-fraction", "1.5"]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_experiment_writes_csv(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", config, "--out", str(out),
                 "--policies", "greedy,twni"]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("policy,capacity_fraction,mean_welfare")
    assert len(lines) == 5
    assert {line.split(",")[0] for line in lines[1:]} == {"greedy", "twni"}


def test_experiment_seed_override_changes_rows(tmp_path):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["experiment", "--config", config, "--out", str(out_a),
                 "--policies", "greedy", "--seed", "4"]) == EXIT_OK
    assert main(["experiment", "--config", config, "--out", str(out_b),
                 "--policies", "greedy", "--seed", "99"]) == EXIT_OK
    strip = lambda path: [line.rsplit(",", 1)[0]
                          for line in path.read_text().splitlines()]
    assert strip(out_a) != strip(out_b)


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", "n_units=10\ndensity=0.5\nfanout=3\n")
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert "unknown config key" in capsys.readouterr().err


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["experiment", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "rows.csv")]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


def test_bad_edge_list_is_config_error(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    edges = write(tmp_path / "bad.edges", "n_units=3\n0 3\n")
    assert main(["solve", "--config", config, "--edges", edges]) == EXIT_CONFIG
    assert "index out of range at line 2" in capsys.readouterr().err


def test_brute_budget_refusal_exit_code(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg",
                   "n_units=40\ndensity=0.5\ncapacity_fractions=0.5\nn_networks=1\n")
    assert main(["solve", "--config", config, "--policy", "brute"]) == EXIT_BUDGET
    assert "budget refused" in capsys.readouterr().err


def test_regret_command(tmp_path, capsys):
    config = write(tmp_path / "reg.cfg",
                   "n_units=10\ndensity=0.5\nseed=2\nregret_capacity=2\n"
                   "regret_n_grid=100,400\nregret_replications=4\n")
    out = tmp_path / "regret.csv"
    assert main(["regret", "--config", config, "--out", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("n_external,replications,capacity,mean_total")
    assert len(lines) == 3


def test_check_command(capsys):
    assert main(["check", "--trials", "200"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS submodularity_density_0.1" in out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_solve_with_edge_list_record_is_frozen(tmp_path, capsys, monkeypatch):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    edges = tmp_path / "net.edges"
    assert main(["gen", "--n", "15", "--density", "0.5", "--seed", "1",
                 "--out", str(edges)]) == EXIT_OK
    capsys.readouterr()

    def no_generation(*args):
        raise AssertionError("solve --edges must not generate a network")

    monkeypatch.setattr(harness, "erdos_renyi", no_generation)
    assert main(["solve", "--config", config, "--edges", str(edges),
                 "--policy", "greedy"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["selected"] == [2, 13]
    assert record["capacity"] == 2
    assert abs(record["f_value"] - 0.1843253968253968) <= 1e-12
    assert abs(record["welfare"] - 1.0) <= 1e-12
    assert main(["solve", "--config", config, "--edges", str(edges),
                 "--policy", "random"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert abs(record["mean_f"] - 0.03171541950113379) <= 1e-12
    assert abs(record["mean_welfare"] - 0.8473900226757369) <= 1e-12
    cfg = harness.parse_experiment_config(TINY_CONFIG)
    with open(edges, encoding="utf-8") as handle:
        inst = harness.instance_on_graph(load_edge_list(handle), cfg.params(),
                                         cfg.group1_probability, cfg.initial_states,
                                         cfg.weights, harness.replicate_seed(4, 0))
    assert_random_record_is_exhaustive(record, inst)


def test_solve_reports_pct_young_vaccinated(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    for policy in harness.POLICIES:
        assert main(["solve", "--config", config, "--policy", policy,
                     "--capacity-fraction", "0.25"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert 0.0 <= record["pct_young_vaccinated"] <= 100.0
        if policy != "random":
            # three doses, so the share of group 1 is a multiple of 1/3
            young = record["pct_young_vaccinated"] * len(record["selected"]) / 100.0
            assert abs(young - round(young)) <= 1e-9


@pytest.mark.parametrize("extra", (
    "weights=nan,1\n",
    "weights=inf,1\n",
    "initial_states_g1=nan,0.5,0.5\n",
    "beta11=nan\nbeta12=0.5\nbeta21=0.5\nbeta22=0.6\ngamma1=0.1\ngamma2=0.05\n",
))
def test_non_finite_config_is_config_error(tmp_path, capsys, extra):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG + extra)
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert "finite" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(netvax.__file__)))
    proc = subprocess.run([sys.executable, "-m", "netvax", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: netvax")
