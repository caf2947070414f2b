import io
import json
import os
import subprocess
import sys

import pytest

import netvax
from netvax import harness, load_edge_list, solvers
from netvax.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_FAIL, EXIT_OK, _build_parser, main

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


RANDOM_KEYS = ["policy", "n_units", "capacity", "capacity_fraction", "mean_f", "sd_f",
               "mean_welfare", "pct_young_vaccinated"]


def assert_random_record_is_exhaustive(record, inst, mode="linear"):
    """The random record against F and welfare at every subset."""
    d = record["capacity"]
    f_vals = all_subsets_objective(inst.ctx, d)
    welfare = all_subsets_welfare(inst, d, mode)
    assert list(record) == RANDOM_KEYS
    assert abs(record["mean_f"] - f_vals.mean()) <= 1e-12
    assert abs(record["sd_f"] - f_vals.std()) <= 1e-9 * f_vals.std()
    assert abs(record["mean_welfare"] - welfare.mean()) <= 1e-12


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


def test_solve_random_exact_record(tmp_path):
    cfg = harness.parse_experiment_config(TINY_CONFIG)
    inst = harness.draw_instance(12, 0.5, cfg.params(), cfg.group1_probability,
                                 cfg.initial_states, cfg.weights,
                                 harness.replicate_seed(4, 0))
    records = {}
    for name, text in (("linear", TINY_CONFIG),
                       ("exact", TINY_CONFIG + "mode = exact\n"),
                       ("one_draw", TINY_CONFIG.replace("random_draws = 200",
                                                        "random_draws = 1") + "mode = exact\n")):
        out = tmp_path / f"{name}.jsonl"
        assert main(["solve", "--config", write(tmp_path / f"{name}.cfg", text),
                     "--policy", "random", "--capacity-fraction", "0.25",
                     "--out", str(out)]) == EXIT_OK
        records[name] = out.read_bytes()
    # the retired random_draws key changes no byte of the exact record
    assert records["exact"] == records["one_draw"]
    linear, exact = (json.loads(records[name]) for name in ("linear", "exact"))
    assert (exact["mean_f"], exact["sd_f"]) == (linear["mean_f"], linear["sd_f"])
    assert_random_record_is_exhaustive(exact, inst, "exact")


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


def test_experiment_repeated_policy_is_config_error(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", config, "--out", str(out),
                 "--policies", "greedy,random,greedy"]) == EXIT_CONFIG
    assert "policies repeats an entry" in capsys.readouterr().err
    assert not out.exists()


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
    # keys i * n_units + j of this graph overflow int64
    edges = write(tmp_path / "huge.edges", "n_units=4294967296\n4294967294 4294967295\n")
    assert main(["solve", "--config", config, "--edges", edges]) == EXIT_CONFIG
    assert "n_units**2 < 2**63" in capsys.readouterr().err


def test_unreadable_input_file_is_config_error(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    not_utf8 = tmp_path / "bad.bin"
    not_utf8.write_bytes(b"n_units=3\n0 1\n\xff\xfe\n")
    for edges in (tmp_path / "missing.edges", tmp_path, not_utf8):
        assert main(["solve", "--config", config, "--edges", str(edges)]) == EXIT_CONFIG
        assert "cannot read edge list" in capsys.readouterr().err
    assert main(["solve", "--config", str(not_utf8)]) == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gen", "--n", "0", "--density", "0.5"], "--n must be >= 1, got 0"),
    (["gen", "--n", "-3", "--density", "0.5"], "--n must be >= 1, got -3"),
    (["gen", "--n", "10", "--density", "1.5"], "--density must be in [0, 1], got 1.5"),
    (["gen", "--n", "10", "--density", "nan"], "--density must be in [0, 1], got nan"),
    # N^2 reaches 2^63 from N = 3,037,000,500: refused before any pair is drawn
    (["gen", "--n", "3037000500", "--density", "0"], "--n must satisfy --n**2 < 2**63"),
    (["gen", "--n", "5", "--density", "0.5", "--seed", "-1"], "--seed must be >= 0, got -1"),
], ids=["n_zero", "n_negative", "density_above_one", "density_nan", "n_squared_past_int64",
        "seed_negative"])
def test_gen_bad_arguments_are_config_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "net.edges"
    assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "experiment", "regret"])
def test_oversized_n_units_is_config_error(tmp_path, capsys, command):
    # N^2 reaches 2^63 from N = 3,037,000,500, as for gen --n
    config = write(tmp_path / "big.cfg", "n_units = 3037000500\ndensity = 0\n")
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("regret_use_brute", "maybe"),
    ("regret_n_grid", "1,x"),
    ("regret_capacity", "2.5"),
])
def test_bad_regret_value_is_config_error_for_every_command(tmp_path, capsys, key, value):
    text = TINY_CONFIG + f"{key} = {value}\n"
    for parse in (harness.parse_experiment_config, harness.parse_regret_config):
        with pytest.raises(harness.ConfigError, match=key):
            parse(text)
    config = write(tmp_path / "exp.cfg", text)
    out = tmp_path / "rows.csv"
    assert main(["experiment", "--config", config, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {key} must be")
    assert not out.exists()


def assert_unwritable_out(capsys, argv):
    assert main(argv) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert err.count("\n") == 1


def test_gen_unwritable_out_is_error(tmp_path, capsys):
    assert_unwritable_out(capsys, ["gen", "--n", "10", "--density", "0.5",
                                   "--out", str(tmp_path / "absent" / "net.edges")])


def test_solve_unwritable_out_is_error(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    assert_unwritable_out(capsys, ["solve", "--config", config,
                                   "--out", str(tmp_path / "absent" / "res.jsonl")])


def test_experiment_unwritable_out_is_error(tmp_path, capsys):
    config = write(tmp_path / "exp.cfg", TINY_CONFIG)
    assert_unwritable_out(capsys, ["experiment", "--config", config,
                                   "--policies", "twni",
                                   "--out", str(tmp_path / "absent" / "rows.csv")])


def test_regret_unwritable_out_is_error(tmp_path, capsys):
    config = write(tmp_path / "reg.cfg",
                   "n_units=10\ndensity=0.5\nseed=2\nregret_capacity=2\n"
                   "regret_n_grid=100\nregret_replications=2\n")
    assert_unwritable_out(capsys, ["regret", "--config", config,
                                   "--out", str(tmp_path / "absent" / "regret.csv")])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("command", ["gen", "solve", "experiment", "regret"])
def test_failed_write_to_out_is_error(tmp_path, capsys, command):
    # /dev/full opens but refuses every write, so the write or the close
    # fails, not the open; that once printed a traceback
    config = write(tmp_path / "exp.cfg",
                   TINY_CONFIG + "regret_capacity=2\nregret_n_grid=100\nregret_replications=2\n")
    args = ["--n", "10", "--density", "0.5"] if command == "gen" else ["--config", config]
    assert_unwritable_out(capsys, [command, *args, "--out", "/dev/full"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("command", [
    ["gen", "--n", "10", "--density", "0.5", "--out", "net.edges"],
    ["solve", "--config", "exp.cfg"],
    ["experiment", "--config", "exp.cfg", "--out", "rows.csv"],
    ["regret", "--config", "exp.cfg", "--out", "regret.csv"],
    ["check", "--trials", "5"],
], ids=["gen", "solve", "experiment", "regret", "check"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_failed_write_to_stdout_is_error(tmp_path, command, unbuffered):
    # a separate process, so that its stdout is /dev/full up to the
    # interpreter's own flush at exit; that once printed a traceback.  A
    # buffered stdout keeps the bytes it failed to write, and its flush at
    # exit once added an "Exception ignored" report and exit status 120
    write(tmp_path / "exp.cfg",
          TINY_CONFIG + "regret_capacity=2\nregret_n_grid=100\nregret_replications=2\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(netvax.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    env.update({"PYTHONUNBUFFERED": "1"} if unbuffered else {})
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "netvax", *command], cwd=tmp_path, env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == EXIT_FAIL, proc.stderr
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


HARD_CONFIG = ("n_units=300\ndensity=0.03\ncapacity_fractions=0.15\nbeta11=1\nbeta12=1\n"
               "beta21=1\nbeta22=1\ngamma1=0.9\ngamma2=0.9\n"
               "initial_states_g1=0.5,0.5,0\ninitial_states_g2=0.5,0.5,0\nseed=0\n")


def test_brute_budget_refusal_exit_code(tmp_path, capsys, monkeypatch):
    # outside the dominance regime the search runs past the root; the
    # continuous-integration run of this config passes NODE_BUDGET itself
    monkeypatch.setattr(solvers, "NODE_BUDGET", 1000)
    config = write(tmp_path / "exp.cfg", HARD_CONFIG)
    out = tmp_path / "brute.jsonl"
    assert main(["solve", "--config", config, "--policy", "brute",
                 "--out", str(out)]) == EXIT_BUDGET
    assert "budget refused: brute-force search passed its budget of 1000 nodes" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_brute_at_desk_size_equals_greedy(tmp_path):
    # C(500, 35) subsets: greedy's set is proved optimal at the root
    config = write(tmp_path / "exp.cfg",
                   "n_units=500\ndensity=0.1\ncapacity_fractions=0.07\nseed=4\n")
    records = {}
    for policy in ("brute", "greedy"):
        out = tmp_path / f"{policy}.jsonl"
        assert main(["solve", "--config", config, "--policy", policy,
                     "--out", str(out)]) == EXIT_OK
        records[policy] = json.loads(out.read_text())
    assert records["brute"]["capacity"] == 35
    assert records["brute"]["selected"] == records["greedy"]["selected"]
    assert records["brute"]["rounds"] == 1


def test_regret_study_budget_refusal_exit_code(tmp_path, capsys, monkeypatch):
    # the default study makes 601 searches, each of one node or more
    monkeypatch.setattr(solvers, "NODE_BUDGET", 600)
    config = write(tmp_path / "reg.cfg", "n_units=20\ndensity=0.5\n")
    out = tmp_path / "regret.csv"
    assert main(["regret", "--config", config, "--out", str(out)]) == EXIT_BUDGET
    assert "budget refused: brute-force search passed its budget of 600 nodes" in (
        capsys.readouterr().err)
    assert not out.exists()


def test_regret_command(tmp_path, capsys):
    config = write(tmp_path / "reg.cfg",
                   "n_units=10\ndensity=0.5\nseed=2\nregret_capacity=2\n"
                   "regret_n_grid=100,400\nregret_replications=4\n")
    out = tmp_path / "regret.csv"
    assert main(["regret", "--config", config, "--out", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("n_external,replications,capacity,mean_total")
    assert len(lines) == 3


@pytest.mark.parametrize("flag, value, least", [
    ("--trials", "0", 1),
    ("--trials", "-5", 1),
    ("--seed", "-1", 0),
], ids=["0", "-5", "seed_negative"])
def test_check_bad_trials_is_config_error(capsys, flag, value, least):
    assert main(["check", flag, value]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: {flag} must be >= {least}, got {value}")


def test_check_command(capsys):
    assert main(["check", "--trials", "200"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS submodularity_density_0.1" in out
    assert "checks passed" in out
    assert "FAIL" not in out


def test_check_reports_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(harness, "run_property_checks", lambda seed, trials: [
        harness.CheckResult("holds", True, "ok"), harness.CheckResult("breaks", False, "bad")])
    assert main(["check"]) == EXIT_FAIL
    out = capsys.readouterr().out
    assert "FAIL breaks: bad" in out
    assert "1 of 2 checks failed" in out


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "3", "--density", "0.5", "--out", "x"],
    ["solve", "--config", "x"],
    ["experiment", "--config", "x", "--out", "y"],
    ["regret", "--config", "x", "--out", "y"],
    ["check"],
], ids=lambda argv: argv[0])
def test_every_subcommand_names_its_handler(argv):
    assert callable(_build_parser().parse_args(argv).handler)


@pytest.mark.parametrize("command, study, row", [
    ("experiment", "run_experiment", harness.ExperimentRow("greedy", 0.1, 0.5, 0.0, 0.2, 40.0, 1.0)),
    ("regret", "run_regret_study", harness.RegretStudyRow(100, 2, 3, *[0.25] * 7)),
])
def test_table_commands_look_up_the_study_when_run(tmp_path, capsys, monkeypatch,
                                                   command, study, row):
    # a study function rebound after import, as a tracer does, is the one that runs
    monkeypatch.setattr(harness, study, lambda config: [row])
    out = tmp_path / "out.csv"
    assert main([command, "--config", write(tmp_path / "exp.cfg", TINY_CONFIG),
                 "--out", str(out)]) == EXIT_OK
    sink = io.StringIO()
    harness.emit_csv([row], sink)
    assert out.read_text(encoding="utf-8") == sink.getvalue()


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
    assert abs(record["f_value"] - 0.21817195767195766) <= 1e-12
    assert abs(record["welfare"] - 1.0) <= 1e-12
    assert main(["solve", "--config", config, "--edges", str(edges),
                 "--policy", "random"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert abs(record["mean_f"] - 0.04041882086167801) <= 1e-12
    assert abs(record["mean_welfare"] - 0.8222468631897204) <= 1e-12
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


@pytest.mark.parametrize("run", [
    "import netvax",
    "sys.argv = ['netvax', '--help']\n"
    "try:\n    runpy.run_module('netvax', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as stop:\n    assert stop.code == 0",
], ids=["import", "python_dash_m_help"])
def test_netvax_loads_no_scipy(run):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(netvax.__file__)))
    code = (f"import runpy, sys\n{run}\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


REGRET_CONFIG = """
n_units = 10
density = 0.5
seed = 2
regret_capacity = 2
regret_n_grid = 100
regret_replications = 3
"""
BASE_CONFIGS = {"solve": TINY_CONFIG, "experiment": TINY_CONFIG, "regret": REGRET_CONFIG}


def run_configured(tmp_path, command, text, flags, name):
    """Run command on config text plus flags; the exit code and the output
    file's lines, each experiment row without its runtime_ms."""
    out = tmp_path / f"{name}.out"
    code = main([command, "--config", write(tmp_path / f"{name}.cfg", text),
                 "--out", str(out)] + flags)
    lines = out.read_text(encoding="utf-8").splitlines() if out.exists() else []
    if command == "experiment":
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return code, lines


def with_key(text, key, value):
    """text with its key line, if any, replaced by key = value."""
    kept = [line for line in text.splitlines() if line.split("=")[0].strip() != key]
    return "\n".join(kept + [f"{key} = {value}"]) + "\n"


@pytest.mark.parametrize("command, flag, key, value", [
    ("solve", "--seed", "seed", "7"),
    ("solve", "--capacity-fraction", "capacity_fractions", "0.25"),
    ("experiment", "--seed", "seed", "7"),
    ("experiment", "--policies", "policies", "greedy,twni"),
    ("experiment", "--mode", "mode", "exact"),
    ("experiment", "--mode", "mode", " exact "),  # blanks around a value are dropped
    ("regret", "--seed", "seed", "7"),
], ids=["solve_seed", "solve_capacity_fraction", "experiment_seed", "experiment_policies",
        "experiment_mode", "experiment_mode_blanks", "regret_seed"])
def test_flag_matches_config_key(tmp_path, capsys, command, flag, key, value):
    base = BASE_CONFIGS[command]
    by_flag = run_configured(tmp_path, command, base, [flag, value], "flag")
    by_key = run_configured(tmp_path, command, with_key(base, key, value), [], "key")
    assert by_flag[0] == by_key[0] == EXIT_OK
    assert by_flag[1] == by_key[1]
    # the flag changes the run, so the comparison is not vacuous
    assert run_configured(tmp_path, command, base, [], "base")[1] != by_key[1]


@pytest.mark.parametrize("command, flag, key, value", [
    ("solve", "--seed", "seed", "x"),
    ("solve", "--capacity-fraction", "capacity_fractions", "1.5"),
    ("solve", "--capacity-fraction", "capacity_fractions", "nan"),
    ("experiment", "--seed", "seed", "4.5"),
    ("experiment", "--policies", "policies", "greedy,optimal"),
    ("experiment", "--policies", "policies", ""),
    ("experiment", "--mode", "mode", "quadratic"),
    ("regret", "--seed", "seed", "seven"),
], ids=["solve_seed_word", "solve_fraction_above_one", "solve_fraction_nan",
        "experiment_seed_float", "experiment_unknown_policy", "experiment_no_policy",
        "experiment_unknown_mode", "regret_seed_word"])
def test_bad_flag_is_config_error_like_bad_key(tmp_path, capsys, command, flag, key,
                                               value):
    base = BASE_CONFIGS[command]
    assert run_configured(tmp_path, command, base, [flag, value], "flag") == (EXIT_CONFIG, [])
    by_flag = capsys.readouterr().err
    assert run_configured(tmp_path, command, with_key(base, key, value), [],
                          "key") == (EXIT_CONFIG, [])
    assert by_flag.startswith("config error:")
    assert capsys.readouterr().err == by_flag
