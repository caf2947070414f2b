"""Golden CLI outputs, compared byte for byte: the TINY config's experiment
CSV and every policy's solve record in both welfare modes, one generated
edge list and a greedy solve record on it, the TINY config's regret study
CSV with brute force, and a greedy-mode regret study at N = 60.  One run
renders them all: the solve reads the edge list rendered before it.

A change that moves one of these outputs regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md what moved and why.
"""

import contextlib
import io
import sys
from pathlib import Path

from netvax.cli import EXIT_OK, main
from netvax.harness import POLICIES

from test_cli import TINY_CONFIG

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = {
    "linear": TINY_CONFIG + "mode = linear\n",
    "exact": TINY_CONFIG + "mode = exact\n",
    "regret_brute": TINY_CONFIG + "regret_capacity = 2\nregret_replications = 8\n",
    # greedy rows and F sums longer than 8 entries
    "regret_greedy": TINY_CONFIG.replace("n_units = 12", "n_units = 60")
    + "regret_capacity = 12\nregret_use_brute = false\n",
}
# seed 1 at d = 3: every policy's exact-mode welfare lies below 1
SOLVE = ["solve", "--seed", "1", "--capacity-fraction", "0.25", "--policy"]
# output file: (config, command); runtime_ms is blanked in experiment CSVs
COMMANDS = {
    "experiment_linear.csv": ("linear", ["experiment"]),
    "experiment_exact.csv": ("exact", ["experiment", "--mode", "exact"]),
    "solve_random_linear.jsonl": ("linear", ["solve", "--policy", "random"]),
    "solve_random_exact.jsonl": ("exact", ["solve", "--policy", "random"]),
    **{f"solve_{policy}_{mode}.jsonl": (mode, [*SOLVE, policy])
       for policy in POLICIES if policy != "random" for mode in ("linear", "exact")},
    "gen_15.edges": (None, ["gen", "--n", "15", "--density", "0.5", "--seed", "1"]),
    # the population drawn on the network just generated; seed 5 leaves some infected
    "solve_edges_greedy.jsonl": ("exact", ["solve", "--seed", "5", "--capacity-fraction",
                                           "0.25", "--edges", "{work}/gen_15.edges"]),
    "regret_brute.csv": ("regret_brute", ["regret"]),
    "regret_greedy.csv": ("regret_greedy", ["regret"]),
}


def render(work: Path) -> dict[str, bytes]:
    """Run each command in work, in order, and return its output file's
    bytes; {work} in an argument names the work directory."""
    for name, text in CONFIGS.items():
        (work / f"{name}.cfg").write_text(text, encoding="utf-8")
    out = {}
    for name, (config, command) in COMMANDS.items():
        args = [arg.format(work=work) for arg in command] + ["--out", str(work / name)]
        if config is not None:
            args += ["--config", str(work / f"{config}.cfg")]
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(args)
        assert code == EXIT_OK, name
        text = (work / name).read_text(encoding="utf-8")
        if name.startswith("experiment_"):
            text = "".join(line.rsplit(",", 1)[0] + ",\n" for line in text.splitlines())
        out[name] = text.encode("utf-8")
    return out


def test_cli_outputs_match_golden_files(tmp_path):
    for name, data in render(tmp_path).items():
        assert data == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        for name, data in render(Path(work)).items():
            (GOLDEN / name).write_bytes(data)
            print(f"wrote {GOLDEN / name}", file=sys.stderr)
