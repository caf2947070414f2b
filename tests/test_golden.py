"""Golden CLI outputs: the TINY config's experiment CSV and random-policy
solve record, in both welfare modes, compared byte for byte.

A change that moves one of these outputs regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in CHANGES.md what moved and why.
"""

import contextlib
import io
import sys
from pathlib import Path

from netvax.cli import EXIT_OK, main

from test_cli import TINY_CONFIG

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "experiment_linear.csv": ["experiment"],
    "experiment_exact.csv": ["experiment", "--mode", "exact"],
    "solve_random_linear.jsonl": ["solve", "--policy", "random"],
    "solve_random_exact.jsonl": ["solve", "--policy", "random"],
}


def render(work: Path) -> dict[str, bytes]:
    """Run each command on the TINY config in work; experiment CSVs get
    their runtime_ms column blanked."""
    for mode in ("linear", "exact"):
        (work / f"{mode}.cfg").write_text(TINY_CONFIG + f"mode = {mode}\n", encoding="utf-8")
    out = {}
    for name, command in COMMANDS.items():
        config = work / ("exact.cfg" if "exact" in name else "linear.cfg")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*command, "--config", str(config), "--out", str(work / name)])
        assert code == EXIT_OK, name
        text = (work / name).read_text(encoding="utf-8")
        if name.endswith(".csv"):
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
