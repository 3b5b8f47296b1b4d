"""Every CLI error path, byte for byte: stdout, stderr and exit code.

Each case runs `python -m ncpgd.cli` in a fresh process with the default log
level, in a scratch directory that holds the config files the cases name.
The golden file pins what a user sees, so a change of wording, stream or exit
code shows as a diff.
"""

import os
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).parent / "golden" / "cli_errors.txt"
SRC = Path(__file__).parent.parent / "src"

SPARSE = ["--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1,0"]
PSD = ["--set", "psd:n=2,r=1", "--objective", "least-squares:target=1,0,0,0"]

# The command line's own errors: one `error:` line each, with exit code 1.
READER_CASES = [
    ["solve"] + SPARSE + ["--x0", "0,1", "--max-it", "3"],
    ["solve"] + SPARSE + ["--x0", "--alpha-max", "1"],
    [],
    ["solv"],
    ["solve"] + SPARSE + ["--x0", "0", "1"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--config="],
    ["cones", "--set", "sparse:n=2,s=1", "--x", "0,1", "--v", "1,0", "--config", "x.cfg"],
]

CASES = [
    ["solve"] + SPARSE + ["--x0", "1,1"],
    ["solve"] + SPARSE + ["--x0", "1,1", "--algorithm", "p2gd"],
    ["compare"] + SPARSE + ["--x0", "1,1"],
    ["cones", "--set", "sparse:n=2,s=1", "--x", "1,1", "--v", "0,0"],
    ["check", "--suite", "nonexistent"],
    ["compare"] + PSD + ["--x0", "1,0,0,0"],
    ["solve", "--objective", "least-squares:target=1,0", "--x0", "0,1"],
    ["solve"] + SPARSE + ["--config", "unknown-key.cfg"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--config", "missing.cfg"],
    ["check", "--suite", "projected-translation", "--trials", "0"],
    ["check", "--suite", "armijo-postcondition", "--trials", "-3"],
    ["check", "--suite", "projected-translation", "--seed", "-1", "--trials", "2"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--stat-tol", "nan", "--max-iters", "5", "--out", "t.csv"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--algorithm", "p2gd", "--stationarity", "proximal"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--stat-tol", "inf"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--stat-tol", "1e308"],
    ["solve"] + SPARSE + ["--x0", "inf,1"],
    ["solve", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=nan,0",
     "--x0", "0,1"],
    ["solve"] + SPARSE + ["--x0", "0,,1"],
    ["solve"] + SPARSE + ["--x0", "1,0,"],
    ["cones", "--set", "sparse:n=2,s=1", "--x", "0,1,", "--v", "0,0"],
    ["cones", "--set", "sparse:n=2,s=1", "--x", "0,1", "--v", ",1"],
    ["solve", "--set", "sparse:n=2,s=1", "--objective", "least-squares:target=1, ,0",
     "--x0", "0,1"],
    ["solve", "--set", "sparse:n=2,s=1", "--x0", "0,1", "--objective", "constant:value=nan"],
    ["solve", "--set", "sparse:n=2,s=1", "--x0", "0,1", "--objective", "constant:value=inf"],
    ["solve", "--set", "sparse:n=3,s=1,n=2", "--x0", "0,1", "--objective",
     "least-squares:target=1,0"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--config", "repeated-key.cfg"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--config", "repeated-spelling.cfg"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--out="],
    ["compare"] + SPARSE + ["--x0", "0,1", "--config", "empty-plot-path.cfg"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--rule", "max:l=-1"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--rule", "avg:p=0"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--beta=--"],
    ["solve"] + SPARSE + ["--x0", "0,1", "--max-iters", "1", "--max-iters", "3"],
    ["cones", "--set", "sparse:n=2,s=1", "--x", "0,1", "--v", "1,0", "--x", "1,0"],
    ["check", "--suite", "projected-translation", "--seed", "abc"],
    *READER_CASES,
]

CONFIG_FILES = {
    "unknown-key.cfg": "x0 = 0,1\nseed = 3\n",
    "repeated-key.cfg": "max_iters = 1\n# a comment line\nmax_iters = 3\n",
    "repeated-spelling.cfg": "max_iters = 1\nmax-iters = 3\n",
    "empty-plot-path.cfg": "emit-plot-data =\n",
}


def cli_errors_text(workdir: Path) -> str:
    for name, text in CONFIG_FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NCPGD_LOG", None)
    blocks = []
    for argv in CASES:
        proc = subprocess.run([sys.executable, "-m", "ncpgd.cli"] + argv, cwd=workdir,
                              env=env, capture_output=True, text=True)
        blocks.append(f"$ ncpgd {' '.join(argv)}\nexit={proc.returncode}\n"
                      f"[stdout]\n{proc.stdout}[stderr]\n{proc.stderr}")
    return "".join(blocks)


# The solver's start check rejects an infeasible x0 in solve (pgd and p2gd)
# and compare alike, and its message names the point.
X0_ERROR = "[stderr]\nerror: x0 is not on sparse:n=2,s=1: Point([1.0, 1.0])\n"


def test_cli_error_paths_match_golden_bytes(tmp_path):
    text = cli_errors_text(tmp_path)
    assert text == GOLDEN.read_text(encoding="utf-8")
    assert text.count(X0_ERROR) == 3
    for block in text.split("$ ncpgd ")[-len(READER_CASES):]:
        assert block.partition("\n")[2].startswith("exit=1\n[stdout]\n[stderr]\nerror: ")
        assert block.count("\n") == 5, block
