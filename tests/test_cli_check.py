"""`ncpgd check` byte for byte: stdout, stderr and exit code of each property suite.

Each case runs `python -m ncpgd.cli check` in a fresh process with the default
log level and seed. The first two are the command lines the benchmark's
cli-certify workload runs; the third covers the projected-translation suite
at a size a test can afford. A change to a suite's printed lines, its count of
checks or its exit code shows as a diff; the Armijo suite's count of replayed
steps also moves with its draws.

The printed counts do not depend on the draws, so a changed draw sequence or
oracle verdict that still passes would not show in the golden file. A SHA-256
of each suite's per-trial facts, at the same seed and trial counts, pins them.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ncpgd import Point, cli

GOLDEN = Path(__file__).parent / "golden" / "check.txt"
SRC = Path(__file__).parent.parent / "src"

CASES = [
    ["--suite", "prox-equals-regular", "--trials", "1"],
    ["--suite", "armijo-postcondition", "--trials", "6"],
    ["--suite", "projected-translation", "--trials", "60"],
]


def check_text(workdir: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("NCPGD_LOG", None)
    blocks = []
    for args in CASES:
        argv = ["check"] + args
        proc = subprocess.run([sys.executable, "-m", "ncpgd.cli"] + argv, cwd=workdir,
                              env=env, capture_output=True, text=True)
        blocks.append(f"$ ncpgd {' '.join(argv)}\nexit={proc.returncode}\n"
                      f"[stdout]\n{proc.stdout}[stderr]\n{proc.stderr}")
    return "".join(blocks)


def test_check_output_matches_golden_bytes(tmp_path):
    assert check_text(tmp_path) == GOLDEN.read_text(encoding="utf-8")


# Per suite: the set reprs, the drawn points' bytes, the config and the verdicts.
FACT_DIGESTS = {
    "prox-equals-regular": "cd1576ffd63a66969ccedb807ea3d1007716356031cb2140e3ba445d2a591f0c",
    "armijo-postcondition": "04d0edcde23860516e23348184ec42e8e43312bd6dba621587fe2686f5d23c26",
    "projected-translation": "944258ec9e10623bfb7303162d2caf56e8439a3bf0f544d94f10b4f78cd58b96",
}


def suite_facts(suite: str, seed: int, trials: int):
    if suite == "projected-translation":
        for t, set_, x, v, _, ok_dist, ok_ip in cli.projected_translation_trials(seed, trials):
            yield t, set_, x, v, ok_dist, ok_ip
    elif suite == "prox-equals-regular":
        yield from cli.prox_equals_regular_trials(seed, trials)
    else:
        for t, set_, obj, cfg, trace in cli.armijo_postcondition_trials(seed, trials):
            # A least-squares gradient at 0 is -target, exactly.
            target = -obj.grad(Point.zeros(set_.ambient_shape))
            verdicts = [violation for _, violation in cli.armijo_replay(set_, obj, cfg, trace)]
            yield (t, set_, target, trace.iterates[0], cfg, verdicts, len(trace),
                   trace.backtrack_counts, trace.termination.value)


def facts_digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        for item in row:
            h.update(item.data.tobytes() if isinstance(item, Point) else repr(item).encode())
            h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("args", CASES, ids=[args[1] for args in CASES])
def test_check_suite_facts_match_pinned_digest(args):
    suite, trials = args[1], int(args[3])
    assert facts_digest(suite_facts(suite, 0, trials)) == FACT_DIGESTS[suite]
