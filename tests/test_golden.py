"""Golden CSV bytes for a fixed command set.

Each command writes its CSV through ``cli.main``; the bytes must equal
the committed file under ``tests/data/golden``.  A refactor that keeps
the library's outputs must keep these files unchanged.
"""

from pathlib import Path

import pytest

from rkhsquad.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

_MDM = [
    "--budgets", "10,40,160",
    "--dollar-table", ",".join(str(1 + m) for m in range(16)),
    "--trunc", "512", "--max-coord", "16", "--pool-size", "64",
]

COMMANDS = {
    "univariate-decay-gaussian-0.7": [
        "univariate-decay", "--space", "gaussian", "--param", "0.7", "--n-max", "40",
    ],
    "univariate-decay-hermite-0.5": [
        "univariate-decay", "--space", "hermite", "--param", "0.5", "--n-max", "40",
    ],
    "tensor-decay": ["tensor-decay", "--sigma", "1,0.5,2", "--eps-list", "0.1,0.01"],
    "mdm-run-power": ["mdm-run", "--sigma-rule", "j^-1.5", *_MDM],
    "mdm-run-geometric": ["mdm-run", "--sigma-rule", "0.5^j", *_MDM],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_csv_bytes_match_golden(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main([*COMMANDS[name], "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
