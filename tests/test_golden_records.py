"""Member records against the committed golden records.

Iteration counts and converged flags must match exactly, every float
within 1e-9. A change that alters records on purpose regenerates the file
with `tests/golden_records.py` and says so.
"""

import json

import numpy as np
import pytest

import golden_records

GOLDEN = json.loads(golden_records.PATH.read_text(encoding="utf-8"))


def test_golden_file_covers_every_config():
    assert set(GOLDEN) == set(golden_records.CONFIGS)


@pytest.mark.parametrize("name", list(golden_records.CONFIGS))
def test_records_match_golden(name):
    fresh = golden_records.run(name)
    golden = GOLDEN[name]
    assert len(fresh) == len(golden), f"{name}: {len(fresh)} members, golden {len(golden)}"
    for i, (new, old) in enumerate(zip(fresh, golden)):
        for key in ("seed", "iterations", "converged"):
            assert new[key] == old[key], f"{name} member {i} {key}: {new[key]!r}, golden {old[key]!r}"
        for key in ("theta_final", "final_cost", "u_fields"):
            move = float(np.max(np.abs(np.subtract(new[key], old[key]))))
            assert move <= 1e-9, f"{name} member {i} {key} moved by {move:.3e} (tol 1e-9)"
