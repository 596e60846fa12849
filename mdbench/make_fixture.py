"""Regenerate the (2,4) design fixture used by the BER workloads.

    python3 mdbench/make_fixture.py

Runs the production CCCP configuration (20 restarts, seed 0) and writes
the unit-power best design to mdbench/fixtures/c24_seed0.json.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mdconst import cccp  # noqa: E402


def main() -> None:
    res = cccp.optimize(cccp.CCCPConfig(K=2, M=4, restarts=20, seed=0))
    res.best.save(os.path.join(HERE, "fixtures", "c24_seed0.json"))


if __name__ == "__main__":
    main()
