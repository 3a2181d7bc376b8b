"""The independent oracles of perfbench/oracles.py, for the tests that compare with them.

The file is read and executed from its path, so nothing is imported from or
written under perfbench/, and test_hilbert_oracle keeps it free of imports
from this package.
"""

import types
from pathlib import Path

ORACLES = Path(__file__).resolve().parent.parent / "perfbench" / "oracles.py"


def load_oracles():
    module = types.ModuleType("perfbench_oracles")
    exec(compile(ORACLES.read_text(), str(ORACLES), "exec"), module.__dict__)
    return module


oracles = load_oracles()
