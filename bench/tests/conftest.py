"""Make the benchmark modules and the program under test importable.

    python3 -m pytest -q bench/tests
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

from program import import_program  # noqa: E402

import_program()
