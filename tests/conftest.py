"""Puts ``tests/`` on ``sys.path`` so test modules can ``import mutants.<module>``.

``tests/mutants/`` holds the deliberately broken variants and their registry
(``mutants.MUTANTS``): small subclasses the suite must kill, importable from
tests only, run by ``tests/test_kill_matrix.py``.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).parent))
