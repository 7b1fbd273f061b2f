"""Puts ``tests/`` on ``sys.path`` so test modules can ``import mutants.<module>``.

``tests/mutants/`` is the registry of deliberately broken variants (ROADMAP
item 1): small subclasses the suite must kill, importable from tests only.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).parent))
