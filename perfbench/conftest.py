"""Make ``repro`` (from ``src/``) and ``perfbench`` importable for the
benchmark's own tests: ``python -m pytest perfbench``."""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
