import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")

# Tests that run ``python -m qwhitney`` in a subprocess need the package on
# the child's path too; the pytest ``pythonpath`` setting covers only this
# process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
