"""Put this checkout's ``src`` on PYTHONPATH, so that child processes the tests
start (``python -m subens``) import the package without an install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
