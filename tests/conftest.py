"""Puts ``perfbench/`` on the import path, so that the tests can compare the
package with ``oracle``, the independent reference the benchmark checks
against; it shares no code with blockperm."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
