"""Set-up probe: import deragg, load the scenario files given as arguments,
then print ``ready``.  ``run.py`` times fresh interpreters running this
file from start to ``ready`` and reports the median as ``setup_s``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import deragg  # noqa: E402,F401
from deragg.scenario import load_scenario  # noqa: E402

for path in sys.argv[1:]:
    load_scenario(path)
sys.stdout.write("ready\n")
sys.stdout.flush()
