"""Start-up hook: traces a server or cluster worker the benchmark starts.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one.  The benchmark puts this directory first on
``PYTHONPATH`` only for traced runs, and sets ``PERFBENCH_TRACE_DIR``;
the hook then wraps the service's layer entry points (see
``perfbench/tracing.py``) before any request is served.
"""

import os
import sys

if os.environ.get("PERFBENCH_TRACE_DIR"):
    _bench = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, _bench)
    try:
        import tracing
    finally:
        # Leave the traced program's import path as it found it.
        sys.path.remove(_bench)

    tracing.install_from_env()
