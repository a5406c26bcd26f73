"""Set-up probe: a cold start as a CLI user pays it.

    python3 perfbench/probe.py

Imports `toruspert` from `src/` and answers one tiny split and one tiny
oracle question, rendering both as the CLI's JSON output, then prints
one JSON line with the import and warm-up times.  It imports nothing
from the benchmark, so the process's wall time (taken by `run.py`) is
the library's own set-up cost.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import toruspert  # noqa: E402
import toruspert.reports  # noqa: E402

imported = time.perf_counter()
spec = toruspert.PotentialSpec(n=2, alpha=(1.0, 2.0))
toruspert.reports.json_text(toruspert.first_order_corrections(spec, 5, 2).to_dict())
# Order 169 > 128, so the oracle reaches LAPACK and pays its start-up.
spec = toruspert.PotentialSpec(n=2, alpha=(1.0, 1.5))
validation = toruspert.validate_first_order(spec, 1, 2, [1e-2, 1e-3], 6)
toruspert.reports.json_text(validation.to_dict())
done = time.perf_counter()
print(json.dumps({"import_s": imported - _T0, "warmup_s": done - imported,
                  "passed": validation.passed}))
