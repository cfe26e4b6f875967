"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` at the root of the checkout is the one list of them;
a run must emit every metric it names, with that unit.
"""

import json
import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    MANIFEST = json.load(_fh)

#: End-to-end metrics, printed by untraced runs.
END_TO_END = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}

#: Per-layer metrics, printed by traced runs.
PER_LAYER = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}


def render(values, units):
    """``{name: {"value": v, "unit": u}}`` for exactly the names in
    ``units``; a missing value is an error, not a silent zero."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError("metrics not measured: %s" % ", ".join(missing))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}
