"""Cold set-up probe: import the CLI and decode scenario files without running them.

    PYTHONPATH=src python3 perfbench/setup_probe.py SCENARIO.json [SCENARIO.json ...]

The caller times the whole process: interpreter start, `import orbitlab.cli`,
JSON load, `Scenario.from_dict` and the decode of every vector, seminorm, disk
and operator in each payload.
"""

import importlib
import json
import sys

VECTOR_LISTS = ("a", "b", "basis", "generators", "probes", "targets")
VECTORS = ("x", "y", "x0")


def decode_payload(serialize, payload: dict, mode: str) -> int:
    """Decode every value object in a payload; returns how many were decoded."""
    count = 0
    for key, value in payload.items():
        if key in VECTOR_LISTS:
            count += len([serialize.decode_vector(v, mode) for v in value])
        elif key in VECTORS:
            serialize.decode_vector(value, mode)
            count += 1
        elif key == "p":
            serialize.decode_seminorm(value, mode)
            count += 1
        elif key == "disk":
            serialize.decode_disk(value, mode)
            count += 1
        elif key == "operator":
            serialize.decode_operator(value, mode)
            count += 1
        elif key == "common":
            count += decode_payload(serialize, value, mode)
    return count


def main(paths) -> int:
    importlib.import_module("orbitlab.cli")
    serialize = importlib.import_module("orbitlab.serialize")
    scenarios = importlib.import_module("orbitlab.scenarios")
    decoded = 0
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            scenario = scenarios.Scenario.from_dict(json.load(handle))
        decoded += decode_payload(serialize, scenario.payload, scenario.scalar_mode)
    if decoded == 0:
        sys.stderr.write("setup probe decoded nothing\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
