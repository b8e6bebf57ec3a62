"""Rewrite pins.json from the program as it is now.

    python3 perfbench/pin.py

Run this only when a change is meant to alter the pinned outputs (a new
scenario generator, or a deliberate change of simulated behaviour), and
say so in the change: every benchmark run fails its pinned checks until
the pins match the program again.
"""

import json

from run import import_program


def main():
    import_program()
    import workloads  # importable once import_program() set the path

    values = {}
    for cls in workloads.WORKLOADS.values():
        values.update(cls(workloads.PIN_SEED).pin_values(workloads.Ledger()))
    with open(workloads.PINS_PATH, "w") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(values, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
