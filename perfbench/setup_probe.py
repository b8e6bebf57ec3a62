"""Set one workload up in a fresh process and exit: the work `setup_s` times.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports the program, generates or loads the scenario and builds the
environment (and, for training, the networks), exactly as a benchmark run
does before it starts measuring.
"""

import sys

from run import import_program


def main():
    import_program()
    import workloads  # importable once import_program() set the path

    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))


if __name__ == "__main__":
    main()
