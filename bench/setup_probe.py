"""Set-up time of one workload in a fresh interpreter.

Prints the seconds taken by `import banditlab` plus `harness.parse_config`
of every config of the workload. bench/run.py starts it as a child process.
"""
import argparse
import sys
import time

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--src", required=True)
    args = parser.parse_args()
    texts = [e.ini(args.seed, "out") for e in workloads.WORKLOADS[args.workload]]
    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    from banditlab import harness

    for text in texts:
        harness.parse_config(text)
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
