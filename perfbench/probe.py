"""Machine-speed probe: a fixed pure-Python loop that does not touch wfano.

Usage: python3 perfbench/probe.py

Prints the loop's wall time in seconds.  run.py launches it in a fresh
interpreter right before and after every pass and divides the pass's wall
times by the ratio of the mean probe time to its nominal value, so that a
shared host that slows down for a while does not read as a slower program.
"""

import time


def main() -> None:
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += (i * i) % 7
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
