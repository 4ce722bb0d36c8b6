"""One set-up sample in a fresh interpreter: import balex, then parse and
validate the market documents read from standard input (one JSON text per
line).  Prints the seconds both steps took.

Usage: python3 perfbench/setup_probe.py <src directory> < documents.jsonl
"""

import sys
import time


def main() -> int:
    src = sys.argv[1]
    docs = sys.stdin.read().splitlines()
    sys.path.insert(0, src)
    start = time.perf_counter()
    import json

    from balex import model

    for text in docs:
        instance, prefs = model.market_from_json(json.loads(text))
        model.trichotomous_profile(instance, prefs)
    elapsed = time.perf_counter() - start
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
