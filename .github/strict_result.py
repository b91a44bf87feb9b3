"""Check a benchmark result line read from stdin; exit 1 unless it is usable.

The line must be strict JSON (no NaN or Infinity), with ``correct`` true and
a number as every metric's value. Run as

    python3 bench/run.py --workload W --seed 1 --seconds 1 --trace 1 | tail -n 1 | python3 .github/strict_result.py
"""

import json
import sys


def refuse(constant):
    raise ValueError(f"{constant} is not a number in strict JSON")


result = json.loads(sys.stdin.read(), parse_constant=refuse)
missing = sorted(name for name, metric in result["metrics"].items() if not isinstance(metric["value"], (int, float)))
if result["correct"] is not True or missing:
    sys.exit(f"correct: {result['correct']}; metrics without a number: {', '.join(missing) or 'none'}")
print(f"correct, {len(result['metrics'])} numeric metrics")
