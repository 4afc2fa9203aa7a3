"""Equality grid for the exact counter: every count and cap hit, pinned by digest.

Runs count_exact on the 291 shapes with m <= 7, n <= 12, 1 <= s <= 12 and
t <= 16 (in m, n, s order) under 7 cap settings, serializes each result as
[m, s, n, t, caps, str(count) or [kind, limit, used]] and compares the
sha256 of json.dumps of that list with DIGEST.  A change to the exact
counter must leave every count and the kind/limit/used of every cap hit as
they were.  Exits 1 on a mismatch.

    PYTHONPATH=src python tests/exact_grid.py [--dump FILE]

--dump writes the JSON, to diff against a run of another checkout.  pytest
does not collect this file; it takes about 10 s.
"""

import argparse
import hashlib
import json
import sys

from contab.core import ResourceLimitError, make_spec
from contab.exact import count_exact

CAPS = [{}, {"max_work": 1000}, {"max_states": 40},
        {"max_work": 5000, "max_states": 300}, {"max_states": 5},
        {"max_work": 30}, {"max_states": 12, "max_work": 25}]
DIGEST = "cae8cd0db17986e3dc812e66a587763459587478ac02d3a9879bcb7283525210"


def grid() -> list:
    rows = []
    for m in range(1, 8):
        for n in range(1, 13):
            for s in range(1, 13):
                t, r = divmod(m * s, n)
                if r or not 1 <= t <= 16:
                    continue
                for caps in CAPS:
                    try:
                        result = str(count_exact(make_spec(m, s, n, t), **caps))
                    except ResourceLimitError as err:
                        result = [err.kind, err.limit, err.used]
                    rows.append([m, s, n, t, caps, result])
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="FILE", help="write the results as JSON")
    args = parser.parse_args()
    text = json.dumps(grid())
    if args.dump:
        with open(args.dump, "w") as out:
            out.write(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != DIGEST:
        print(f"exact grid changed: sha256 {digest}, pinned {DIGEST}", file=sys.stderr)
        return 1
    print(f"exact grid unchanged: {len(json.loads(text))} results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
