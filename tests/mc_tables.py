"""Pinned draws of the sampler: the tables it samples and their log weights.

Draws 2000 samples at seed 7 on each of (10,20,10,20), (3,100,3,100) and
(30,3,30,3), the benchmark's shapes, and compares the sha256 of every
sampled table, as little-endian int64 entries in sample, row, column order
after a "m s n t" header per shape, with DIGEST.  A change to the sampler
must leave every draw as it was.  The integer tables are hashed, not the log
weights: the last bits of numpy's exp and log depend on the CPU's SIMD path,
and a draw's table does not.  The log weights are pinned by their sum and
maximum per shape, in WEIGHTS, to a relative 1e-12, so a change that keeps
the draws but moves their weights fails too.  Exits 1 on a mismatch.

    PYTHONPATH=src python tests/mc_tables.py [--dump FILE]

--dump writes the tables as JSON, to diff against a run of another
checkout.  pytest does not collect this file; it takes about a second.
"""

import argparse
import hashlib
import json
import sys

import numpy as np

from contab.core import make_spec
from contab.montecarlo import _weight_chunks

SHAPES = [(10, 20, 10, 20), (3, 100, 3, 100), (30, 3, 30, 3)]
SAMPLES = 2000
SEED = 7
DIGEST = "3cbaa4de0fef89a69fc390c24a97c4aa060ff280db4c131f1b5828d3eea69245"
# (sum, max) of each shape's log weights, in SHAPES order
WEIGHTS = [(271878.06201322406, 136.25374711686857),
           (32800.325399830646, 16.449667255416767),
           (425257.64225887624, 212.9486643756826)]
WEIGHT_RTOL = 1e-12


def draws() -> tuple[dict, dict]:
    """The sampled tables, (SAMPLES, m, n) int64, and log weights of each shape, by header."""
    tables, weights = {}, {}
    for quad in SHAPES:
        header = " ".join(map(str, quad))
        chunks = list(_weight_chunks(make_spec(*quad), SAMPLES, SEED, want_tables=True))
        weights[header] = np.concatenate([logw for logw, _t in chunks])
        tables[header] = np.concatenate([block for _w, block in chunks])
    return tables, weights


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="FILE", help="write the tables as JSON")
    args = parser.parse_args()
    tables, weights = draws()
    sha = hashlib.sha256()
    for header, block in tables.items():
        sha.update(header.encode())
        sha.update(block.astype("<i8").tobytes())
    if args.dump:
        with open(args.dump, "w") as out:
            json.dump({header: block.tolist() for header, block in tables.items()}, out)
    digest = sha.hexdigest()
    failed = digest != DIGEST
    if failed:
        print(f"sampled tables changed: sha256 {digest}, pinned {DIGEST}", file=sys.stderr)
    for (header, logw), pinned in zip(weights.items(), WEIGHTS):
        got = (float(logw.sum()), float(logw.max()))
        if any(abs(g - p) > WEIGHT_RTOL * abs(p) for g, p in zip(got, pinned)):
            print(f"log weights of {header} changed: (sum, max) {got}, pinned {pinned}",
                  file=sys.stderr)
            failed = True
    if failed:
        return 1
    print(f"sampled tables and log weights unchanged: {SAMPLES} samples on "
          f"{len(SHAPES)} shapes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
