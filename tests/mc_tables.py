"""Pinned draws of the sampler: the tables it samples, pinned by digest.

Draws 2000 samples at seed 7 on each of (10,20,10,20), (3,100,3,100) and
(30,3,30,3), the benchmark's shapes, and compares the sha256 of every
sampled table, as little-endian int64 entries in sample, row, column order
after a "m s n t" header per shape, with DIGEST.  A change to the sampler
must leave every draw as it was.  The integer tables are hashed, not the log
weights: the last bits of numpy's exp and log depend on the CPU's SIMD path,
and a draw's table does not.  Exits 1 on a mismatch.

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


def draws() -> dict:
    """The sampled tables of each shape, (SAMPLES, m, n) int64, by header."""
    return {" ".join(map(str, quad)): np.concatenate(
                [tables for _w, tables in _weight_chunks(make_spec(*quad), SAMPLES, SEED,
                                                         want_tables=True)])
            for quad in SHAPES}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="FILE", help="write the tables as JSON")
    args = parser.parse_args()
    tables = draws()
    sha = hashlib.sha256()
    for header, block in tables.items():
        sha.update(header.encode())
        sha.update(block.astype("<i8").tobytes())
    if args.dump:
        with open(args.dump, "w") as out:
            json.dump({header: block.tolist() for header, block in tables.items()}, out)
    digest = sha.hexdigest()
    if digest != DIGEST:
        print(f"sampled tables changed: sha256 {digest}, pinned {DIGEST}", file=sys.stderr)
        return 1
    print(f"sampled tables unchanged: {SAMPLES} samples on {len(SHAPES)} shapes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
