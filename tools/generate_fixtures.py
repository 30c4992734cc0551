#!/usr/bin/env python3
"""Regenerate the bundled 200x30 fixture datasets (deterministic, seed 0)."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from proxrestart import dataio  # noqa: E402

OUT = os.path.join(os.path.dirname(__file__), "..", "src", "proxrestart", "data")


def main():
    os.makedirs(OUT, exist_ok=True)
    for kind in dataio.SYNTHETIC_KINDS:
        dataset = dataio.generate_synthetic(kind, 200, 30, seed=0)
        path = os.path.join(OUT, f"{kind}.libsvm")
        dataio.dump_libsvm(dataset, path)
        print(f"wrote {path} ({dataset.n_rows}x{dataset.n_cols}, nnz={dataset.features.nnz})")


if __name__ == "__main__":
    main()
