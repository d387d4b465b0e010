#!/usr/bin/env python3
"""Write configs/spectrum_deep.json with its fixed list of deep frequencies.

    python3 bench/make_deep_xis.py

The CLI draws its random frequencies as 64-bit values, so frequencies of up
to 10^80, which reach about 60 levels of the depth-105 schedule and the
big-int reduction in the transform, can only be given as an explicit
``fourier.xis`` list. Frequency i is a SHA-512 digest of its index reduced
mod 10^80, so the list is the same on every machine and Python version.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

COUNT = 1000
XI_MAX = 10**80


def deep_xi(i: int) -> int:
    return int.from_bytes(hashlib.sha512(b"spectrum_deep %d" % i).digest(), "big") % XI_MAX + 1


def main() -> None:
    cfg = {
        "schedule": {"d": 2, "count": 14},
        "fourier": {"xis": [deep_xi(i) for i in range(COUNT)], "eps": 1e-12},
        "workers": 2,
    }
    path = Path(__file__).resolve().parent / "configs" / "spectrum_deep.json"
    path.write_text(json.dumps(cfg) + "\n")


if __name__ == "__main__":
    main()
