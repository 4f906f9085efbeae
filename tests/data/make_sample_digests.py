"""Write `sample-digests.json`: per map of `reference.sample_digest_maps`
and seed 0 and 10000, the count and SHA-256 of the (p, dM, d) stream of
`geometry._sample_points(phi, 20, seed)` (`reference.sample_digest`).

Run from the repository root:

    PYTHONPATH=src python tests/data/make_sample_digests.py
"""

import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
sys.path.insert(0, str(DATA.parent))

from reference import sample_digest, sample_digest_maps  # noqa: E402


def main() -> None:
    digests = {f"{name}:seed{seed}": sample_digest(phi, seed)
               for name, phi in sample_digest_maps().items() for seed in (0, 10_000)}
    (DATA / "sample-digests.json").write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
