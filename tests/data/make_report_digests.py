"""Write `report-digests.json`: per ladder rung, seed 0, 1 and 7 and
`require_compatible` True and False, the SHA-256s of the JSON and the text
of its `run_pipeline` report (`reference.report_digest`).

Run from the repository root:

    PYTHONPATH=src python tests/data/make_report_digests.py
"""

import json
import sys
from pathlib import Path

DATA = Path(__file__).resolve().parent
sys.path.insert(0, str(DATA.parent))

from reference import ladder_matrices, report_digest  # noqa: E402


def main() -> None:
    digests = {f"{name}:seed{seed}:{'compatible' if compatible else 'sampled'}":
               report_digest(b, seed, compatible)
               for name, b in ladder_matrices().items()
               for seed in (0, 1, 7) for compatible in (True, False)}
    (DATA / "report-digests.json").write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
