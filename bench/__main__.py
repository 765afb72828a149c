"""``python3 -m bench``: the one command (see ``bench/README.md``)."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # Without the program there is nothing to measure; say so and fail.
    sys.stderr.write(f"bench: no program to measure: {ROOT / 'src' / 'repro'} is missing\n")
    raise SystemExit(2)
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench.cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
