"""Rewrite ``tests/golden/train`` from the code as it is now.

Run from the root of a checkout, for a change that moves what training
computes on purpose, and write the old and new values into CHANGES.md::

    PYTHONPATH=src python tests/regenerate_train_golden.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from test_golden import GOLDEN, TRAIN_WINDOWS, train_golden, write_train_data  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as work:
        write_train_data(Path(work) / "data")
        for window in TRAIN_WINDOWS:
            out = GOLDEN / "train" / f"w{window}"
            out.mkdir(parents=True, exist_ok=True)
            files = train_golden(Path(work) / "data", Path(work) / f"run{window}", window)
            for name, text in files.items():
                (out / name).write_text(text, encoding="utf-8")
            print(f"wrote {out}")


if __name__ == "__main__":
    main()
