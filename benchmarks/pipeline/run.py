"""``python3 benchmarks/pipeline/run.py`` — the benchmark command; see cli.py."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.pipeline.cli import main  # noqa: E402 — needs the path above

if __name__ == "__main__":
    sys.exit(main())
