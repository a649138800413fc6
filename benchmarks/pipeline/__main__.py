"""``python -m benchmarks.pipeline`` — the benchmark command; see cli.py."""

import sys

from benchmarks.pipeline.cli import main

sys.exit(main())
