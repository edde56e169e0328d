"""Benchmark of the cubex engine: one workload, one closed-loop client.

    python3 perfbench/run.py --workload v-ball --seed 7 --seconds 20 --trace 0

Run from the root of a cubex checkout; the library is imported from its
`src/`.  The last line of standard output is the result as JSON.  See
perfbench/README.md.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cubexbench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
