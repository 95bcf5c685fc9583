"""setup_s: fresh processes that only import exactdyn, timed between rounds.

The machine's speed drifts by up to 2x over spells of a few seconds, so
probes taken back to back all land in one spell.  Spreading them over
the timed phase, outside any query, samples every spell the queries saw.
"""

from __future__ import annotations

import math
import subprocess
import sys
from time import perf_counter

COUNT = 21
CODE = {
    "exact": "import exactdyn",
    "measured": "import exactdyn",
    "programs": "import exactdyn; from exactdyn import murec; "
    "[murec.builtin_program(n) for n in murec.BUILTIN_PROGRAMS]",
    "cli": "import exactdyn.cli",
}


class SetupProbes:
    """Runs ``COUNT`` probes, paced by the share of the timed phase that is done.

    Each probe prints how long its own import took, which gives
    ``cli.import_ms`` for the ``cli`` workload.
    """

    def __init__(self, workload: str, env: dict, cwd: str) -> None:
        self.argv = [
            sys.executable, "-c",
            f"import time; t = time.perf_counter(); {CODE[workload]}; print(time.perf_counter() - t)",
        ]
        self.env, self.cwd = env, cwd
        self.walls: list[float] = []
        self.imports: list[float] = []

    def due(self, share_done: float) -> None:
        while len(self.walls) < math.ceil(COUNT * min(share_done, 1.0)):
            start = perf_counter()
            done = subprocess.run(self.argv, capture_output=True, text=True, env=self.env, cwd=self.cwd)
            self.walls.append(perf_counter() - start)
            if done.returncode != 0:
                raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
            self.imports.append(float(done.stdout))
