"""Host-speed adjustment of in-process op timings.

On a shared 2-vCPU virtual machine (2.1 GHz), the host switches every few
seconds between its usual speed and spells in which interpreter work takes
about 1.7x as long.  A 20-second run catches these spells in varying
proportion, so raw wall times of one commit spread by 20-30% from run to
run.  A fixed stretch of interpreter work, the probe, slows in the same
spells.  So for ops that run in the worker's own process, each op's wall
time is scaled by ``REFERENCE_PROBE_S / probe``, with the probe timed just
before and just after the op.  Adjusted times read as milliseconds on a
host whose probe takes REFERENCE_PROBE_S, about that machine's usual speed.
Ops that run in a child process are not adjusted: the probe does not see
their speed, and process start-up did not swing this way there.  Raw wall
times are kept in the run record.
"""

from __future__ import annotations

import json
import time

REFERENCE_PROBE_S = 0.002


# a trace-like document: rendering it with an indent runs the pure-Python
# JSON encoder, a broad mix of calls, dict walks and string building
_SAMPLE = [
    {"rule": "hbm_cartesian", "dim": i % 7, "candidates": [{"blocks": [2, 1], "value": str(i)}] * 3}
    for i in range(70)
]


def probe() -> float:
    """Seconds for a fixed stretch of interpreter work (about 2 ms)."""
    start = time.perf_counter()
    json.dumps(_SAMPLE, indent=2)
    return time.perf_counter() - start
