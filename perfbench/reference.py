"""Fixed reference program: its wall time measures how fast the host runs
right now.

    python3 perfbench/reference.py

It never touches ``copulascore``, so its cost is the same on every commit.
Like the workloads it starts an interpreter, imports numpy and
scipy.special, and then spends its time in Python-level loops around small
numpy and ``ndtr`` calls.  :mod:`run` times it from outside between
workload invocations and divides each invocation's wall time by it, which
cancels the host-wide speed swings of a shared machine.
"""

import numpy as np
from scipy.special import ndtr

ROUNDS = 8000

nodes = np.linspace(-4.0, 4.0, 640)
weights = np.full(nodes.size, 1.0 / nodes.size)
total = 0.0
for k in range(ROUNDS):
    total += float(ndtr(nodes * (1.0 + 1e-4 * k)) @ weights)
    total += sum(i * 0.5 for i in range(40))
if not total > 0.0:
    raise SystemExit("reference computation went wrong")
