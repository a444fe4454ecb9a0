"""Fixed reference computation: how fast the shared host runs right now.

    python3 perfbench/reference.py

perfbench/run.py runs this in a fresh interpreter right after every
workload repetition, and scales every time of that repetition by
REF_S / (this process's wall time). A slow phase of the host slows the
workload and the reference alike, so the scaled times move with metron,
not with the host. The work mirrors metron's mix: interpreter start and
the numpy import, scalar Python arithmetic filling small arrays for 4x4
products (as in RK4 transport), and tuple-keyed dictionary interning (as
in the expression layer). It imports nothing from metron, so no change
to metron changes it.
"""
import numpy as np


def kernel(steps: int = 6000, keys: int = 150_000):
    y = np.eye(4)
    for step in range(steps):
        x = step * 1e-4
        m = np.empty((4, 4))
        for i in range(4):
            for j in range(4):
                m[i, j] = (x * (i + 1) - j * 0.5) / (1.0 + x * x)
        y = y + 1e-4 * (m @ y)
    table = {}
    for k in range(keys):
        key = (k % 997, (k * 7) % 89, "mul")
        if key not in table:
            table[key] = (key, k)
    return y, table


if __name__ == "__main__":
    kernel()
