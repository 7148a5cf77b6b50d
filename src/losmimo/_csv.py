"""The one CSV format of every table the package writes."""

from __future__ import annotations

import numpy as np


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path``: integers as integers, other
    numbers to 12 significant digits and ``None`` as an empty cell."""
    def cell(x) -> str:
        if x is None:
            return ""
        return str(int(x)) if isinstance(x, (int, np.integer)) else f"{x:.12g}"

    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(cell, row)) + "\n")
