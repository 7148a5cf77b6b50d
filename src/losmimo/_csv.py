"""The one CSV format of every table the package writes."""

from __future__ import annotations

import numpy as np


def _row_format(kinds: tuple) -> tuple[str, bool]:
    """The ``%`` format of a row whose cells have types ``kinds``, and whether
    it has empty cells, whose ``None`` values the format takes no argument for."""
    cells = ["" if kind is type(None) else "%d" if issubclass(kind, (int, np.integer))
             else "%.12g" for kind in kinds]
    return ",".join(cells) + "\n", type(None) in kinds


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` (an iterable of rows, or a 2-D array) to
    ``path``: integers as integers, other numbers to 12 significant digits and
    ``None`` as an empty cell."""
    if isinstance(rows, np.ndarray):
        rows = rows.tolist()  # Python numbers format faster than NumPy scalars
    formats = {}
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            kinds = tuple(map(type, row))
            fmt, empty = formats.get(kinds) or formats.setdefault(kinds, _row_format(kinds))
            f.write(fmt % (tuple(x for x in row if x is not None) if empty else tuple(row)))
