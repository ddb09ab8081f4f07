"""The row-by-row CSV writer that cli._write_csv replaced: the oracle
for the block writer's bytes.

Each row of the transposed columns is formatted cell by cell through a
type dispatch and joined on its own.
"""

import numpy as np


def fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_text(table):
    """CSV text of a table of named columns, one row at a time."""
    lines = [",".join(table)]
    lines += [",".join(map(fmt_cell, row)) for row in zip(*table.values())]
    return "".join(line + "\n" for line in lines)
