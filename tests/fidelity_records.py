"""Test helper: write fidelity records in the CSV layout that
cloning.load_fidelity_csv reads."""

from qclink import cloning


def save_fidelity_csv(path, data):
    """Write (mu_in, mu_out, fidelity) rows under the mu_in,mu_out,fidelity
    header, each number at full precision."""
    lines = [",".join(cloning.CSV_HEADER)]
    lines += [",".join(repr(float(v)) for v in row) for row in data]
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
