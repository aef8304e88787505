"""Per-edge reference for export_edges.

Forms u + S as a (rows, d, r) digit sum reduced mod q, reads the flat
indices back through indices_from_digits, and writes each edge u < v with
its own f-string, so it shares neither the per-digit neighbour tables nor
the decimal formatting of the vectorised writer it checks.
"""

import numpy as np

from grcayley.cayley import BLOCK_PAIRS
from grcayley.errors import IntegrityError
from grcayley.ring import coeff_string


def export_edges(spec, sink):
    """Write the undirected edge list as text and return the edge count.

    One header line `# p e r gamma n d`, then one `u v` line per edge with
    u < v, sorted by u then v.
    """
    ctx = spec.ctx
    sink.write(
        f"# {ctx.p} {ctx.e} {ctx.r} {coeff_string(spec.gamma)} {spec.n} {spec.d}\n"
    )
    count = 0
    rows = max(1, BLOCK_PAIRS // spec.d)
    for lo in range(0, spec.n, rows):
        block = np.arange(lo, min(lo + rows, spec.n), dtype=np.int64)
        nb = ctx.digits_of(block)[:, None, :] + spec.s_digits
        nb %= ctx.q
        targets = ctx.indices_from_digits(nb)
        targets.sort(axis=1)
        for row, u in enumerate(block):
            u = int(u)
            for w in targets[row]:
                w = int(w)
                if w > u:
                    sink.write(f"{u} {w}\n")
                    count += 1
    expected = spec.n * spec.d // 2
    if count != expected:
        raise IntegrityError(f"wrote {count} edges, expected {expected}")
    return count
