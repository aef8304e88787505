"""Scalar reference for the G1-orbit canonicaliser.

Finds the orbit of an element by dividing out its leading Teichmuller
digit (from ring_oracle.padic_coords) with RingElement multiplication, then looking
the quotient up among the rows of orbit_representatives.  It shares no
code with the vectorised digit-ratio map it checks.
"""

from grcayley import orbit_representatives
from ring_oracle import padic_coords


def orbit_row_oracle(ctx):
    """Function from a RingElement to its row of orbit_representatives(ctx)."""
    digits, _ = orbit_representatives(ctx)
    row_of = {tuple(int(c) for c in row): i for i, row in enumerate(digits)}
    order = ctx.p**ctx.r - 1

    def row(a):
        coords = padic_coords(a)
        if coords.valuation == ctx.e:
            return 0
        lead = coords.digits[coords.valuation]
        return row_of[(a * lead ** (order - 1)).coeffs]

    return row


def vertex_distances(spec, dist):
    """Per-orbit distances expanded to one distance per vertex."""
    row = orbit_row_oracle(spec.ctx)
    return [int(dist[row(spec.ctx.from_index(v))]) for v in range(spec.n)]
