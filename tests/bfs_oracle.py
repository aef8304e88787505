"""Reference for bfs_distances: the top-down orbit BFS without early exit.

Each level maps all d neighbours of one representative per frontier orbit,
or of every unseen orbit when those are fewer, to their orbit rows, so it
never stops a row at its first parent and never estimates which side is
cheaper.
"""

import numpy as np

from orbit_oracle import orbit_representatives
from grcayley.cayley import BLOCK_PAIRS
from grcayley.spectrum import orbit_row_map


def bfs_distances(spec):
    """One distance from 0 per orbit row in orbit_row_map's numbering, -1
    where unreachable; each row's digits come from the table of
    orbit_oracle.orbit_representatives, not from spectrum.orbit_digits."""
    ctx = spec.ctx
    digits, _ = orbit_representatives(ctx)
    orbit_of = orbit_row_map(ctx)
    dist = np.full(len(digits), -1, dtype=np.int64)
    dist[0] = 0
    frontier = np.zeros(1, dtype=np.int64)
    reached, level = 1, 0
    block = max(1, BLOCK_PAIRS // spec.d)
    while frontier.size and reached < spec.n:
        level += 1
        unseen = np.flatnonzero(dist < 0)
        # an unseen orbit is at this level exactly when a neighbour is at
        # the previous one
        upward = unseen.size < frontier.size
        source = unseen if upward else frontier
        for lo in range(0, source.size, block):
            part = source[lo : lo + block]
            nb = digits[part, None, :] + spec.s_digits
            nb %= ctx.q
            rows = orbit_of(nb.reshape(-1, ctx.r))
            if upward:
                near = (dist[rows] == level - 1).reshape(part.size, spec.d)
                dist[part[near.any(axis=1)]] = level
            else:
                dist[rows[dist[rows] < 0]] = level
        frontier = np.flatnonzero(dist == level)
        reached += frontier.size * (ctx.p**ctx.r - 1)
    return dist
