"""The BFS on element tuples, the oracle for the BFS on coordinate rows.

It does one ``mul`` per product, deduplicates on the elements in a set, and
sorts each new sphere by ``encode``: slow, and independent of the rows, the
codec and ``row_keys``.
"""

from cayleylab.groups import order_cap


def tuple_bfs(group, gens, max_radius=None, cap=None):
    """(elements, sphere_sizes, truncated, capped) of the ball out to max_radius
    (or closure), stopping before a sphere that would take it past the cap."""
    limit = order_cap(cap)
    mul, enc = group.mul, group.encode
    e = group.identity()
    elements = [e]
    seen = {e}
    spheres = [1]
    frontier = [e]
    truncated = False
    capped = False
    while True:
        if max_radius is not None and len(spheres) - 1 >= max_radius:
            truncated = True
            break
        fresh = {mul(s, x) for x in frontier for s in gens.elements}.difference(seen)
        if len(elements) + len(fresh) > limit:
            truncated = True
            capped = True
            break
        if not fresh:
            break
        frontier = sorted(fresh, key=enc)
        elements += frontier
        seen |= fresh
        spheres.append(len(fresh))
    return tuple(elements), tuple(spheres), truncated, capped
