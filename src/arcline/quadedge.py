"""Quad-edge data structure (Guibas-Stolfi) for planar subdivisions.

Edges are integers.  Each undirected edge occupies a quadruple of slots:
slot 0 is the canonical directed edge, slot 1 its dual, slot 2 the reversed
edge, slot 3 the reversed dual.  Vertex origins are stored for the two
primal slots only.  `splice` is the single topology operator.

The operators compute the slot arithmetic inline: sym(e) = e ^ 2,
rot(e) = (e & ~3) | ((e + 1) & 3) and its inverse
(e & ~3) | ((e + 3) & 3).
"""

from __future__ import annotations


def sym(e: int) -> int:
    return e ^ 2


class QuadEdgeStore:
    __slots__ = ("onext", "org", "alive")

    def __init__(self):
        self.onext: list[int] = []
        self.org: list[int] = []  # vertex id at primal slots, -1 at dual slots
        self.alive: list[bool] = []  # one flag per quadruple

    def make_edge(self, a: int, b: int) -> int:
        """Create an isolated edge from vertex a to vertex b."""
        base = len(self.onext)
        e, erot, esym, etor = base, base + 1, base + 2, base + 3
        self.onext.extend((e, etor, esym, erot))
        self.org.extend((a, -1, b, -1))
        self.alive.append(True)
        return e

    def dest(self, e: int) -> int:
        return self.org[e ^ 2]

    def lnext(self, e: int) -> int:
        """rot(onext[invrot(e)])."""
        r = self.onext[(e & ~3) | ((e + 3) & 3)]
        return (r & ~3) | ((r + 1) & 3)

    def rprev(self, e: int) -> int:
        return self.onext[e ^ 2]

    def splice(self, a: int, b: int) -> None:
        onext = self.onext
        na, nb = onext[a], onext[b]
        alpha = (na & ~3) | ((na + 1) & 3)
        beta = (nb & ~3) | ((nb + 1) & 3)
        onext[a], onext[b] = nb, na
        onext[alpha], onext[beta] = onext[beta], onext[alpha]

    def connect(self, a: int, b: int) -> int:
        """New edge from dest(a) to org(b) keeping both faces consistent."""
        e = self.make_edge(self.org[a ^ 2], self.org[b])
        self.splice(e, self.lnext(a))
        self.splice(e ^ 2, b)
        return e

    def delete_edge(self, e: int) -> None:
        """Detach e from both its ends: each end is spliced with its
        oprev, rot(onext[rot(e)])."""
        onext = self.onext
        for d in (e, e ^ 2):
            r = onext[(d & ~3) | ((d + 1) & 3)]
            self.splice(d, (r & ~3) | ((r + 1) & 3))
        self.alive[e >> 2] = False

    def primal_edges(self):
        """Yield one canonical directed edge per live undirected edge."""
        for q in range(len(self.alive)):
            if self.alive[q]:
                yield q << 2

    def face_cycle(self, e: int) -> list[int]:
        """Edges of the left face of e, walked via lnext."""
        out = [e]
        cur = self.lnext(e)
        while cur != e:
            out.append(cur)
            cur = self.lnext(cur)
        return out
