"""Finite quivers, paths and lexicographic path bases.

A path of positive length is its word: the tuple of its arrow indices in
traversal order (initial arrow first).  Paths compose right to left: the
product written ``b*a`` traverses `a` first, so the written word is the
reverse of the tuple.  A basis of paths from x knows x, so a word never
carries its start vertex; the word of length 0 is ``()``.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


class Quiver:
    """A finite quiver with ordered vertices and arrows."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(Arrow(*a) if not isinstance(a, Arrow) else a for a in arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow ids")
        vset = set(self.vertices)
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ValueError(f"arrow {a.name} uses undeclared vertex")
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        self._aindex = {a.name: i for i, a in enumerate(self.arrows)}
        self._out = {v: tuple(i for i, a in enumerate(self.arrows) if a.source == v)
                     for v in self.vertices}
        self._into = {v: tuple(i for i, a in enumerate(self.arrows) if a.target == v)
                      for v in self.vertices}

    def arrow(self, name: str) -> Arrow:
        return self.arrows[self._aindex[name]]

    def arrow_index(self, name: str) -> int:
        return self._aindex[name]

    def out_arrows(self, v):
        return self._out[v]

    def in_arrows(self, v):
        return self._into[v]

    def opposite(self) -> "Quiver":
        return Quiver(self.vertices,
                      [Arrow(a.name, a.target, a.source) for a in self.arrows])

    def word(self, word) -> str:
        """The written form ``b*a`` of a word of positive length."""
        return "*".join(self.arrows[i].name for i in reversed(word))

    def __eq__(self, other):
        return (isinstance(other, Quiver) and self.vertices == other.vertices
                and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.vertices, self.arrows))

    def __repr__(self):
        return f"Quiver({len(self.vertices)} vertices, {len(self.arrows)} arrows)"

    def adjacency_power_count(self, n: int, x, y) -> int:
        """Brute-force |Q_n(x, y)| via powers of the adjacency matrix."""
        size = len(self.vertices)
        adj = [[0] * size for _ in range(size)]
        for a in self.arrows:
            adj[self._vindex[a.target]][self._vindex[a.source]] += 1
        acc = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        for _ in range(n):
            acc = [[sum(adj[i][k] * acc[k][j] for k in range(size)) for j in range(size)]
                   for i in range(size)]
        return acc[self._vindex[y]][self._vindex[x]]


class PathBasis:
    """The words of Q_n(x, y) in lexicographic order, and each one's position."""

    def __init__(self, words: tuple[tuple[int, ...], ...]):
        self.words = words
        self.index = {w: i for i, w in enumerate(words)}

    def __len__(self):
        return len(self.words)


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_basis_counts = [0, 0]      # hits and misses of PathEnumerator.basis, over all enumerators


class PathEnumerator:
    """Caches path bases of a quiver up to a degree cap, in the instance's own dicts."""

    def __init__(self, quiver: Quiver, degree_cap: int = 8):
        self.quiver = quiver
        self.degree_cap = degree_cap
        self._layers = {}       # (n, x) -> (words, {end vertex: words ending there})
        self._bases = {}

    def _layer(self, n: int, x):
        """The words of length n from x, in lexicographic order, and the same
        words grouped by end vertex, each group keeping that order."""
        if n > self.degree_cap:
            raise ValueError(f"degree {n} exceeds cap {self.degree_cap}")
        key = (n, x)
        if key in self._layers:
            return self._layers[key]
        if n == 0:
            words = [()]
            ends = {x: words}
        else:
            arrows, words, ends = self.quiver.arrows, [], {}
            for p in self._layer(n - 1, x)[0]:
                for a in self.quiver.out_arrows(arrows[p[-1]].target if p else x):
                    word = p + (a,)
                    words.append(word)
                    ends.setdefault(arrows[a].target, []).append(word)
        layer = self._layers[key] = (words, {y: tuple(g) for y, g in ends.items()})
        return layer

    def basis(self, n: int, x, y) -> PathBasis:
        found = self._bases.get((n, x, y))
        _basis_counts[found is None] += 1
        if found is None:
            found = self._bases[(n, x, y)] = PathBasis(self._layer(n, x)[1].get(y, ()))
        return found

    # the counts in the shape of `functools.lru_cache`'s; perfbench/tracer.py reads them
    basis.cache_info = lambda: _CacheInfo(*_basis_counts, None, None)
