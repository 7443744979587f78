"""Finite quivers, paths and lexicographic path bases.

Paths compose right to left: the product written ``b*a`` traverses `a`
first.  Internally a path stores its arrows in traversal order, so the
written word is the reverse of the stored tuple.
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


@dataclass(frozen=True)
class Path:
    """A path; `arrows` holds arrow indices in traversal order (initial first)."""

    start: str
    arrows: tuple[int, ...]

    def end(self, quiver: Quiver) -> str:
        return quiver.arrows[self.arrows[-1]].target if self.arrows else self.start

    def terminal_arrow(self) -> int:
        return self.arrows[-1]

    def initial_arrow(self) -> int:
        return self.arrows[0]

    def word(self, quiver: Quiver) -> str:
        if not self.arrows:
            return f"e_{self.start}"
        return "*".join(quiver.arrows[i].name for i in reversed(self.arrows))


class PathBasis:
    """All paths in Q_n(x, y), lexicographically ordered by arrow sequence."""

    def __init__(self, degree: int, source, target, paths: tuple[Path, ...]):
        self.degree = degree
        self.source = source
        self.target = target
        self.paths = paths
        self.index = {p.arrows: i for i, p in enumerate(paths)}

    def __len__(self):
        return len(self.paths)

    def position(self, path: Path) -> int:
        return self.index[path.arrows]


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_basis_counts = [0, 0]      # hits and misses of PathEnumerator.basis, over all enumerators


class PathEnumerator:
    """Caches path bases of a quiver up to a degree cap, in the instance's own dicts."""

    def __init__(self, quiver: Quiver, degree_cap: int = 8):
        self.quiver = quiver
        self.degree_cap = degree_cap
        self._layers = {}       # (n, x) -> (paths, {end vertex: paths ending there})
        self._bases = {}

    def _layer(self, n: int, x):
        """The paths of length n from x, in lexicographic order, and the same
        paths grouped by end vertex, each group keeping that order."""
        if n > self.degree_cap:
            raise ValueError(f"degree {n} exceeds cap {self.degree_cap}")
        key = (n, x)
        if key in self._layers:
            return self._layers[key]
        if n == 0:
            paths = [Path(x, ())]
            ends = {x: paths}
        else:
            paths, ends = [], {}
            for p in self._layer(n - 1, x)[0]:
                for a in self.quiver.out_arrows(p.end(self.quiver)):
                    path = Path(x, p.arrows + (a,))
                    paths.append(path)
                    ends.setdefault(self.quiver.arrows[a].target, []).append(path)
        layer = self._layers[key] = (paths, {y: tuple(g) for y, g in ends.items()})
        return layer

    def basis(self, n: int, x, y) -> PathBasis:
        found = self._bases.get((n, x, y))
        _basis_counts[found is None] += 1
        if found is None:
            paths = self._layer(n, x)[1].get(y, ())
            found = self._bases[(n, x, y)] = PathBasis(n, x, y, paths)
        return found

    # the counts in the shape of `functools.lru_cache`'s; perfbench/tracer.py reads them
    basis.cache_info = lambda: _CacheInfo(*_basis_counts, None, None)
