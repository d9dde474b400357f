"""The Rosenkrantz–Hunt constraint graph (Section 4).

A normalized conjunction (all atoms ``≤``/``≥``) is represented as a
directed weighted graph whose nodes are the variables plus a
distinguished zero node; the conjunction is unsatisfiable exactly when
the graph contains a negative-weight cycle.  The paper prescribes
Floyd's all-pairs shortest-path algorithm [F62] for the cycle test;
this module implements Floyd–Warshall (the paper's choice, also used
for the invariant-graph precomputation of Algorithm 4.1) and
Bellman–Ford (asymptotically better for the one-shot sparse case),
which the test suite cross-checks against each other.

Edge encoding
-------------
Following the paper's two-variable convention, the atom ``x ≤ y + c``
becomes the edge ``(x, y, c)`` — origin ``x``, destination ``y``,
weight ``c`` — and ``x ≥ y + c`` (equivalently ``y ≤ x − c``) becomes
``(y, x, −c)``.  Single-variable bounds route through the zero node
``ZERO`` (standing for the constant 0):

* ``x ≤ c``  →  edge ``(x, ZERO, c)``
* ``x ≥ c``  →  edge ``(ZERO, x, −c)``

*Erratum note:* the paper's prose lists the bound edges as
``('0', x, c)`` and ``(x, '0', −c)``, i.e. with origin and destination
swapped relative to its own two-variable convention.  Applying the
two-variable rule uniformly (treat ``x ≤ c`` as ``x ≤ ZERO + c``)
yields the directions used here; with the paper's literal directions
the worked Example 4.1 would come out wrong.  EXPERIMENTS.md records
this as a reproduction erratum.

With this encoding an edge ``(u, v, w)`` asserts ``u − v ≤ w``, so the
telescoped sum around any cycle is ≥ 0 in every solution; a
negative-weight cycle therefore certifies unsatisfiability, and
conversely shortest-path potentials construct a solution when no such
cycle exists (see :meth:`ConstraintGraph.solve`).
"""

from __future__ import annotations

from typing import Iterable

from repro.algebra.conditions import Atom
from repro.errors import ConditionError
from repro.instrumentation import charge

#: The distinguished node standing for the constant zero.
ZERO = "0"

INF = float("inf")


class ConstraintGraph:
    """A directed weighted graph over condition variables plus ``ZERO``.

    Parallel edges collapse to the minimum weight (the tightest
    constraint), which preserves both cycle detection and solutions.
    """

    __slots__ = ("_nodes", "_edges", "_cites")

    def __init__(self, nodes: Iterable[str] = ()) -> None:
        self._nodes: set[str] = set(nodes)
        self._nodes.add(ZERO)
        # (origin, destination) -> weight (minimum over parallel edges)
        self._edges: dict[tuple[str, str], int] = {}
        # (origin, destination) -> the atom that edge's weight came from
        self._cites: dict[tuple[str, str], Atom | None] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom],
                   nodes: Iterable[str] = ()) -> "ConstraintGraph":
        """Build a graph from normalized (``≤``/``≥``) atoms."""
        graph = cls(nodes)
        for atom in atoms:
            graph.add_atom(atom)
        return graph

    def add_edge(
        self, origin: str, destination: str, weight: int, cite: Atom | None = None
    ) -> None:
        """Add ``origin − destination ≤ weight``, keeping the tightest
        and the atom ``cite`` it came from."""
        self._nodes.add(origin)
        self._nodes.add(destination)
        key = (origin, destination)
        existing = self._edges.get(key)
        if existing is None or weight < existing:
            self._edges[key] = weight
            self._cites[key] = cite

    def add_atom(self, atom: Atom, cite: Atom | None = None) -> None:
        """Translate one normalized atom into its edge.

        >>> g = ConstraintGraph()
        >>> g.add_atom(Atom("x", "<=", "y", 2))   # x <= y + 2
        >>> g.edges()[("x", "y")]
        2

        Its edge cites ``cite``, or ``atom`` itself.
        """
        cite = atom if cite is None else cite
        if atom.op not in ("<=", ">="):
            raise ConditionError(
                f"graph atoms must be normalized to <= or >=, got {atom}"
            )
        if atom.is_ground():
            raise ConditionError(f"ground atom {atom} does not belong in the graph")
        if atom.is_two_variable():
            x = atom.left.name  # type: ignore[union-attr]
            y = atom.right.name  # type: ignore[union-attr]
            if atom.op == "<=":
                self.add_edge(x, y, atom.offset, cite)
            else:
                self.add_edge(y, x, -atom.offset, cite)
            return
        # Single-variable bound: x op c, routed through ZERO.
        assert atom.is_single_variable()
        x = atom.left.name  # type: ignore[union-attr]
        c = atom.right.value  # type: ignore[union-attr]
        if atom.op == "<=":
            self.add_edge(x, ZERO, c, cite)
        else:
            self.add_edge(ZERO, x, -c, cite)

    def copy(self) -> "ConstraintGraph":
        """An independent copy."""
        out = ConstraintGraph(self._nodes)
        out._edges = dict(self._edges)
        out._cites = dict(self._cites)
        return out

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def edges(self) -> dict[tuple[str, str], int]:
        return dict(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"<ConstraintGraph {len(self._nodes)} nodes, {len(self._edges)} edges>"

    # ------------------------------------------------------------------
    # Shortest paths / negative cycles
    # ------------------------------------------------------------------
    def floyd_warshall(self) -> tuple[dict[str, dict[str, float]], bool]:
        """All-pairs shortest paths by Floyd's algorithm [F62].

        Returns ``(dist, has_negative_cycle)``.  ``dist[u][v]`` is the
        shortest-path weight from ``u`` to ``v`` (``inf`` if
        unreachable); a negative diagonal entry certifies a negative
        cycle.  This is the paper's prescribed O(n³) procedure.
        """
        charge("floyd_warshall_runs")
        nodes = sorted(self._nodes)
        dist: dict[str, dict[str, float]] = {
            u: {v: (0 if u == v else INF) for v in nodes} for u in nodes
        }
        for (u, v), w in self._edges.items():
            if w < dist[u][v]:
                dist[u][v] = w
        for k in nodes:
            dk = dist[k]
            for i in nodes:
                dik = dist[i][k]
                if dik == INF:
                    continue
                di = dist[i]
                for j in nodes:
                    alt = dik + dk[j]
                    if alt < di[j]:
                        di[j] = alt
        negative = any(dist[u][u] < 0 for u in nodes)
        return dist, negative

    def bellman_ford_negative_cycle(self) -> bool:
        """Negative-cycle detection by Bellman–Ford (O(n·e)).

        Runs from a virtual super-source connected to every node with a
        zero-weight edge, so cycles anywhere in the graph are found.
        """
        charge("bellman_ford_runs")
        nodes = list(self._nodes)
        dist: dict[str, float] = {u: 0 for u in nodes}  # virtual source
        edges = list(self._edges.items())
        for _ in range(len(nodes) - 1):
            changed = False
            for (u, v), w in edges:
                alt = dist[u] + w
                if alt < dist[v]:
                    dist[v] = alt
                    changed = True
            if not changed:
                return False
        for (u, v), w in edges:
            if dist[u] + w < dist[v]:
                return True
        return False

    def negative_cycle(self) -> list[tuple[str, str, int, Atom | None]] | None:
        """A negative-weight cycle as its edges ``(origin, destination,
        weight, cited atom)`` in order, or None when there is none.

        Bellman–Ford from a virtual source, keeping each node's
        predecessor: an edge that still relaxes in pass ``n`` proves a
        negative cycle, and ``n`` steps back along the predecessors from
        its head land on one, which the walk then closes.
        """
        nodes = sorted(self._nodes)
        dist: dict[str, float] = {u: 0 for u in nodes}
        pred: dict[str, str] = {}
        edges = sorted(self._edges.items())
        last: str | None = None
        for _ in nodes:
            last = None
            for (u, v), w in edges:
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    pred[v] = u
                    last = v
            if last is None:
                return None
        assert last is not None
        for _ in nodes:
            last = pred[last]
        cycle: list[tuple[str, str, int, Atom | None]] = []
        node = last
        while not cycle or node != last:
            origin = pred[node]
            cycle.append((origin, node, self._edges[origin, node], self._cites[origin, node]))
            node = origin
        return cycle[::-1]

    def has_negative_cycle(self, method: str = "bellman") -> bool:
        """Negative-cycle test by either algorithm.

        ``method`` is ``"bellman"`` (default; faster one-shot) or
        ``"floyd"`` (the paper's choice).  Both are exercised and
        cross-checked by the test suite.
        """
        if method == "floyd":
            _, negative = self.floyd_warshall()
            return negative
        if method == "bellman":
            return self.bellman_ford_negative_cycle()
        raise ValueError(f"unknown method {method!r}")

    def solve(self) -> dict[str, int] | None:
        """An integer assignment satisfying every edge, or ``None``.

        An edge ``(u, v, w)`` demands ``value(u) − value(v) ≤ w``.
        Bellman–Ford potentials from a virtual source satisfy all
        difference constraints when no negative cycle exists; the final
        shift pins ``ZERO`` to the value 0, making single-variable
        bounds come out right.

        The returned mapping covers every node except ``ZERO``.
        """
        nodes = list(self._nodes)
        # Edge (u, v, w): u - v <= w. In standard difference-constraint
        # form (x_a - x_b <= w gives edge b->a), Bellman-Ford relaxation
        # must push distance from v to u.
        dist: dict[str, float] = {u: 0 for u in nodes}
        edges = list(self._edges.items())
        for _ in range(len(nodes) - 1):
            changed = False
            for (u, v), w in edges:
                alt = dist[v] + w
                if alt < dist[u]:
                    dist[u] = alt
                    changed = True
            if not changed:
                break
        else:
            for (u, v), w in edges:
                if dist[v] + w < dist[u]:
                    return None
        for (u, v), w in edges:
            if dist[v] + w < dist[u]:
                return None
        shift = dist[ZERO]
        return {
            node: int(dist[node] - shift) for node in nodes if node != ZERO
        }
