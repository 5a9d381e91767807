"""Text and Graphviz-DOT renderings of the structural objects.

Everything the paper draws — query hypergraphs (Figure 2), join trees
(Figure 1), S-component decompositions (Figure 3), tree decompositions —
can be exported as DOT for rendering with ``dot -Tpng``, or as plain
text.  No graphviz dependency: the functions emit strings.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.jointree import JoinTree


def _quote(label: object) -> str:
    return '"' + str(label).replace('"', '\\"') + '"'


def hypergraph_to_dot(h: Hypergraph, s_vertices: Optional[Sequence] = None,
                      name: str = "H") -> str:
    """Bipartite incidence rendering: round vertices, boxed hyperedges;
    vertices in ``s_vertices`` (e.g. the free variables) are doubled."""
    s_set = set(s_vertices or ())
    lines = [f"graph {name} {{", "  layout=neato;", "  overlap=false;"]
    for v in sorted(h.vertices, key=str):
        shape = "doublecircle" if v in s_set else "circle"
        lines.append(f"  {_quote(v)} [shape={shape}];")
    for i, e in enumerate(h.edges):
        edge_node = f"e{i}"
        label = "{" + ",".join(sorted(str(v) for v in e)) + "}"
        lines.append(f"  {edge_node} [shape=box, label={_quote(label)}];")
        for v in sorted(e, key=str):
            lines.append(f"  {edge_node} -- {_quote(v)};")
    lines.append("}")
    return "\n".join(lines)


def join_tree_to_dot(tree: JoinTree, name: str = "T",
                     highlight: Optional[Sequence[int]] = None) -> str:
    """The join tree with node labels = hyperedges; ``highlight`` node
    indexes (e.g. the free-only zone of a free-connex tree) are filled."""
    marked = set(highlight or ())
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for node in tree.nodes():
        label = "{" + ",".join(sorted(str(v) for v in tree.edge_of(node))) + "}"
        style = ', style=filled, fillcolor="lightgrey"' if node in marked else ""
        lines.append(f"  n{node} [shape=ellipse, label={_quote(label)}{style}];")
    for parent, child in tree.tree_edges():
        lines.append(f"  n{parent} -> n{child};")
    lines.append("}")
    return "\n".join(lines)


def s_components_to_dot(h: Hypergraph, s_vertices: Sequence,
                        name: str = "C") -> str:
    """Figure-3 style: one cluster per S-component (free vertices can
    appear in several clusters, as y6 does in the paper's figure)."""
    from repro.hypergraph.components import s_components

    s_set = set(s_vertices)
    lines = [f"graph {name} {{", "  overlap=false;"]
    for k, comp in enumerate(s_components(h, s_vertices)):
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append(f'    label="component {k}";')
        for i in comp.edge_indexes:
            label = "{" + ",".join(sorted(str(v) for v in h.edges[i])) + "}"
            lines.append(f"    e{i} [shape=box, label={_quote(label)}];")
            for v in sorted(h.edges[i], key=str):
                shape = "doublecircle" if v in s_set else "circle"
                lines.append(f"    \"{k}_{v}\" [shape={shape}, "
                             f"label={_quote(v)}];")
                lines.append(f"    e{i} -- \"{k}_{v}\";")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines)


def tree_decomposition_to_dot(td, name: str = "TD") -> str:
    """Bags as boxes, tree edges between them."""
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for i, bag in enumerate(td.bags):
        label = "{" + ",".join(sorted(str(v) for v in bag)) + "}"
        lines.append(f"  b{i} [shape=box, label={_quote(label)}];")
    for i, parent in enumerate(td.parent):
        if parent is not None:
            lines.append(f"  b{parent} -> b{i};")
    lines.append("}")
    return "\n".join(lines)


def query_to_dot(cq, name: str = "Q") -> str:
    """The query hypergraph with free variables doubled (Figure 2 style)."""
    return hypergraph_to_dot(cq.hypergraph(), cq.free_variables(), name=name)
