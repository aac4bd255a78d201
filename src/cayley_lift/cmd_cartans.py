"""The cartans verb: Cartan classes, torus shapes, and the Cayley diagram."""

from . import cayley_graph, parameters
from .classes import cartan_shape


def run(args, rank, chis):
    reps = parameters.orbit_representatives(args.family, rank)
    diagram = cayley_graph.hasse_diagram(args.family, rank)
    classes = diagram.classes
    payload = {
        "family": args.family,
        "lie_rank": classes[0].rank,
        "classes": [
            {
                "label": c.render(),
                "signature": list(c.signature),
                "shape": cartan_shape(c).render(),
                "blocks": [list(b) for b in rep.blocks],
                "pairs": [list(p) for p in rep.pairs],
            }
            for c, rep in reps
        ],
        "cayley_edges": [
            [classes[i].render(), classes[j].render()] for i, j in diagram.edges
        ],
    }
    lines = ["%d Cartan classes" % len(classes)]
    for c, rep in reps:
        lines.append(
            "%-10s shape %-10s rep %s" % (c.render(), cartan_shape(c).render(), rep.render())
        )
    lines.append("Cayley edges (one real rank step each):")
    for i, j in diagram.edges:
        lines.append("  %s -> %s" % (classes[i].render(), classes[j].render()))
    return payload, lines, True
