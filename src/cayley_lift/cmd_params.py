"""The params verb: orbit representatives with class, shape, and length."""

from .root_system import rational
from . import parameters
from .classes import cartan_shape


def run(args, rank, chis):
    entries = []
    lines = []
    for chi in chis:
        for c, p in parameters.orbit_representatives(args.family, rank, chi):
            length = rational(parameters.length(p), 2)  # length() is doubled
            entries.append(
                {
                    "class": c.render(),
                    "shape": cartan_shape(c).render(),
                    "length": length,
                    "parameter": parameters.parameter_to_json(p),
                }
            )
            lines.append(
                "chi%d %-10s shape %-10s length %-6s %s"
                % (chi, c.render(), cartan_shape(c).render(), length, p.render())
            )
    return {"family": args.family, "parameters": entries}, lines, True
