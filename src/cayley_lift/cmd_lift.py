"""The lift verb: the lift of the trivial representation."""

from . import lifting, parameters


def run(args, rank, chis):
    out = []
    lines = []
    for chi in chis:
        combo = lifting.lift_trivial(args.family, rank, chi)
        out.append(
            {
                "chi": chi,
                "terms": [
                    {"coefficient": c, "parameter": parameters.parameter_to_json(p)}
                    for p, c in combo.terms
                ],
            }
        )
        lines.append("chi%d: %s" % (chi, combo.render()))
    return {"family": args.family, "lifts": out}, lines, True
