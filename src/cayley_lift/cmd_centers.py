"""The centers verb: the center of the cover and its genuine quotient."""

from .root_system import _vec, rational
from . import center


def run(args, rank, chis):
    data = center.cover_center_data(args.family, rank)
    payload = {
        "family": data.family,
        "lie_rank": data.rank,
        "center_invariant_factors": list(data.center.invariant_factors),
        "center_order": data.center.order,
        "genuine_quotient_order": data.quotient_order,
        "quotient_representatives": [[rational(x, 2) for x in d] for d in data.doubled_reps],
    }
    lines = [
        "center of the cover: %s (order %d)" % (data.center.render(), data.center.order),
        "genuine quotient order (= genuine central characters): %d" % data.quotient_order,
    ]
    for d in data.doubled_reps:
        lines.append("  coset representative %s" % _vec(d))
    return payload, lines, True
