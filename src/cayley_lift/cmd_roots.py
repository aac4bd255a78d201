"""The roots verb: the root system, rho/2, and its integral subsystem."""

from .root_system import (
    _vec,
    build_root_system,
    is_half_integral,
    is_integral,
    root_system_to_json,
)


def run(args, rank, chis):
    system = build_root_system(args.family, rank)
    integral = sum(is_integral(system, d) for d in system.doubled_positive)
    half = sum(is_half_integral(system, d) for d in system.doubled_positive)
    payload = root_system_to_json(system)
    payload["integral_positive_count"] = integral
    payload["half_integral_positive_count"] = half
    lines = [
        "family %s, Lie rank %d, ambient dimension %d" % (
            system.family, system.rank, system.dim),
        "positive roots: %d" % len(system.doubled_positive),
    ]
    for k, d in enumerate(system.doubled_simple):
        lines.append("alpha_%d = %s" % (k + 1, _vec(d)))
    lines.append("rho   = %s" % _vec(system.doubled_rho))
    lines.append("rho/2 = %s" % _vec(system.doubled_rho, 4))
    lines.append("integral positive roots at rho/2: %d" % integral)
    lines.append("half-integral positive roots at rho/2: %d" % half)
    return payload, lines, True
