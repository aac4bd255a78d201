"""The verify verb: the whole-family check of lift support, coefficients and count."""

from . import theorem


def run(args, rank, chis):
    report = theorem.verify_main_theorem(args.family, rank)
    payload = {
        "family": report.family,
        "support_total": report.support_total,
        "small_count": report.small_count,
        "passed": report.passed,
        "checks": [
            {
                "chi": c.chi,
                "lift": c.lift.render(),
                "support_matches": c.support_matches,
                "coefficients_unit": c.coefficients_unit,
            }
            for c in report.checks
        ],
    }
    lines = []
    for c in report.checks:
        lines.append("chi%d lift: %s" % (c.chi, c.lift.render()))
        lines.append(
            "chi%d support matches pi_RD: %s; coefficients all +-1: %s"
            % (c.chi, c.support_matches, c.coefficients_unit)
        )
    lines.append(
        "total support %d, independent small count %d"
        % (report.support_total, report.small_count)
    )
    lines.append("PASS" if report.passed else "FAIL")
    return payload, lines, report.passed
