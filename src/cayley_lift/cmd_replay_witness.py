"""The replay-witness verb: replay a stored sign-test witness chain."""

from .root_system import _vec, rational
from . import witness_data


def run(args, rank, chis):
    report = witness_data.replay_witness(args.witness_id)
    cert = report.certificate
    entry = witness_data.CATALOG[args.witness_id]
    steps = tuple(zip(cert.doubled_steps, cert.tags))
    payload = {
        "witness_id": report.witness_id,
        "family": entry.family,
        "class_signature": list(entry.signature),
        "source": entry.source,
        "word": list(cert.word),
        "steps": [
            {"root": [rational(x, 2) for x in d], "type": tag}
            for d, tag in steps
        ],
        "imaginary_count": cert.imaginary_count,
        "epsilon": cert.sign,
        "det": cert.word_sign,
        "golden_checked": report.golden_checked,
    }
    lines = [
        "witness %s (%s class %s, %s)"
        % (report.witness_id, entry.family, "(%d,%d,%d)" % entry.signature, entry.source),
        "word length %d" % len(cert.word),
    ]
    for k, (d, tag) in enumerate(steps):
        lines.append("beta_%-2d = %-32s (%s)" % (k + 1, _vec(d), tag))
    lines.append("m = %d, epsilon = %+d, det = %+d" % (
        cert.imaginary_count, cert.sign, cert.word_sign))
    lines.append("golden data checked: %s" % ("yes" if report.golden_checked else "no"))
    return payload, lines, True
