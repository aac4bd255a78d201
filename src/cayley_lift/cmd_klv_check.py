"""The klv-check verb: verify the closed-form change-of-basis inversion."""

from . import klv_poset


def run(args, rank, chis):
    results = []
    lines = []
    ok = True
    for chi in chis:
        poset = klv_poset.tower_poset(args.family, rank, chi)
        good = klv_poset.verify_inversion(poset)
        ok = ok and good
        results.append({"chi": chi, "elements": len(poset.elements), "inversion": good})
        lines.append(
            "chi%d: %d parameters, M.m = Id: %s" % (chi, len(poset.elements), good)
        )
    lines.append("PASS" if ok else "FAIL")
    return {"family": args.family, "checks": results, "passed": ok}, lines, ok
