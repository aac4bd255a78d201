#!/usr/bin/env python3
"""Search the theta-commuting core Weyl group for sign-test violations.

For classes whose stored three- and twelve-letter witnesses do not apply,
this sweeps W(core) in length order, keeps the theta-commuting elements,
and tests epsilon against det; the first violation is printed as a frozen
catalog entry (ambient word + imaginary count).

Elements are the library's signed permutations of the ambient positive
roots (root_system.weyl_tables), so the breadth-first closure and the theta
test are plain tuple operations.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cayley_lift import coherent as C
from cayley_lift import parameters as P
from cayley_lift.cartan import E_CLASS_REPS
from cayley_lift.root_system import (
    build_root_system,
    canonical_reflection_word,
    perm_mul,
    weyl_tables,
)

TARGETS = (
    ("E7-510", "E7", (5, 1, 0)),
    ("E8-610", "E8", (6, 1, 0)),
    ("E8-420", "E8", (4, 2, 0)),
    ("E8-230", "E8", (2, 3, 0)),
)


def search_class(witness_id, family, signature, deadline=600.0):
    blocks, pairs = E_CLASS_REPS[(family, signature)]
    p = P.make_parameter(family, int(family[1]), 0, blocks, pairs)
    system = build_root_system(family)
    tables = weyl_tables(system)
    st = C.stabilizer(p)
    theta = P.theta_perm(p)
    core = st.complex_core
    gens = [tables.reflections[k] for k in core.simple_index]
    ambient_words = [canonical_reflection_word(k + 1, system) for k in core.simple_index]

    ident = tables.identity
    seen = {ident}
    frontier = [(ident, ())]
    t0 = time.time()
    examined = 0
    while frontier:
        nxt = []
        for w, word in frontier:
            for gi, g in enumerate(gens):
                c = perm_mul(w, g)
                if c in seen:
                    continue
                seen.add(c)
                cw = word + (gi,)
                nxt.append((c, cw))
                if perm_mul(theta, c) != perm_mul(c, theta):
                    continue
                examined += 1
                ambient = tuple(x for gi2 in cw for x in ambient_words[gi2])
                cert = C.chain_types(p, ambient)
                if cert.sign != cert.word_sign:
                    return {
                        "witness_id": witness_id,
                        "family": family,
                        "signature": list(signature),
                        "core_word": list(cw),
                        "core_size": len(seen),
                        "ambient_word": list(ambient),
                        "imaginary_count": cert.imaginary_count,
                        "length": len(ambient),
                        "theta_fixed_examined": examined,
                        "seconds": round(time.time() - t0, 2),
                    }
            if time.time() - t0 > deadline:
                raise TimeoutError(witness_id)
        frontier = nxt
    return {
        "witness_id": witness_id,
        "family": family,
        "signature": list(signature),
        "verdict": "no violation: class survives the sign test",
        "group_order": len(seen),
        "theta_fixed_examined": examined,
        "seconds": round(time.time() - t0, 2),
    }


def main():
    results = []
    for witness_id, family, signature in TARGETS:
        print("searching %s ..." % witness_id, flush=True)
        out = search_class(witness_id, family, signature)
        results.append(out)
        print(json.dumps(out), flush=True)
        if "ambient_word" in out:
            word = out["ambient_word"]
            ok = C.is_complex_fixed_member(
                P.make_parameter(family, int(family[1]), 0, *E_CLASS_REPS[(family, signature)]),
                word,
            )
            print("  membership check: %s" % ok, flush=True)
    dest = Path(__file__).resolve().parent / "witness_search_results.json"
    dest.write_text(json.dumps(results, indent=2) + "\n")
    print("wrote %s" % dest)


if __name__ == "__main__":
    main()
