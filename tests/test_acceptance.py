"""Acceptance gate.

One test per primary criterion; each emits a single PASS/FAIL line and
fails loudly with the collected mismatches if anything is off.
"""
from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction as Q

from cayley_lift import witness_data
from cayley_lift.cartan import cartan_classes, involution_for_class
from cayley_lift.center import cover_center_data
from cayley_lift.cli import EXIT_OK, main
from cayley_lift.coherent import chain_types, replay_witness
from cayley_lift.klv_poset import contains, rd_subsets, tower_poset, verify_inversion
from cayley_lift.lifting import K_coefficient
from cayley_lift.cayley_graph import cayley, enumerate_block
from cayley_lift.dense import integral_system
from cayley_lift.parameters import (
    TransformError,
    length,
    make_parameter,
)
from cayley_lift.root_system import build_root_system
from cayley_lift.theorem import verify_main_theorem
from reference import (
    half_integral_roots,
    identity_matrix,
    mat_apply,
    mat_mul,
    pairing,
    random_equivalent_word,
    word_matrix,
)

ALL_FAMILIES = [("A", r) for r in range(1, 10)] + [("D", r) for r in range(3, 9)] + [
    ("E6", None),
    ("E7", None),
    ("E8", None),
]


def _finish(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"{status} criterion {number}: {description}")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures)


def _run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


# ---------------------------------------------------------------------------
# 1. small-representation counts
# ---------------------------------------------------------------------------

COUNT_CASES = [
    (("count-small", "--family", "E6"), 1),
    (("count-small", "--family", "E7"), 4),
    (("count-small", "--family", "E8"), 1),
    (("count-small", "--family", "A", "--rank", "4"), 4),
    (("count-small", "--family", "A", "--rank", "6"), 4),
    (("count-small", "--family", "A", "--rank", "8"), 4),
    (("count-small", "--family", "A", "--rank", "3"), 1),
    (("count-small", "--family", "A", "--rank", "5"), 1),
    (("count-small", "--family", "A", "--rank", "7"), 1),
    (("count-small", "--family", "D", "--rank", "4"), 16),
    (("count-small", "--family", "D", "--rank", "6"), 16),
    (("count-small", "--family", "D", "--rank", "3"), 4),
    (("count-small", "--family", "D", "--rank", "5"), 4),
]


def test_criterion_1_small_counts(capsys):
    failures = []
    for argv, expected in COUNT_CASES:
        started = time.perf_counter()
        code, out = _run_cli(capsys, *argv, "--no-header")
        elapsed = time.perf_counter() - started
        if code != EXIT_OK or out != f"{expected}\n":
            failures.append(f"{' '.join(argv)} -> exit {code}, output {out!r}")
        if elapsed >= 60.0:
            failures.append(f"{' '.join(argv)} took {elapsed:.1f}s")
    _finish(1, "small-representation counts are exact and each run stays under 60s", failures)


# ---------------------------------------------------------------------------
# 2. witness replays
# ---------------------------------------------------------------------------

def test_criterion_2_witness_replays():
    failures = []
    expected_tags = ("im", "im", "cx", "cx", "im", "cx", "cx", "real", "cx", "cx", "cx", "cx")
    report = replay_witness("E6-030")
    tags = tuple(tag for _, tag in report.certificate.steps)
    if report.certificate.imaginary_count != 3:
        failures.append(f"E6-030 m = {report.certificate.imaginary_count}")
    if tags != expected_tags:
        failures.append(f"E6-030 tags {tags}")
    if not report.golden_checked:
        failures.append("E6-030 golden not checked")

    report = replay_witness("E7-320")
    if report.certificate.imaginary_count != 23:
        failures.append(f"E7-320 m = {report.certificate.imaginary_count}")
    if len(report.certificate.steps) != 72:
        failures.append(f"E7-320 steps = {len(report.certificate.steps)}")
    if not report.golden_checked:
        failures.append("E7-320 roots not matched against the printed list")

    for witness_id in sorted(witness_data.CATALOG):
        if not (witness_id.endswith("-s35") or witness_id.endswith("-s57")):
            continue
        rep = replay_witness(witness_id)
        if rep.certificate.imaginary_count != 0:
            failures.append(f"{witness_id} m != 0")
        if any(tag != "real" for _, tag in rep.certificate.steps):
            failures.append(f"{witness_id} chain not all-real")
    _finish(2, "witness replays reproduce the printed chains exactly", failures)


# ---------------------------------------------------------------------------
# 3. lifting coefficients
# ---------------------------------------------------------------------------

def test_criterion_3_lifting_coefficients():
    failures = []

    def check(family, rank, subset, expected, label):
        actual = K_coefficient(family, rank, subset)
        if actual != expected:
            failures.append(f"{label}: K = {actual}, expected {expected}")

    for p in (2, 3, 4, 5):
        rank = 2 * p - 1
        (subset,) = rd_subsets("A", rank)[1:]
        check("A", rank, subset, (-1) ** p, f"A long set p={p}")
    for n in range(4, 9):
        short = rd_subsets("D", n)[1]
        check("D", n, short, 1, f"D short set n={n}")
    for n in (4, 6, 8):
        p = n // 2
        for subset in rd_subsets("D", n)[2:]:
            check("D", n, subset, (-1) ** p, f"D long set n={n} S={subset.simple_indices}")
    (e7,) = rd_subsets("E7")[1:]
    check("E7", None, e7, -1, "E7 set {alpha1,alpha3,alpha7}")
    _finish(3, "lifting coefficients match the alternating-sum values", failures)


# ---------------------------------------------------------------------------
# 4. KLV inversion
# ---------------------------------------------------------------------------

def test_criterion_4_klv_inversion():
    failures = []
    started = time.perf_counter()
    for family, rank in (("A", 3), ("A", 5), ("A", 7), ("D", 4), ("D", 5), ("E7", None)):
        poset = tower_poset(family, rank)
        if not verify_inversion(poset):
            failures.append(f"M.m != Id on {family} {rank}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"inversion suite took {elapsed:.1f}s")
    _finish(4, "KLV matrices invert exactly on all six display posets in under 10s", failures)


# ---------------------------------------------------------------------------
# 5. centers
# ---------------------------------------------------------------------------

def test_criterion_5_centers():
    failures = []
    quotient_expect = {
        ("E6", None): 1,
        ("E7", None): 2,
        ("E8", None): 1,
        ("A", 3): 2,
        ("A", 5): 2,
        ("A", 7): 2,
        ("A", 2): 1,
        ("A", 4): 1,
        ("A", 6): 1,
    }
    for (family, rank), order in quotient_expect.items():
        data = cover_center_data(family, rank)
        if data.quotient_order != order:
            failures.append(f"{family} {rank} quotient order {data.quotient_order}")
    structure_expect = {
        ("E7", None): "Z/2 x Z/2",
        ("A", 3): "Z/2 x Z/2",
        ("A", 5): "Z/2 x Z/2",
        ("E6", None): "Z/2",
        ("E8", None): "Z/2",
        ("A", 2): "Z/2",
        ("A", 4): "Z/2",
    }
    for (family, rank), render in structure_expect.items():
        data = cover_center_data(family, rank)
        if data.center.render() != render:
            failures.append(f"{family} {rank} center {data.center.render()}")

    # the E7 class representative: the computed one pairs evenly with every
    # root; the once-printed candidate e8 - e7 pairs oddly with alpha_1 and so
    # lies in no class of the quotient at all
    e7 = build_root_system("E7")
    data = cover_center_data("E7")
    rep = data.quotient_reps[1]
    if rep != tuple(Q(x) for x in (1, 1, -1, 1, -1, 1, 0, 0)):
        failures.append(f"E7 representative {rep}")
    if any(pairing(rep, a) % 2 != 0 for a in e7.roots):
        failures.append("E7 representative pairs oddly with some root")
    stray = tuple(Q(x) for x in (0, 0, 0, 0, 0, 0, -1, 1))
    if not e7.is_root(stray):
        failures.append("e8 - e7 should be an E7 root")
    if pairing(stray, e7.simple_roots[0]) % 2 != 1:
        failures.append("e8 - e7 should pair oddly with alpha_1")
    _finish(5, "center quotients have the right order, structure, and verified representatives", failures)


# ---------------------------------------------------------------------------
# 6. main verification
# ---------------------------------------------------------------------------

def test_criterion_6_verify_everything(capsys):
    failures = []
    cli_cases = (
        [("verify", "--family", "A", "--rank", str(n)) for n in range(2, 11)]
        + [("verify", "--family", "D", "--rank", str(n)) for n in range(3, 9)]
        + [("verify", "--family", family) for family in ("E6", "E7", "E8")]
    )
    for argv in cli_cases:
        code, _ = _run_cli(capsys, *argv)
        if code != EXIT_OK:
            failures.append(f"{' '.join(argv)} -> exit {code}")
    for family, rank in ALL_FAMILIES:
        report = verify_main_theorem(family, rank)
        if not report.passed:
            failures.append(f"{family} {rank} report failed")
        if report.support_total != report.small_count:
            failures.append(
                f"{family} {rank} support {report.support_total} != count {report.small_count}"
            )
        for check in report.checks:
            if not check.support_matches:
                failures.append(f"{family} {rank} chi={check.chi} support mismatch")
            if not check.coefficients_unit:
                failures.append(f"{family} {rank} chi={check.chi} non-unit coefficient")
    _finish(6, "lifted trivial matches the display support with unit signs everywhere", failures)


# ---------------------------------------------------------------------------
# 7. property suites
# ---------------------------------------------------------------------------

def test_criterion_7_property_suites():
    failures = []

    # (a) every shipped involution squares to the identity and permutes roots
    for family, rank in ALL_FAMILIES:
        system = build_root_system(family, rank)
        roots = set(system.roots)
        ident = identity_matrix(system.dim)
        for c in cartan_classes(family, rank):
            theta = involution_for_class(c).matrix
            if mat_mul(theta, theta) != ident:
                failures.append(f"theta^2 != Id for {family} {rank} {c.render()}")
            if {mat_apply(theta, r) for r in roots} != roots:
                failures.append(f"theta does not permute roots for {family} {rank} {c.render()}")

    # (b) the positive system splits into integral and half-integral parts
    for family, rank in ALL_FAMILIES:
        system = build_root_system(family, rank)
        integral = set(integral_system(system.rho_half, system).positive)
        half = set(half_integral_roots(system))
        if integral | half != set(system.positive_roots) or (integral & half):
            failures.append(f"positive system does not partition for {family} {rank}")

    # (c) Cayley transforms through disjoint pairs commute
    for family, rank, candidates in (
        ("A", 5, [(i, j) for i in range(1, 7) for j in range(i + 1, 7) if (i + j) % 2]),
        (
            "D",
            5,
            [(i, j) for i in range(1, 6) for j in range(i + 1, 6) if (i + j) % 2]
            + [(-i, -j) for i in range(1, 6) for j in range(i + 1, 6) if (i + j) % 2],
        ),
        ("E7", None, [(-1, -2), (3, 4), (5, 6), (7, 8)]),
    ):
        base = make_parameter(family, rank or 7)
        for a, b in itertools.combinations(candidates, 2):
            if {abs(a[0]), abs(a[1])} & {abs(b[0]), abs(b[1])}:
                continue
            try:
                one = cayley(cayley(base, a), b)
                two = cayley(cayley(base, b), a)
            except TransformError:
                continue
            if one != two:
                failures.append(f"cayley order matters for {family} {rank} {a} {b}")

    # (d) containment strictly decreases length
    for family, rank in (("A", 3), ("A", 4), ("D", 4), ("D", 5)):
        block = enumerate_block(family, rank)
        for p, q in itertools.permutations(block, 2):
            if p != q and contains(p, q) and not length(p) < length(q):
                failures.append(f"length not monotone: {p.render()} vs {q.render()}")

    # (e) the chain sign depends only on the Weyl element: 100 rewrites each
    rng = random.Random(20240817)
    sign_cases = [
        (make_parameter("A", 3), (0, 1, 2, 1, 0)),
        (make_parameter("A", 3, pairs=((1, 2), (3, 4))), (1, 0, 2, 1)),
        (make_parameter("A", 4), (0, 1, 2, 3, 2, 1)),
        (make_parameter("D", 4), (0, 1, 3, 1)),
        (make_parameter("D", 4, pairs=((1, 2), (-1, -2))), (2, 1, 3, 1, 2)),
        (make_parameter("D", 4, pairs=((1, 2), (3, 4))), (0, 1, 2, 1)),
    ]
    for p, word in sign_cases:
        system = build_root_system(p.family, p.rank)
        base = chain_types(p, word)
        target = word_matrix(word, system)
        counts = set()
        for _ in range(100):
            other = random_equivalent_word(system, word, rng)
            if word_matrix(other, system) != target:
                failures.append(f"rewrite changed the element for {p.render()} {word}")
                break
            cert = chain_types(p, other)
            counts.add(cert.imaginary_count)
            if cert.sign != base.sign:
                failures.append(
                    f"sign changed under rewrite for {p.render()} {word} -> {other}"
                )
                break
    _finish(7, "structural properties hold exactly across the implemented range", failures)
