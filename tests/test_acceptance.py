"""Acceptance suite: one test per criterion, printing a pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on standard output.
"""

import random
from itertools import product

from mdconv.galois import make_field
from mdconv.multipoly import Polynomial, PolyMatrix
from mdconv.superreg import (
    ConstMatrix,
    SearchExhaustedError,
    cauchy_matrix,
    is_superregular,
    random_superregular,
)
from mdconv.codes import (
    CERTIFIED_MDS,
    CodeDescriptor,
    certify,
    construct_mds_rate_1n,
    construct_mds_staircase,
    phi_flatten,
    phi_lift,
    singleton_bound,
    singleton_witness,
    support_count_identity_check,
)
from mdconv.distance import codeword_weight_profile, free_distance_estimate
from mdconv.multipoly import monomials_upto
from cli_cases import hash_seed_env, run_subprocess
from oracles import full_size_minors, internal_degree, submatrix, vec_mat

F2 = make_field(2)
F5 = make_field(5)
F7 = make_field(7)
F17 = make_field(17)


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_worked_example_degrees_and_minors():
    one = Polynomial.constant(F2, 2, 1)
    z1 = Polynomial.monomial(F2, (1, 0))
    z2 = Polynomial.monomial(F2, (0, 1))
    zero = Polynomial.zero(F2, 2)
    G = PolyMatrix(F2, 2, [[one, z1, zero], [one, z2, one]])

    assert G.external_degree() == 2
    assert internal_degree(G) == 1
    minors = dict(full_size_minors(G))
    assert minors == {(0, 1): z1 + z2, (0, 2): one, (1, 2): z1}
    _report(1, "external degree 2, internal degree 1, minors {z1+z2, 1, z1}")


def test_criterion_2_bound_formula():
    assert singleton_bound(1, 1, 2, 1) == 4
    assert singleton_bound(2, 1, 3, 1) == 9
    assert singleton_bound(2, 2, 5, 3) == 15
    assert singleton_bound(3, 1, 3, 2) == 30
    for k in range(1, 7):
        for n in range(k, 7):
            for delta in range(0, 7):
                classical = (n - k) * (delta // k + 1) + delta + 1
                assert singleton_bound(1, k, n, delta) == classical
    _report(2, "closed-form values and the m=1 classical formula agree")


def test_criterion_3_1d_mds_instance():
    phi = ConstMatrix(F5, ((1, 1), (1, 2)))
    code, cert = construct_mds_rate_1n(F5, 1, 2, 1, source=phi)
    assert code.generator.entries[0] == (
        Polynomial(F5, 1, {(0,): 1, (1,): 1}),
        Polynomial(F5, 1, {(0,): 1, (1,): 2}),
    )
    assert certify(code).verdict == CERTIFIED_MDS
    rep = free_distance_estimate(code.generator, 3, stop_below=cert.certified_distance)
    assert rep.min_weight_found == 4 == cert.certified_distance
    assert not rep.below_bound
    _report(3, "[1+z, 1+2z] over GF(5) certified, enumerated distance exactly 4")


def test_criterion_4_2d_rate_one_third_instance():
    code, cert = construct_mds_rate_1n(F7, 2, 3, 1, source="cauchy")
    flat = phi_flatten(code.generator)
    assert flat.matrix.entries == ((2, 5, 4), (3, 2, 5), (6, 3, 2))
    sr = is_superregular(flat.matrix)
    assert sr.verdict
    # All minors of every size are nonzero; a 3x3 matrix has
    # sum_j C(3,j)^2 = 19 of them (the criterion's figure of 33 does not
    # match the minor-count formula; 19 is the exhaustive count).
    assert sr.minors_checked == 19
    assert cert.certified_distance == 9
    rep = free_distance_estimate(code.generator, 2, stop_below=9)
    assert rep.min_weight_found == 9
    assert not rep.below_bound
    _report(4, "GF(7) Cauchy Phi2 reproduced, all minors nonzero, distance exactly 9")


def test_criterion_5_staircase_instance():
    code, cert = construct_mds_staircase(F17, 2, 2, 5, 1, source="cauchy")
    flat = phi_flatten(code.generator)
    assert (flat.matrix.rows, flat.matrix.cols) == (9, 5)
    sr = is_superregular(flat.matrix)
    assert sr.verdict
    assert sr.minors_checked == 2001
    assert cert.certified_distance == 15
    profile = dict(codeword_weight_profile(code.generator))
    assert profile[2] == 15  # the degree-nu row
    rep = free_distance_estimate(code.generator, 1, stop_below=15)
    assert not rep.below_bound
    assert rep.min_weight_found == 15
    _report(5, "GF(17) staircase: 9x5 flatten, 2001 minors, distance 15, no counterexample")


def _superregular_samples(F, r, s, count=5):
    samples = []
    if F.q >= r + s:
        samples.append(cauchy_matrix(F, list(range(r)), list(range(r, r + s))))
    for seed in range(count):
        try:
            samples.append(random_superregular(F, r, s, seed=seed, max_tries=300))
        except SearchExhaustedError:
            break
    return samples


def test_criterion_6_lemma_suites():
    # Weight lemma wt(uA) >= s - wt(u) + 1, exhaustive over all nonzero u,
    # on every superregular sample we can produce per (q, r, s).
    fields = [F2, make_field(3), make_field(2, 2), F5, F7]
    checked = 0
    for F in fields:
        for r in range(1, 4):
            for s in range(r, 5):
                for A in _superregular_samples(F, r, s):
                    assert is_superregular(A).verdict
                    for u in product(range(F.q), repeat=r):
                        if not any(u):
                            continue
                        wt_u = sum(1 for x in u if x)
                        wt_uA = sum(1 for x in vec_mat(u, A) if x)
                        assert wt_uA >= s - wt_u + 1
                    checked += 1
    assert checked > 0

    for nu in range(0, 9):
        for m in range(2, 6):
            assert support_count_identity_check(nu, m)

    # Submatrix- and row-permutation-closure on 200 seeded random
    # superregular matrices.
    rng = random.Random(2024)
    pool = [F5, F7, make_field(2, 3), make_field(3, 2), make_field(11), make_field(13)]
    produced = 0
    seed = 0
    while produced < 200:
        F = pool[seed % len(pool)]
        r = 1 + seed % 3
        s = r + seed % 2
        seed += 1
        try:
            A = random_superregular(F, r, s, seed=seed, max_tries=500)
        except SearchExhaustedError:
            continue
        rsub = sorted(rng.sample(range(r), rng.randrange(1, r + 1)))
        csub = sorted(rng.sample(range(s), rng.randrange(1, s + 1)))
        assert is_superregular(submatrix(A, rsub, csub)).verdict
        assert is_superregular(submatrix(A, rng.sample(range(r), r), range(s))).verdict
        produced += 1
    _report(6, f"weight lemma on {checked} matrices, support identity, closure on 200 matrices")


def test_criterion_7_witness_suite():
    rng = random.Random(77)
    fields = [F2, make_field(3), make_field(2, 2), F5, F7]
    done = 0
    while done < 500:
        F = rng.choice(fields)
        m = rng.choice([1, 2])
        k = rng.randrange(1, 4)
        n = rng.randrange(k, 6)
        exps = monomials_upto(rng.randrange(0, 3), m)
        G = PolyMatrix(F, m, [
            [Polynomial(F, m, {a: rng.randrange(F.q) for a in exps}) for _ in range(n)]
            for _ in range(k)
        ])
        if any(all(p.is_zero() for p in row) for row in G.entries):
            continue
        if not G.has_full_row_rank():
            continue
        code = CodeDescriptor.from_generator(G)
        _, _, w = singleton_witness(code)
        assert w <= singleton_bound(m, k, n, code.generator.external_degree())
        done += 1
    _report(7, "witness weight within the bound on 500 random full-rank generators")


def test_criterion_8_round_trip_and_determinism(tmp_path):
    # Lift-of-flatten identity on all constructed codes.
    constructions = [
        construct_mds_rate_1n(F5, 1, 2, 1, source=ConstMatrix(F5, ((1, 1), (1, 2))))[0],
        construct_mds_rate_1n(F7, 2, 3, 1)[0],
        construct_mds_staircase(F17, 2, 2, 5, 1)[0],
    ]
    for code in constructions:
        flat = phi_flatten(code.generator)
        plan = [(1, int(d)) for d in code.generator.row_degrees()]
        assert phi_lift(flat.matrix, code.m, plan) == code.generator
        assert phi_flatten(phi_lift(flat.matrix, code.m, plan)).matrix == flat.matrix

    # Byte-identical CLI reruns in fresh interpreters under two hash seeds.
    out = tmp_path / "code.json"
    for argv in (["construct", "--p", "7", "--m", "2", "--n", "3", "--delta", "1", "-o", str(out)],
                 ["distance", "-i", str(out), "--cap", "2"]):
        a, b = (run_subprocess(argv, env=hash_seed_env(seed)) for seed in (0, 1))
        assert a == b and a[0] == 0, argv

    # Worker-count independence on the criteria 3-5 instances.
    gens = [
        (constructions[0].generator, 3),
        (constructions[1].generator, 2),
        (constructions[2].generator, 1),
    ]
    for G, cap in gens:
        assert free_distance_estimate(G, cap, workers=1) == \
            free_distance_estimate(G, cap, workers=4)
    _report(8, "flatten/lift round trips, byte-identical CLI, worker-count independent")
