"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Budgeted criteria assert their wall-clock limits.
"""

import itertools
import random
import time
from collections import deque

import pytest

from cubeforge.adc import (
    SOURCE_MINUS_TARGET,
    TARGET_MINUS_SOURCE,
    cube,
    det,
    disk,
    mat_mul,
    rect_adc,
    smith_normal_form,
    tensor,
    validate,
    walking_composite,
    with_group_cones_above,
)
from cubeforge.core import check_axioms, fold_tail, is_thin, phi, shell_key
from cubeforge.invert import (
    Comp,
    Conn,
    Eps,
    Leaf,
    classify_omega_p,
    has_r_invertible_shell,
    is_plain_invertible,
    r_inverse_by_closure,
    sigma_act,
    t_inverse,
    verify_r_inverse,
)
from cubeforge.nerve import NcModel, gamma_vs_ng
from cubeforge.perms import (
    Perm,
    TWord,
    boundary_perm,
    boundary_word,
    eval_word,
    length,
    min_rep,
)
from cubeforge.transfor import (
    homotopy_lax_transfor,
    is_pseudo,
    random_homotopy_data,
    random_tensor_map,
    tensor_transfor,
    to_lax,
    to_oplax,
    transfor_comp,
    transfor_conn,
    transfor_deg,
    transfor_face,
    validate_transfor,
)


def outcome(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def omega0():
    return NcModel(with_group_cones_above(disk(2), 0))


@pytest.fixture(scope="module")
def omega0_sample(omega0):
    rng = random.Random(20260810)
    return (
        omega0.sample_cells(1, 150, 1, rng)
        + omega0.sample_cells(2, 200, 1, rng)
        + omega0.sample_cells(3, 150, 1, rng)
    )


def test_criterion_1_cubical_axiom_suite():
    t0 = time.perf_counter()
    targets = [disk(m) for m in range(4)] + [cube(m) for m in range(3)]
    violations = []
    total = 0
    for K in targets:
        model = NcModel(K)
        rng = random.Random(20260810)
        cells = {}
        for n in range(4):
            cells[n] = list(model.cells(n, 1)) + model.sample_cells(n, 500, 2, rng)
        report = check_axioms(model, 3, cells, max_pairs=60)
        total += sum(report.checked.values())
        violations.extend(f"{K.name}: {v}" for v in report.violations)
    elapsed = time.perf_counter() - t0
    ok = not violations and elapsed < 60.0
    outcome(
        1,
        ok,
        f"{total} equation instances over {len(targets)} nerves, "
        f"{len(violations)} violations, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_thin_cells_equal_by_shell():
    t0 = time.perf_counter()
    model = NcModel(disk(2))
    rng = random.Random(7)
    ones = model.cells(1, 1)
    twos = model.cells(2, 1)

    thin2 = []
    for x in ones:
        thin2 += [model.deg(x, 1), model.deg(x, 2),
                  model.conn(x, 1, "-"), model.conn(x, 1, "+")]
    # composites of thin 2-cells are thin
    for _ in range(200):
        A = rng.choice(thin2)
        i = rng.choice((1, 2))
        partners = [B for B in thin2
                    if model.face(B, i, "-") == model.face(A, i, "+")]
        if partners:
            thin2.append(model.comp(A, rng.choice(partners), i))
    thin3 = []
    for B in twos + thin2[:80]:
        for i in (1, 2, 3):
            thin3.append(model.deg(B, i))
        for i in (1, 2):
            thin3 += [model.conn(B, i, "-"), model.conn(B, i, "+")]

    pairs = 0
    failures = 0
    for group_cells in (thin2, thin3):
        buckets = {}
        for A in group_cells:
            assert is_thin(model, A)
            buckets.setdefault(shell_key(model, A), []).append(A)
        for bucket in buckets.values():
            for A, B in itertools.combinations(bucket, 2):
                pairs += 1
                if not model.equal(A, B):
                    failures += 1
    elapsed = time.perf_counter() - t0
    ok = pairs >= 200 and failures == 0 and elapsed < 30.0
    outcome(
        2,
        ok,
        f"{pairs} thin pairs with equal shells (dims 2-3), "
        f"{failures} unequal, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_inverse_formula_oracle_equivalence(omega0, omega0_sample):
    t0 = time.perf_counter()
    model = omega0
    cells = omega0_sample
    failures = []

    for A in cells:
        for i in range(1, A.dim + 1):
            B = model.r_inverse(A, i)
            if not verify_r_inverse(model, A, B, i):
                failures.append(f"reversal inverse fails at direction {i}")
        for i in range(1, A.dim):
            closed = model.t_inverse(A, i)
            via_fold = t_inverse(model, A, i)
            if not model.equal(closed, via_fold):
                failures.append(f"transposition routes disagree at {i}")

    # closure formulas by direct evaluation
    two = [A for A in cells if A.dim == 2]
    by_face = {1: {}, 2: {}}
    for B in two:
        for i in (1, 2):
            by_face[i].setdefault(model.face(B, i, "-").payload, []).append(B)
    pair_checks = 0
    for A in two[:120]:
        for i in (1, 2):
            for B in by_face[i].get(model.face(A, i, "+").payload, ())[:2]:
                for k in (1, 2):
                    expr = Comp(i, Leaf(A), Leaf(B))
                    got = r_inverse_by_closure(model, expr, k)
                    if k == i:
                        expect = model.comp(
                            model.r_inverse(B, k), model.r_inverse(A, k), k
                        )
                    else:
                        expect = model.comp(
                            model.r_inverse(A, k), model.r_inverse(B, k), i
                        )
                    if not model.equal(got, expect):
                        failures.append(f"composite closure fails i={i} k={k}")
                    pair_checks += 1
    unary_checks = 0
    for A in two[:150]:
        for i in (1, 2, 3):
            for k in (1, 2):
                # degeneracy: the inverse of eps_i A in direction k^i
                from cubeforge.indices import raise_

                lhs = model.r_inverse(model.deg(A, i), raise_(k, i))
                rhs = model.deg(model.r_inverse(A, k), i)
                if not model.equal(lhs, rhs):
                    failures.append(f"eps closure fails i={i} k={k}")
                unary_checks += 1
        for i in (1, 2):
            for alpha in "-+":
                G = model.conn(A, i, alpha)
                for k in (1, 2):
                    if k != i:
                        from cubeforge.indices import raise_

                        lhs = model.r_inverse(G, raise_(k, i))
                        rhs = model.conn(model.r_inverse(A, k), i, alpha)
                        if not model.equal(lhs, rhs):
                            failures.append(f"Gamma closure fails i={i} k={k}")
                        unary_checks += 1
                # the two bordering directions: assembled from bands, then
                # compared with the independent closed-formula inverse
                for k in (i, i + 1):
                    got = r_inverse_by_closure(model, Conn(i, alpha, Leaf(A)), k)
                    if not verify_r_inverse(model, G, got, k):
                        failures.append(f"Gamma border closure fails i={i} k={k}")
                    if not model.equal(got, model.r_inverse(G, k)):
                        failures.append(f"Gamma border routes differ i={i} k={k}")
                    unary_checks += 1
    elapsed = time.perf_counter() - t0
    ok = len(cells) >= 500 and not failures and elapsed < 120.0
    outcome(
        3,
        ok,
        f"{len(cells)} cells, {pair_checks} composite and {unary_checks} "
        f"unary closure checks, {len(failures)} failures, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_4_equivalent_characterisations(omega0, omega0_sample):
    t0 = time.perf_counter()
    disagreements = 0
    checked = 0
    mixed = NcModel(disk(2))
    pools = [
        (mixed, mixed.cells(1, 1) + mixed.cells(2, 1) + mixed.cells(3, 1)),
        (omega0, omega0_sample),
    ]
    for model, cells in pools:
        for A in cells:
            if A.dim < 1:
                continue
            plain = is_plain_invertible(model, A)  # condition (1), fold route
            via_phi = model.has_r_inverse(phi(model, A, A.dim), 1)  # condition (5)
            closed = model.has_r_inverse(A, 1)  # closed formula
            shell = has_r_invertible_shell(model, A, 1)  # condition (3) route
            checked += 1
            if plain != via_phi or closed != (plain and shell):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    outcome(
        4,
        disagreements == 0,
        f"{checked} cells on two cone regimes, {disagreements} disagreements, "
        f"{elapsed:.1f}s",
    )


def bfs_words(n):
    start = Perm.identity(n)
    dist = {start.images: 0}
    words = {start.images: {()}}
    queue = deque([start])
    gens = [(i, Perm.transposition(n, i)) for i in range(1, n)]
    while queue:
        p = queue.popleft()
        for i, t in gens:
            q = p.then(t)
            d = dist[p.images] + 1
            if q.images not in dist:
                dist[q.images] = d
                words[q.images] = {w + (i,) for w in words[p.images]}
                queue.append(q)
            elif dist[q.images] == d:
                words[q.images] |= {w + (i,) for w in words[p.images]}
    return dist, words


def test_criterion_5_permutation_suite():
    t0 = time.perf_counter()
    failures = []

    def moves(word):
        out = set()
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            if abs(a - b) >= 2:
                out.add(word[:k] + (b, a) + word[k + 2:])
        for k in range(len(word) - 2):
            a, b, c = word[k:k + 3]
            if a == c and abs(a - b) == 1:
                out.add(word[:k] + (b, a, b) + word[k + 3:])
        return out

    from cubeforge.indices import lower, raise_

    for n in range(1, 5):
        dist, words = bfs_words(n)
        for images, reduced in words.items():
            p = Perm(images)
            if length(p) != dist[images]:
                failures.append(f"length mismatch at {images}")
            w = min_rep(p)
            if len(w) != dist[images] or eval_word(w) != p:
                failures.append(f"min_rep not reduced at {images}")
            # Matsumoto connectivity by move closure
            reduced = sorted(reduced)
            seen = {reduced[0]}
            queue = deque([reduced[0]])
            while queue:
                u = queue.popleft()
                for v in moves(u):
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
            if seen != set(reduced):
                failures.append(f"Matsumoto closure fails at {images}")
            # boundary formula on every reduced word and direction
            for word_letters in reduced:
                w = TWord(n, word_letters)
                for i in range(1, n + 1):
                    dw = eval_word(boundary_word(w, i))
                    for k in range(1, n):
                        expect = lower(p.apply(raise_(k, i)), p.apply(i))
                        if dw.apply(k) != expect:
                            failures.append(f"boundary formula fails {images} i={i}")
    for n in range(1, 6):
        for images in itertools.permutations(range(1, n + 1)):
            p = Perm(images)
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    from cubeforge.indices import lower

                    lhs = boundary_perm(boundary_perm(p, j), lower(i, j))
                    rhs = boundary_perm(boundary_perm(p, i), lower(j, i))
                    if lhs != rhs:
                        failures.append(f"boundary commutation fails at {images}")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    outcome(
        5,
        ok,
        f"exhaustive to S4 (commutation to S5), {len(failures)} failures, "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_6_sigma_action_coherence(omega0, omega0_sample):
    t0 = time.perf_counter()
    model = omega0
    threes = [A for A in omega0_sample if A.dim == 3][:110]
    twos = [A for A in omega0_sample if A.dim == 2][:30]
    failures = 0
    _, words3 = bfs_words(3)
    sigmas = [Perm(im) for im in itertools.permutations((1, 2, 3))]

    for A in threes:
        for sigma in sigmas:
            reduced = sorted(words3[sigma.images])
            results = [
                sigma_act(model, A, sigma, word=TWord(3, w)) for w in reduced
            ]
            if any(not model.equal(results[0], r) for r in results[1:]):
                failures += 1
    # faces of permuted cells
    for A in threes[:100]:
        for sigma in sigmas:
            SA = sigma_act(model, A, sigma)
            for j in (1, 2, 3):
                for a in "-+":
                    lhs = model.face(SA, j, a)
                    rhs = sigma_act(
                        model, model.face(A, sigma.apply(j), a), boundary_perm(sigma, j)
                    )
                    if not model.equal(lhs, rhs):
                        failures += 1
    # degeneracies and connections under the action
    for A in twos:
        for sigma in sigmas:
            inv_s = sigma.inverse()
            for i in (1, 2, 3):
                E = model.deg(A, i)
                j = inv_s.apply(i)
                lhs = sigma_act(model, E, sigma)
                rhs = model.deg(sigma_act(model, A, boundary_perm(sigma, j)), j)
                if not model.equal(lhs, rhs):
                    failures += 1
            for i in (1, 2):
                if inv_s.apply(i + 1) != inv_s.apply(i) + 1:
                    continue
                j = inv_s.apply(i)
                for alpha in "-+":
                    lhs = sigma_act(model, model.conn(A, i, alpha), sigma)
                    rhs = model.conn(
                        sigma_act(model, A, boundary_perm(sigma, j)), j, alpha
                    )
                    if not model.equal(lhs, rhs):
                        failures += 1
    elapsed = time.perf_counter() - t0
    ok = len(threes) >= 100 and failures == 0
    outcome(
        6,
        ok,
        f"{len(threes)} invertible 3-cells x {len(sigmas)} permutations, "
        f"{failures} failures, {elapsed:.1f}s",
    )


def test_criterion_7_gamma_vs_globular_nerve():
    t0 = time.perf_counter()
    reports = [gamma_vs_ng(disk(1), 1, 1)]
    for n in range(3):
        reports.append(gamma_vs_ng(disk(2), n, 1))
    elapsed = time.perf_counter() - t0
    ok = all(r.ok for r in reports) and elapsed < 120.0
    outcome(
        7,
        ok,
        "; ".join(str(r) for r in reports) + f"; {elapsed:.1f}s (< 120s)",
    )


def test_criterion_8_omega_p_classification():
    t0 = time.perf_counter()
    printed = NcModel(disk(2))
    rng1 = random.Random(20260810)
    rep1 = classify_omega_p(printed, [1, 2], bound=1, extra_random=40, rng=rng1)
    witnessed = any(
        e.dim == 2 and not e.all_invertible and e.witness is not None
        for e in rep1.evidence
    )

    flipped = NcModel(with_group_cones_above(disk(2), 1))
    rng2 = random.Random(20260810)
    rep2 = classify_omega_p(flipped, [2], bound=1, extra_random=40, rng=rng2)
    all_two_invert = all(e.all_invertible for e in rep2.evidence)

    rep1bis = classify_omega_p(
        printed, [1, 2], bound=1, extra_random=40, rng=random.Random(20260810)
    )
    deterministic = rep1.summary() == rep1bis.summary()
    elapsed = time.perf_counter() - t0
    ok = (
        witnessed
        and rep1.p_estimate >= 2
        and all_two_invert
        and deterministic
        and rep1.consistent
        and rep2.consistent
    )
    outcome(
        8,
        ok,
        f"printed cones: p >= {rep1.p_estimate} with witness={witnessed}; "
        f"group top cone: all 2-cells invertible={all_two_invert}; "
        f"deterministic={deterministic}; {elapsed:.1f}s",
    )


def test_criterion_9_transfor_isomorphism(omega0):
    t0 = time.perf_counter()
    src = NcModel(disk(1))
    tgt = omega0
    rng = random.Random(424242)
    failures = []
    tables = []
    for _ in range(20):
        fm, fp, h = random_homotopy_data(src, tgt, rng)
        F = homotopy_lax_transfor(src, tgt, fm, fp, h, [0, 1], 1)
        tables.append((F, fm, fp))
        if not validate_transfor(F).ok:
            failures.append("lax table invalid")
        if not is_pseudo(F, direct_samples=2, rng=rng):
            failures.append("table not pseudo")
        G = to_oplax(F)
        if not validate_transfor(G).ok:
            failures.append("converted table not a valid oplax table")
        if not to_lax(G).same_table(F):
            failures.append("round trip is not the identity")
        # conversion commutes with the table operations
        for alpha in "-+":
            dF = transfor_face(F, 1, alpha)
            from cubeforge.transfor import OPLAX, make_table

            converted = make_table(OPLAX, 0, src, tgt, list(dF.pairs()))
            if not converted.same_table(transfor_face(G, 1, alpha)):
                failures.append("conversion does not commute with faces")
        for i in (1, 2):
            if not to_oplax(transfor_deg(F, i)).same_table(transfor_deg(G, i)):
                failures.append("conversion does not commute with degeneracies")
        for alpha in "-+":
            if not to_oplax(transfor_conn(F, 1, alpha)).same_table(
                transfor_conn(G, 1, alpha)
            ):
                failures.append("conversion does not commute with connections")
    # compositions of composable pseudo tables
    comp_checks = 0
    for F, fm, fp in tables[:5]:
        _, fp2, h2 = random_homotopy_data(src, tgt, rng, start=fp)
        G2 = homotopy_lax_transfor(src, tgt, fp, fp2, h2, [0, 1], 1)
        FG = transfor_comp(F, G2, 1)
        if not (validate_transfor(FG).ok and is_pseudo(FG)):
            failures.append("composite of pseudo tables misbehaves")
        if not to_oplax(FG).same_table(
            transfor_comp(to_oplax(F), to_oplax(G2), 1)
        ):
            failures.append("conversion does not commute with composition")
        comp_checks += 1
    # p = 2: modifications from chain maps out of cube(2) ⊗ disk(1), in
    # both conventions; pseudo into the omega0 and (omega,1) nerves, and
    # pseudo exactly where the images invert into plain disk(2)
    p2_pseudo, p2_plain = 0, []
    for conv in (TARGET_MINUS_SOURCE, SOURCE_MINUS_TARGET):
        src2 = NcModel(disk(1, conv))
        for K, inverts in ((with_group_cones_above(disk(2, conv), 0), True),
                           (with_group_cones_above(disk(3, conv), 1), True),
                           (disk(2, conv), False)):
            tgt2 = NcModel(K)
            for _ in range(5):
                F = tensor_transfor(src2, tgt2, random_tensor_map(src2, tgt2, 2, rng), 2,
                                    [0, 1], 1)
                if not validate_transfor(F).ok:
                    failures.append("lax 2-transfor invalid")
                pseudo = is_pseudo(F)
                if not inverts:
                    p2_plain.append(pseudo)
                elif not pseudo:
                    failures.append("2-transfor into an invertible target not pseudo")
                if not pseudo:
                    continue
                p2_pseudo += 1
                if not is_pseudo(F, direct_samples=3, rng=rng):
                    failures.append("direct check disagrees with the recursion at p = 2")
                G = to_oplax(F)
                if not (validate_transfor(G).ok and to_lax(G).same_table(F)):
                    failures.append("p = 2 round trip fails")
                for i in (1, 2):
                    for alpha in "-+":
                        if not (to_oplax(transfor_face(F, i, alpha)).same_table(
                                transfor_face(G, i, alpha))
                                and to_oplax(transfor_conn(F, i, alpha)).same_table(
                                    transfor_conn(G, i, alpha))):
                            failures.append("p = 2 conversion does not commute with faces "
                                            "or connections")
                for i in (1, 2, 3):
                    if not to_oplax(transfor_deg(F, i)).same_table(transfor_deg(G, i)):
                        failures.append("p = 2 conversion does not commute with degeneracies")
    if all(p2_plain) or not any(p2_plain):
        failures.append("plain disk(2) did not give both pseudo and non-pseudo 2-transfors")
    elapsed = time.perf_counter() - t0
    ok = len(tables) >= 20 and not failures
    outcome(
        9,
        ok,
        f"{len(tables)} pseudo lax 1-transfors, {comp_checks} compositions, "
        f"{p2_pseudo} pseudo lax 2-transfors ({p2_plain.count(False)} of "
        f"{len(p2_plain)} into disk(2) not pseudo), "
        f"{len(failures)} failures, {elapsed:.1f}s",
    )


def test_criterion_10_adc_algebra():
    t0 = time.perf_counter()
    failures = []
    shipped = (
        [disk(n) for n in range(5)]
        + [cube(n) for n in range(5)]
        + [tensor(cube(1), cube(1)), tensor(disk(1), disk(2)), walking_composite()]
        + [rect_adc(n, i) for n in (1, 2, 3) for i in range(1, n + 1)]
        + [with_group_cones_above(disk(2), p) for p in (0, 1)]
        + [disk(3, SOURCE_MINUS_TARGET), cube(3, SOURCE_MINUS_TARGET)]
    )
    for K in shipped:
        report = validate(K)
        if not report.ok:
            failures.append(f"{K.name}: {report.violations}")

    # Leibniz signs against the alternating face formula, exhaustively
    for n in range(1, 5):
        K = cube(n, SOURCE_MINUS_TARGET)
        Kdef = cube(n)
        for k in range(1, n + 1):
            for j, s in enumerate(K.degrees[k]):
                expect = {}
                zeros = 0
                for pos, sym in enumerate(s, start=1):
                    if sym != "0":
                        continue
                    zeros += 1
                    for alpha, asign in (("-", -1), ("+", 1)):
                        face = s[: pos - 1] + alpha + s[pos:]
                        expect[face] = expect.get(face, 0) + asign * (-1) ** zeros
                col = K.d(k, tuple(1 if m == j else 0 for m in range(K.rank(k))))
                col_def = Kdef.d(k, tuple(1 if m == j else 0 for m in range(K.rank(k))))
                for r, t in enumerate(K.degrees[k - 1]):
                    if col[r] != expect.get(t, 0) or col_def[r] != -expect.get(t, 0):
                        failures.append(f"cubical boundary formula fails at {s}")

    rng = random.Random(55)
    for _ in range(100):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(m)
        if mat_mul(mat_mul(u, d), v) != tuple(tuple(r) for r in m):
            failures.append("SNF does not reproduce the matrix")
        if det(u) not in (1, -1) or det(v) not in (1, -1):
            failures.append("SNF transforms are not unimodular")
    elapsed = time.perf_counter() - t0
    outcome(
        10,
        not failures,
        f"{len(shipped)} complexes validated, Leibniz/face signs exhaustive "
        f"to the 4-cube, 100 SNF round trips, {len(failures)} failures, "
        f"{elapsed:.1f}s",
    )
