"""End-to-end acceptance checks, one per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import json
import math
import random
import time
from collections import Counter

from randfca import (
    Composition4,
    CxtDocument,
    ModelParams,
    Seed,
    bounded_correction,
    context_log_probability,
    contranomial,
    count_concepts,
    derive_attributes,
    derive_objects,
    derive_seed,
    empty_relation,
    enumerate_concepts,
    enumerate_sample_space,
    estimate,
    expected_concepts,
    expected_concepts_bruteforce,
    full_relation,
    log_split_term,
    log_term,
    read_cxt,
    sample_context,
    split_indices,
    threshold_holds,
    write_cxt,
)
from randfca.cli import main

from conftest import random_context

PROBABILITY_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
REFERENCE_GAPS = (1.467, 0.860, 0.646, 0.566, 0.477, 0.416, 0.386, 0.347, 0.316, 0.299)


def _report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {criterion:2d}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def test_criterion_01_gap_table_reproduction(capsys):
    ns = ",".join(str(10**k) for k in range(1, 11))
    started = time.perf_counter()
    code = main(["asymptotic", "--ns", ns, "--json"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    rows = json.loads(out)["payload"]["rows"]
    rounded = tuple(row["gap_3dp"] for row in rows)
    pre_rounding_ok = all(
        abs(row["gap"] - want) < 5e-4 for row, want in zip(rows, REFERENCE_GAPS)
    )
    ok = (
        code == 0
        and rounded == REFERENCE_GAPS
        and pre_rounding_ok
        and elapsed < 1.0
    )
    with capsys.disabled():
        _report(1, ok, f"rounded gaps match, {elapsed * 1000:.0f} ms")


def test_criterion_02_formula_matches_bruteforce():
    started = time.perf_counter()
    worst = 0.0
    ok = True
    for n in range(1, 6):
        for p in PROBABILITY_GRID:
            for q in PROBABILITY_GRID:
                params = ModelParams(n, p, q)
                formula = expected_concepts(params).value
                oracle = expected_concepts_bruteforce(params)
                difference = abs(formula - oracle)
                if oracle > 1.0:
                    ok = ok and difference / oracle <= 1e-10
                else:
                    ok = ok and difference <= 1e-12
                worst = max(worst, difference / max(oracle, 1.0))
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _report(2, ok, f"125 cases, worst error {worst:.2e}, {elapsed:.1f} s")


def test_criterion_03_known_exact_values():
    ok = True
    for p in PROBABILITY_GRID:
        for q in PROBABILITY_GRID:
            ok = ok and abs(expected_concepts(ModelParams(1, p, q)).value - 1.0) <= 1e-12
    ok = ok and abs(expected_concepts(ModelParams(2, 0.5, 0.5)).value - 1.25) <= 1e-12
    for n in range(1, 13):
        for p in PROBABILITY_GRID:
            ok = ok and abs(expected_concepts(ModelParams(n, p, 1.0)).value - 1.0) <= 1e-12
    _report(3, ok)


def test_criterion_04_enumeration_correctness():
    ok = True
    for trial in range(200):
        ctx = random_context(random.Random(trial), max_objects=8, max_attributes=8)
        ok = ok and enumerate_concepts(ctx, "close-by-one") == enumerate_concepts(
            ctx, "closure-scan"
        )
    for k in range(1, 13):
        ok = ok and count_concepts(contranomial(k)) == 2**k
    ok = ok and count_concepts(full_relation(3, 4)) == 1
    ok = ok and count_concepts(empty_relation(2, 2)) == 2
    _report(4, ok, "200 random contexts + structured families")


def test_criterion_05_monte_carlo_consistency():
    started = time.perf_counter()
    configs = ((8, 0.5, 0.5), (10, 0.5, 0.5), (10, 0.3, 0.7))
    ok = True
    details = []
    for n, p, q in configs:
        params = ModelParams(n, p, q)
        serial = estimate(params, 20_000, Seed(2718), workers=1)
        parallel = estimate(params, 20_000, Seed(2718), workers=4)
        exact = expected_concepts(params).value
        ok = ok and serial == parallel
        ok = ok and abs(serial.mean - exact) <= 4.0 * serial.stderr
        details.append(f"n={n}: |z|={abs(serial.mean - exact) / serial.stderr:.2f}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 60.0
    _report(5, ok, ", ".join(details) + f", {elapsed:.1f} s")


def test_criterion_06_correction_stays_below_two():
    ok = all(abs(bounded_correction(n)) < 2.0 for n in range(3, 10**4 + 1))
    ok = ok and all(abs(bounded_correction(10**k)) < 2.0 for k in range(5, 10))
    _report(6, ok)


def test_criterion_07_summand_and_lower_bound_consistency():
    ok = True
    for n in range(2, 65):
        split = split_indices(n)
        generic = log_term(
            ModelParams(n, 0.5, 0.5),
            Composition4(split.a, split.b, split.c, split.d),
        )
        ok = ok and abs(log_split_term(n) - generic) <= 1e-9
        ok = ok and math.exp(log_split_term(n)) <= expected_concepts(
            ModelParams(n, 0.5, 0.5)
        ).value
    _report(7, ok)


def test_criterion_08_threshold_flip():
    ok = threshold_holds(10**9) is False and threshold_holds(10**10) is True
    _report(8, ok)


def test_criterion_09_superpolynomial_growth_accepted_via_proxies():
    # The limit statement itself has no finite-scale check; its proof
    # ingredients are covered by criteria 1, 6, 7 and 8. Re-assert the
    # cheap ones here so this criterion stands on its own run.
    ok = abs(bounded_correction(10**6)) < 2.0
    ok = ok and not threshold_holds(10**9)
    ok = ok and threshold_holds(10**10)
    split = split_indices(32)
    generic = log_term(
        ModelParams(32, 0.5, 0.5),
        Composition4(split.a, split.b, split.c, split.d),
    )
    ok = ok and abs(log_split_term(32) - generic) <= 1e-9
    _report(9, ok, "accepted via criteria 1, 6, 7, 8")


def test_criterion_10a_galois_laws():
    rng = random.Random(97)
    ok = True
    for _ in range(1000):
        ctx = random_context(rng, max_objects=8, max_attributes=8)
        g, m = len(ctx.objects), len(ctx.attributes)
        objs = frozenset(i for i in range(g) if rng.random() < 0.5)
        attrs = frozenset(j for j in range(m) if rng.random() < 0.5)
        ok = ok and (
            (objs <= derive_attributes(ctx, attrs))
            == (attrs <= derive_objects(ctx, objs))
        )
        once = derive_objects(ctx, objs)
        closed = derive_attributes(ctx, once)
        ok = ok and objs <= closed and derive_objects(ctx, closed) == once
    _report(10, ok, "Galois laws, 1000 cases")


def test_criterion_10b_measure_checks():
    rng = random.Random(131)
    ok = True
    for _ in range(1000):
        params = ModelParams(rng.randint(1, 5), rng.random(), rng.random())
        total = math.fsum(
            math.exp(context_log_probability(params, ctx))
            for ctx in enumerate_sample_space(params.n)
        )
        ok = ok and abs(total - 1.0) <= 1e-12

    params = ModelParams(3, 0.5, 0.5)
    draws = 10_000
    observed = Counter(
        sample_context(params, derive_seed(5150, k)) for k in range(draws)
    )
    space = list(enumerate_sample_space(3))
    ok = ok and len(space) == 26
    for ctx in space:
        probability = math.exp(context_log_probability(params, ctx))
        se = math.sqrt(probability * (1.0 - probability) / draws)
        ok = ok and abs(observed[ctx] / draws - probability) <= 5.0 * se
    _report(10, ok, "normalization 1000 cases + frequencies of all 26 contexts")


def test_criterion_10c_cxt_round_trip():
    rng = random.Random(163)
    ok = True
    for k in range(100):
        ctx = sample_context(ModelParams(9, 0.5, 0.5), Seed(k))
        ok = ok and read_cxt(write_cxt(CxtDocument(ctx))).context == ctx
    for _ in range(900):
        ctx = random_context(rng, max_objects=8, max_attributes=8)
        ok = ok and read_cxt(write_cxt(CxtDocument(ctx))).context == ctx
    _report(10, ok, "round-trip, 1000 contexts")
