"""End-to-end acceptance gate.

One test per criterion; each prints a single PASS/FAIL line with its
measured detail (visible with pytest -s, and in captured output
otherwise).  Tolerances are stated inline next to the assertions.
"""

import math
import time

import numpy as np
import pytest

from glspace import (
    RestrictedSet,
    algebra_suite,
    constant_model,
    convolve,
    cyclic_group,
    dihedral_group,
    discrete_norm,
    exponential_model,
    gaussian_model,
    geometric_grid,
    gls_norm,
    h_transform,
    integer_grid,
    make_power_slowvary,
    natural_psi,
    psi_eval,
    rademacher_model,
    sandwich_suite,
    set_fixtures,
    symmetric_group,
    tail_check,
    uniform01_model,
    unit_function,
    w_constant,
    young_suite,
    z_constant,
)
from glspace.cli import main as cli_main
from glspace.generating import PowerSlowVaryParams
from glspace.suites import psi_pool
from quadrature_models import ScaledModel

SEED = 1729

# sandwich row layout: case_id, model, psi, set_or_grid, inner, full,
# constant, bound, pass
INNER, FULL, BOUND, PASS = 4, 5, 7, 8


def _verdict(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def restricted_cases():
    t0 = time.perf_counter()
    result = sandwich_suite(SEED, n_restricted=50, n_discrete=0)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def discrete_cases():
    t0 = time.perf_counter()
    result = sandwich_suite(SEED + 1, n_restricted=0, n_discrete=50)
    return result, time.perf_counter() - t0


def _sandwich_rows_hold(rows, slack):
    return all(
        row[INNER] <= row[FULL] * (1.0 + slack)
        and row[FULL] <= row[BOUND] * (1.0 + slack)
        for row in rows
    )


def test_criterion_01_restricted_sandwich(restricted_cases):
    result, elapsed = restricted_cases
    ok = (
        len(result.rows) == 50
        and result.n_failures == 0
        and _sandwich_rows_hold(result.rows, 1e-6)
        and elapsed < 30.0
    )
    _verdict(1, "restricted sandwich holds on 50 randomized sets",
             ok, f"{elapsed:.1f}s, slack 1e-6")


def test_criterion_02_discrete_sandwich(discrete_cases):
    result, elapsed = discrete_cases
    dip_rows = [r for r in result.rows if r[2] == "sqrt_dip"]
    ok = (
        len(result.rows) == 50
        and result.n_failures == 0
        and len(dip_rows) == 10
        and _sandwich_rows_hold(result.rows, 1e-6)
        and elapsed < 30.0
    )
    _verdict(2, "discrete sandwich holds on 50 grids incl. dip cells",
             ok, f"{elapsed:.1f}s, {len(dip_rows)} non-monotone cases")


def test_criterion_03_grid_constant_anchors():
    root = make_power_slowvary(PowerSlowVaryParams(r=2.0))
    linear = make_power_slowvary(PowerSlowVaryParams(r=1.0))
    cases = [
        (geometric_grid(2, 60), root, math.sqrt(3.0)),
        (integer_grid(60), root, math.sqrt(2.0)),
        (geometric_grid(3, 60), linear, 7.0),
    ]
    ok = True
    worst = 0.0
    for q, psi, expected in cases:
        w = w_constant(q, psi).value
        brute = max(
            float(psi_eval(psi, q.value_at(m + 1))) / float(psi_eval(psi, q.value_at(m)))
            for m in range(1, 60)
        )
        worst = max(worst, abs(w - expected), abs(w - brute))
        ok = ok and abs(w - expected) <= 1e-10 and abs(w - brute) <= 1e-10
    _verdict(3, "grid constants match anchors and the m<=60 ratio scan",
             ok, f"max deviation {worst:.2e} <= 1e-10")


def _oracle_z(segments, psi, p_hi=100.0, step=1e-4):
    """Dense membership scan with bisection-refined gap edges.

    Works from the raw interval list only: scan [1, p_hi] at the given
    step, locate every membership transition, polish each edge to the
    limit point, and take the worst psi ratio across a gap.
    """
    edges = [v for seg in segments for v in seg if math.isfinite(v) and v < p_hi]
    ps = np.unique(np.concatenate([np.arange(1.0, p_hi, step), edges]))
    inside = np.zeros(ps.size, dtype=bool)
    for a, b in segments:
        inside |= (ps >= a) & (ps <= b)

    def member(p):
        return any(a <= p <= b for a, b in segments)

    def refine(lo, hi, lo_is_member):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if member(mid) == lo_is_member:
                lo = mid
            else:
                hi = mid
        return lo, hi

    best = 1.0
    gap_start = None
    for idx in np.nonzero(inside[:-1] != inside[1:])[0]:
        if inside[idx]:  # leaving the set
            gap_start, _ = refine(float(ps[idx]), float(ps[idx + 1]), True)
        else:  # re-entering it
            _, gap_end = refine(float(ps[idx]), float(ps[idx + 1]), False)
            best = max(best, float(psi_eval(psi, gap_end)) / float(psi_eval(psi, gap_start)))
    return best


def test_criterion_04_structural_z_vs_dense_oracle():
    fixtures = set_fixtures()
    psis = psi_pool()
    ok = len(fixtures) == 20
    worst = 0.0
    for i, S in enumerate(fixtures):
        psi = psis[i % len(psis)]
        z = z_constant(S, psi).value
        oracle = _oracle_z(S.segments, psi)
        rel = abs(z - oracle) / oracle
        worst = max(worst, rel)
        ok = ok and rel <= 1e-6
    exact_one = z_constant(RestrictedSet.full(), psis[0]).value == 1.0
    ok = ok and exact_one
    _verdict(4, "Z matches the dense-scan oracle on 20 sets, Z(full) == 1",
             ok, f"worst relative gap {worst:.2e} <= 1e-6")


def test_criterion_05_h_transform_exact_and_anchored():
    rng = np.random.default_rng(SEED + 5)
    grids = [
        integer_grid(60), integer_grid(120),
        geometric_grid(2, 12), geometric_grid(3, 9), geometric_grid(4, 8),
    ]
    psis = [
        make_power_slowvary(PowerSlowVaryParams(r=r, delta=d))
        for r, d in [(0.5, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 0.5), (3.0, 1.0)]
    ]
    exact = 0
    for _ in range(100):
        q = grids[int(rng.integers(len(grids)))]
        psi = psis[int(rng.integers(len(psis)))]
        vals = psi_eval(psi, q.values)
        x = math.exp(rng.random() * math.log(0.99 * float(vals[-1])))
        res = h_transform(q, psi, x)
        # naive route: every stored term, identical scalar arithmetic
        log_x = math.log(x)
        best_val, best_m = -math.inf, 0
        for m in range(1, q.M + 1):
            term = float(q.values[m - 1]) * (log_x - math.log(float(vals[m - 1])))
            if term > best_val:
                best_val, best_m = term, m
        exact += res.value == best_val and res.arg_index == best_m
    root = make_power_slowvary(PowerSlowVaryParams(r=2.0))
    a1 = h_transform(integer_grid(50), root, math.e)
    a2 = h_transform(integer_grid(80), root, math.e ** 2)
    anchors = abs(a1.value - 1.35208) <= 1e-4 and abs(a2.value - 10.0427) <= 1e-4
    ok = exact == 100 and anchors
    _verdict(5, "h equals naive enumeration exactly; anchor values hit",
             ok, f"{exact}/100 bit-exact, h(e)={a1.value:.5f}, h(e^2)={a2.value:.4f}")


def test_criterion_06_gaussian_tail_envelope():
    t0 = time.perf_counter()
    g = gaussian_model()
    report = tail_check(
        g, natural_psi(g), integer_grid(50),
        n=1_000_000, seed=SEED, x_grid=(2.5, 3.0, 3.5, 4.0),
    )
    elapsed = time.perf_counter() - t0
    violations = sum(1 for r in report.rows if r.in_domain and not r.ok)
    ok = report.n_active == 4 and violations == 0 and elapsed < 20.0
    _verdict(6, "empirical gaussian tail stays under the envelope",
             ok, f"n=1e6, x in 2.5..4, {violations} violations, {elapsed:.1f}s")


def test_criterion_07_young_inequality():
    result = young_suite(SEED + 7, n_cases=200)
    ok = result.n_cases == 200 and result.n_failures == 0

    # associativity and bilinearity, exhaustively over the small orders
    groups = (
        [cyclic_group(n) for n in range(2, 13)]
        + [dihedral_group(n) for n in range(3, 7)]
        + [symmetric_group(3)]
    )
    rng = np.random.default_rng(SEED + 70)
    algebraic = True
    for G in groups:
        for _ in range(3):
            f, g, h = (rng.normal(size=G.order) for _ in range(3))
            assoc = np.max(np.abs(
                convolve(G, convolve(G, f, g), h) - convolve(G, f, convolve(G, g, h))
            ))
            lin = np.max(np.abs(
                convolve(G, 2.0 * f + 3.0 * g, h)
                - 2.0 * convolve(G, f, h) - 3.0 * convolve(G, g, h)
            ))
            algebraic = algebraic and assoc <= 1e-12 and lin <= 1e-12
    ok = ok and algebraic
    _verdict(7, "Young inequality on 200 cases; convolution axioms exact",
             ok, f"{result.n_cases} cases, {len(groups)} small groups, slack 1e-12")


def test_criterion_08_algebra_bound():
    result = algebra_suite(SEED + 8)
    n_norm = sum(1 for r in result.rows if str(r[0]).startswith("algebra-n"))
    n_raw = sum(1 for r in result.rows if str(r[0]).startswith("algebra-u"))
    ok = result.n_failures == 0 and n_norm == 100 and n_raw == 50

    groups = (
        [cyclic_group(n) for n in range(2, 17)]
        + [dihedral_group(n) for n in range(3, 7)]
        + [symmetric_group(3), symmetric_group(4)]
    )
    rng = np.random.default_rng(SEED + 80)
    bitwise = True
    for G in groups:
        u = unit_function(G)
        for _ in range(2):
            f = rng.integers(-16, 17, size=G.order).astype(float) / 8.0
            bitwise = bitwise and np.array_equal(convolve(G, f, u), f)
            bitwise = bitwise and np.array_equal(convolve(G, u, f), f)
    ok = ok and bitwise
    _verdict(8, "algebra bound on 150 cases; unit is a bitwise identity",
             ok, f"{n_norm} normalized + {n_raw} raw, {len(groups)} groups")


def test_criterion_09_norm_axioms(restricted_cases, discrete_cases):
    models = [
        gaussian_model(), uniform01_model(), exponential_model(),
        rademacher_model(), constant_model(2.7),
    ]
    rng = np.random.default_rng(SEED + 9)
    monotone = True
    for model in models:
        for _ in range(100):
            p = 1.0 + 149.0 * rng.random()
            q = 1.0 + 149.0 * rng.random()
            p, q = min(p, q), max(p, q)
            monotone = monotone and model.lp_norm(p) <= model.lp_norm(q) * (1.0 + 1e-12)

    psi = make_power_slowvary(PowerSlowVaryParams(r=2.0))
    S = RestrictedSet.from_intervals([(1.0, 2.0), (3.0, math.inf)])
    q_grid = geometric_grid(2, 10)
    homogeneous = True
    for model in (gaussian_model(), uniform01_model()):
        base = (
            gls_norm(model, psi).value,
            gls_norm(model, psi, rset=S).value,
            discrete_norm(model, psi, q_grid).value,
        )
        for alpha in (-2.0, 0.5, 3.0):
            scaled = ScaledModel(model, alpha)
            got = (
                gls_norm(scaled, psi).value,
                gls_norm(scaled, psi, rset=S).value,
                discrete_norm(scaled, psi, q_grid).value,
            )
            for have, want in zip(got, base):
                homogeneous = homogeneous and math.isclose(
                    have, abs(alpha) * want, rel_tol=1e-12
                )

    rows = restricted_cases[0].rows + discrete_cases[0].rows
    subset_sup = all(row[INNER] <= row[FULL] * (1.0 + 1e-6) for row in rows)

    ok = monotone and homogeneous and subset_sup
    _verdict(9, "moment monotonicity, homogeneity, and inner <= full",
             ok, f"500 pairs, 3 scales x 3 norms, {len(rows)} sandwich cases")


def test_criterion_10_cli_suite_determinism(tmp_path, capsys):
    ok = True
    for suite in ("sandwich", "tails", "young", "algebra", "all"):
        outputs = []
        for run in (1, 2):
            dest = tmp_path / f"{suite}-{run}.csv"
            code = cli_main([
                "verify", "--suite", suite, "--seed", "11",
                "--n", "30000", "--out", str(dest),
            ])
            capsys.readouterr()
            ok = ok and code == 0
            outputs.append(dest.read_bytes())
        ok = ok and outputs[0] == outputs[1] and len(outputs[0]) > 0
    _verdict(10, "verification suites are byte-identical across reruns",
             ok, "5 suites x 2 runs, seed 11")
