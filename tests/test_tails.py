"""Discrete Legendre-type transform, tail envelopes, membership scans."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glspace import (
    DomainError,
    EmpiricalModel,
    GeneratingFunction,
    GlsError,
    NoFeasibleKError,
    PowerSlowVaryParams,
    SampleBatch,
    TailEnvelope,
    TruncationError,
    constant_model,
    exponential_model,
    gaussian_model,
    geometric_grid,
    h_transform,
    integer_grid,
    make_power_slowvary,
    make_tail_envelope,
    membership_K_estimate,
    model_from_spec,
    natural_psi,
    psi_eval,
    rademacher_model,
    sample,
    sqrt_dip_psi,
    tail_check,
    tail_envelope,
    uniform01_model,
)
from glspace import tails
from glspace.models import SAMPLE_CHUNK
from glspace.tails import TailRow, default_probe_points, quadratic_h_reference


def root_psi():
    return make_power_slowvary(PowerSlowVaryParams(r=2.0))


def naive_h(q, psi, x):
    """Full enumeration over every stored index, same term arithmetic."""
    vals = psi_eval(psi, q.values)
    log_x = math.log(x)
    best_val, best_m = -math.inf, 0
    for m in range(1, q.M + 1):
        term = float(q.values[m - 1]) * (log_x - math.log(float(vals[m - 1])))
        if term > best_val:
            best_val, best_m = term, m
    return best_val, best_m


def test_h_is_zero_at_one():
    res = h_transform(integer_grid(50), root_psi(), 1.0)
    assert res.value == 0.0 and res.arg_index == 1


def test_h_closed_form_anchors():
    res = h_transform(integer_grid(50), root_psi(), math.e)
    # max_m m (1 - 0.5 ln m) lands on m = 3
    assert res.value == pytest.approx(3.0 - 1.5 * math.log(3.0), rel=1e-12)
    assert res.arg_index == 3
    res2 = h_transform(integer_grid(80), root_psi(), math.e ** 2)
    assert res2.value == pytest.approx(20.0 * (2.0 - 0.5 * math.log(20.0)), rel=1e-12)
    assert res2.arg_index == 20


def test_h_rejects_x_below_one():
    with pytest.raises(DomainError):
        h_transform(integer_grid(10), root_psi(), 0.5)


def test_h_matches_naive_enumeration_bit_for_bit():
    rng = np.random.default_rng(7)
    grids = [integer_grid(60), integer_grid(120), geometric_grid(2, 12), geometric_grid(3, 9)]
    psis = [
        make_power_slowvary(PowerSlowVaryParams(r=r, delta=d))
        for r, d in [(0.5, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5)]
    ]
    for _ in range(30):
        q = grids[int(rng.integers(len(grids)))]
        psi = psis[int(rng.integers(len(psis)))]
        hi = 0.99 * float(psi_eval(psi, q.values[-1]))
        x = math.exp(rng.random() * math.log(hi))
        res = h_transform(q, psi, x)
        val, arg = naive_h(q, psi, x)
        assert res.value == val
        assert res.arg_index == arg


def test_h_nondecreasing_in_x():
    q, psi = integer_grid(60), root_psi()
    hs = [h_transform(q, psi, float(x)).value for x in np.linspace(1.0, 7.0, 30)]
    assert all(b >= a for a, b in zip(hs, hs[1:]))


def test_h_against_the_continuous_relaxation():
    # integer grid, root family: the real-p supremum is x^2/(2e), and an
    # integer within 1/2 of the maximizer loses at most ~1/(16e)
    q = integer_grid(120)
    psi = root_psi()
    for x in np.linspace(math.e, 10.0, 25):
        h = h_transform(q, psi, float(x)).value
        ref = quadratic_h_reference(float(x))
        assert h <= ref * (1.0 + 1e-12)
        assert h >= ref - 0.03


def test_h_non_monotone_route():
    res = h_transform(integer_grid(30), sqrt_dip_psi(), 2.0)
    # dip psi agrees with sqrt(p) at the integers, where the terms live
    assert res.value == pytest.approx(math.log(2.0), rel=1e-12)
    assert res.arg_index in (1, 2)


def test_envelope_value_and_domain():
    env = TailEnvelope(q=integer_grid(50), psi=root_psi(), norm_value=1.0)
    assert env.domain_threshold == math.e
    want = math.exp(-(3.0 - 1.5 * math.log(3.0)))
    assert tail_envelope(env, math.e) == pytest.approx(want, rel=1e-12)
    assert env(math.e) == tail_envelope(env, math.e)
    with pytest.raises(DomainError):
        tail_envelope(env, 2.0)


def test_envelope_scales_exactly_with_the_norm():
    q, psi = integer_grid(50), root_psi()
    one = TailEnvelope(q=q, psi=psi, norm_value=1.0)
    two = TailEnvelope(q=q, psi=psi, norm_value=2.0)
    for x in (math.e, 3.5, 4.0):
        assert two(2.0 * x) == one(x)


def test_envelope_monotone_and_below_one():
    env = TailEnvelope(q=integer_grid(120), psi=root_psi(), norm_value=1.0)
    xs = np.linspace(env.domain_threshold, 9.0, 20)
    vals = [env(float(x)) for x in xs]
    assert all(v <= 1.0 for v in vals)
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_make_envelope_plugs_in_the_discrete_norm():
    env = make_tail_envelope(constant_model(2.0), root_psi(), integer_grid(50))
    assert env.norm_value == 2.0
    assert env.domain_threshold == pytest.approx(2.0 * math.e)
    assert env.model_label == "constant:2"
    pts = default_probe_points(env)
    assert all(p >= env.domain_threshold for p in pts)


def test_tail_check_gaussian_smoke():
    report = tail_check(
        gaussian_model(), root_psi(), integer_grid(50), n=20_000, seed=5,
        x_grid=(1.0, 2.5, 3.0),
    )
    assert report.all_ok
    assert not report.rows[0].in_domain  # 1.0 sits below e * norm
    assert math.isnan(report.rows[0].envelope) and report.rows[0].ok
    assert report.n_active == 2


def test_a_tail_check_builds_one_h_table_for_all_its_probes(monkeypatch):
    model, psi, q = gaussian_model(), root_psi(), integer_grid(50)
    env = make_tail_envelope(model, psi, q)
    xs = [env.domain_threshold * c for c in (1.0, 1.1, 1.5, 2.0, 3.0)]
    # the bits of one h_transform per probe
    expect = [math.exp(-h_transform(q, psi, x / env.norm_value).value) for x in xs]
    built = []

    class CountedTable(tails._HTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(tails, "_HTable", CountedTable)
    report = tail_check(model, psi, q, n=1_000, seed=2, x_grid=[1.0, *xs])
    assert [r.envelope for r in report.rows[1:]] == expect
    assert len(built) == 1
    # an envelope builds its table at its first probe, and keeps it
    env = make_tail_envelope(model, psi, q)
    assert [tail_envelope(env, x) for x in xs] == expect
    assert len(built) == 2


@pytest.mark.parametrize("factory", [
    gaussian_model, uniform01_model, exponential_model, lambda: constant_model(-1.5), rademacher_model,
    lambda: EmpiricalModel(np.random.default_rng(5).standard_normal(1000)),
], ids=["gaussian", "uniform01", "exponential", "constant", "rademacher", "bootstrap"])
def test_a_drawn_batch_has_the_bits_of_sample_whichever_view_is_read_first(factory):
    model, n, seed = factory(), 2 * SAMPLE_CHUNK + 5, 9
    want = sample(model, n, seed).values
    want_abs = np.sort(np.abs(want))
    # the check's survival counts read sorted_abs first; values draws again
    batch = tail_check(model, root_psi(), integer_grid(20), n=n, seed=seed).batch
    assert batch.sorted_abs.tobytes() == want_abs.tobytes()
    assert batch.values.tobytes() == want.tobytes()
    batch = SampleBatch.drawn(model, n, seed)
    assert batch.values.tobytes() == want.tobytes()
    assert batch.sorted_abs.tobytes() == want_abs.tobytes()
    assert (batch.size, batch.seed) == (n, seed)


def test_a_tail_check_and_its_k_estimate_hold_one_sample_sized_array():
    # the report's batch draws for its sorted |values| alone: 8 MiB at
    # 2^20 draws, where the draws and their sorted copy took 16.09 MiB
    model, q, n = gaussian_model(), integer_grid(50), 1 << 20
    psi = natural_psi(model)
    N = make_tail_envelope(model, psi, q).norm_value
    tracemalloc.start()
    try:
        report = tail_check(model, psi, q, n=n, seed=3)
        membership_K_estimate(report.batch, q, psi, K_grid=np.geomspace(N / 4.0, 8.0 * N, 32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n + (1 << 20)


def test_tail_check_bounded_variable_never_violates():
    report = tail_check(
        rademacher_model(), root_psi(), integer_grid(50), n=5_000, seed=1,
        x_grid=(2.8, 3.5),
    )
    assert report.all_ok
    assert all(r.empirical == 0.0 for r in report.rows if r.in_domain)


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize("psi", [root_psi(), sqrt_dip_psi()], ids=["increasing", "non-monotone"])
def test_tail_check_rejects_a_non_finite_probe(psi, x):
    # rejected before sampling, whatever the psi: an infinite probe is not
    # a truncation the caller could fix by raising M
    with pytest.raises(DomainError, match=f"probe points must be finite, got {x}"):
        tail_check(gaussian_model(), psi, integer_grid(50), n=1_000, seed=0, x_grid=(4.0, x))


@pytest.mark.parametrize("x_grid", [[], (), np.empty(0)], ids=["list", "tuple", "array"])
def test_tail_check_rejects_an_empty_probe_list(x_grid):
    # no probe judged is no evidence, not a pass
    with pytest.raises(DomainError, match="at least one probe point"):
        tail_check(gaussian_model(), root_psi(), integer_grid(50), n=1_000, seed=0, x_grid=x_grid)


@pytest.mark.parametrize("n", [0, -5])
def test_tail_check_rejects_a_sample_size_below_one_naming_it(n):
    # before any envelope or sample: an empty batch has no survival to judge
    with pytest.raises(DomainError, match=f"got n={n}$"):
        tail_check(gaussian_model(), root_psi(), integer_grid(50), n=n, seed=0)


def test_a_tail_report_reads_its_verdicts_and_threshold_off_its_numbers():
    assert TailRow(3.0, 0.002, 0.001, 0.001, True).ok
    assert not TailRow(3.0, 0.0021, 0.001, 0.001, True).ok
    # out of the domain a row passes unjudged, whatever its numbers
    assert TailRow(1.0, 0.5, math.nan, math.nan, False).ok
    model, psi, q = gaussian_model(), root_psi(), integer_grid(50)
    report = tail_check(model, psi, q, n=1000, seed=0, x_grid=[1.0, 3.0, 3.5])
    assert report.threshold == make_tail_envelope(model, psi, q).domain_threshold
    assert [r.in_domain for r in report.rows] == [False, True, True]


def test_membership_scan_brackets_the_gaussian_norm():
    batch = sample(gaussian_model(), 50_000, seed=3)
    q, psi = integer_grid(60), root_psi()
    K_grid = np.geomspace(0.3, 4.0, 24)
    est = membership_K_estimate(batch, q, psi, K_grid=K_grid)
    assert est.K_hat in set(float(k) for k in K_grid)
    # the true norm is ~0.8; the accepted scale cannot be tiny
    assert est.K_hat > 0.4
    doubled = SampleBatch(values=2.0 * batch.values, seed=batch.seed)
    est2 = membership_K_estimate(doubled, q, psi, K_grid=K_grid)
    assert est2.K_hat >= est.K_hat


def test_membership_trivial_accept_when_sample_is_small():
    batch = sample(constant_model(0.1), 1_000, seed=0)
    est = membership_K_estimate(batch, integer_grid(60), root_psi(), K_grid=[1.0])
    assert est.K_hat == 1.0
    assert est.x_range_checked is None


def test_membership_no_feasible_scale():
    batch = sample(constant_model(50.0), 1_000, seed=0)
    with pytest.raises(NoFeasibleKError):
        membership_K_estimate(
            batch, integer_grid(60), root_psi(), K_grid=[0.1, 0.2]
        )


@pytest.mark.parametrize("values, lo", [
    # the smallest nonzero |value| is above 1e-6 of the largest: it starts the grid
    ([0.0, -0.5, 2.0, 3.0, -4.0], 0.5),
    # below it, the grid starts at 1e-6 of the largest
    ([1e-9, 0.0, -4.0, 2.0], 4e-6),
])
def test_membership_without_a_grid_takes_32_candidates_up_to_the_sample_max(values, lo):
    batch = SampleBatch(values=np.array(values), seed=0)
    est = membership_K_estimate(batch, integer_grid(60), root_psi())
    assert est.K_grid == tuple(np.geomspace(lo, 4.0, 32).tolist())
    assert est.K_hat in est.K_grid


def test_membership_zero_batch_needs_an_explicit_grid():
    batch = sample(constant_model(0.0), 100, seed=0)
    with pytest.raises(DomainError):
        membership_K_estimate(batch, integer_grid(60), root_psi())
    est = membership_K_estimate(batch, integer_grid(60), root_psi(), K_grid=[0.5, 1.0])
    assert est.K_hat == 0.5 and est.x_range_checked is None


def test_membership_on_an_infinite_largest_value_needs_an_explicit_grid():
    # a u = 1.0 draw of a Gaussian or exponential sample is +inf
    # (models.sample): the default grid would top out there, so it is named
    # before any grid is built, with no NumPy warning first, and an
    # explicit finite grid is judged as on any batch
    batch = SampleBatch(values=np.array([0.5, -2.0, math.inf]), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^the batch's largest \|value\| is inf; pass an explicit K_grid$"):
            membership_K_estimate(batch, integer_grid(60), root_psi())
        est = membership_K_estimate(batch, integer_grid(60), root_psi(), K_grid=[0.5, 1.0, 4.0])
    assert est.K_grid == (0.5, 1.0, 4.0) and est.K_hat in est.K_grid and est.n == 3


@pytest.mark.parametrize("K_grid, bad", [([math.inf], "inf"), ([math.nan, 1.0], "nan"), ([1.0, -math.inf], "-inf")])
def test_membership_rejects_a_candidate_that_is_not_finite_naming_it(K_grid, bad):
    # inf was accepted as K_hat, and nan reached the probes and asked to
    # raise M
    batch = sample(gaussian_model(), 1_000, seed=0)
    with pytest.raises(DomainError, match=rf"^candidate K values must be finite, got {bad}$"):
        membership_K_estimate(batch, integer_grid(60), root_psi(), K_grid=K_grid)


def test_membership_needs_at_least_one_candidate():
    # an empty grid was told its candidates must be positive
    batch = sample(gaussian_model(), 1_000, seed=0)
    with pytest.raises(DomainError, match=r"^K_grid is empty; at least one candidate K is needed$"):
        membership_K_estimate(batch, integer_grid(60), root_psi(), K_grid=[])


@pytest.mark.parametrize("K_grid, bad", [([-1.0, 2.0], "-1.0"), ([0.0], "0.0"), ([2.0, -3.0], "-3.0")])
def test_membership_rejects_a_candidate_that_is_not_positive_naming_it(K_grid, bad):
    batch = sample(gaussian_model(), 1_000, seed=0)
    with pytest.raises(DomainError, match=rf"^candidate K values must be positive, got {bad}$"):
        membership_K_estimate(batch, integer_grid(60), root_psi(), K_grid=K_grid)


def test_membership_on_a_grid_below_e_judges_each_candidate_at_e_K():
    # sqrt(5) < e: the probe cap K * psi(q(M)) sits below e*K, so each
    # candidate is judged at the one point e*K, on the stored terms' h
    batch = sample(gaussian_model(), 1_000, seed=0)
    q, psi = integer_grid(5), root_psi()
    est = membership_K_estimate(batch, q, psi, K_grid=[1.0])
    assert est.K_hat == 1.0 and est.x_range_checked == (math.e, math.e)
    assert (est.K_hat, est.x_range_checked) == reference_membership(batch, q, psi, [1.0])


def test_membership_on_a_grid_below_e_takes_one_survival_probe_per_candidate(monkeypatch):
    # the probe range [e*K, e*K] is one point, judged once: the two smaller
    # candidates fail there and the third passes
    batch = sample(gaussian_model(), 1_000, seed=0)
    q, psi, K_grid = integer_grid(5), root_psi(), [0.05, 0.1, 1.0]
    probes, survival = [], tails.empirical_survival

    def counted(batch, x):
        probes.append(np.size(x))
        return survival(batch, x)

    monkeypatch.setattr(tails, "empirical_survival", counted)
    est = membership_K_estimate(batch, q, psi, K_grid=K_grid)
    assert probes == [1, 1, 1]
    assert est.K_hat == 1.0 and est.x_range_checked == (math.e, math.e)
    assert (est.K_hat, est.x_range_checked) == reference_membership(batch, q, psi, K_grid)


def plateau_psi(nondecreasing=False):
    # sqrt(p) up to 9, flat at 3 to p = 29, 10 from p = 30 on; on
    # integer_grid(30), h(x) from about x = 3.3 on peaks at m = 29
    return GeneratingFunction(
        evaluator=lambda p: np.where(p < 29.5, np.sqrt(np.minimum(p, 9.0)), 10.0),
        description="plateau",
        envelope=(None, False) if nondecreasing else None,
    )


def stairs_psi():
    # flat on [2k - 1, 2k], rising by 1 on [2k, 2k + 1]: psi(2k - 1) = psi(2k) = k
    def evaluator(p):
        k = np.floor(np.asarray(p) / 2.0)
        return k + np.minimum(p - 2.0 * k, 1.0)

    return GeneratingFunction(evaluator=evaluator, description="stairs", envelope=(None, False))


@pytest.mark.parametrize(
    "psi, q, longer",
    [
        (stairs_psi(), integer_grid(30), integer_grid(120)),
        (stairs_psi(), geometric_grid(2, 12), geometric_grid(2, 48)),
        (plateau_psi(nondecreasing=True), integer_grid(30), integer_grid(120)),
    ],
)
def test_h_of_a_flagged_psi_with_flat_stretches_is_the_whole_grids_up_to_psi_of_q_M(psi, q, longer):
    # exact up to x = psi(q(M)) (on integer_grid(30) the stairs' last flat
    # stretch ties the last two terms at 0 there): the 4x longer grid finds
    # no larger term
    psi_M = float(psi_eval(psi, q.values[-1]))
    xs = np.concatenate([np.geomspace(1.0, psi_M, 41), psi_eval(psi, q.values)])
    for x in xs.tolist():
        res = h_transform(q, psi, x)
        assert (res.value, res.arg_index) == naive_h(longer, psi, x)


@pytest.mark.parametrize(
    "psi, q",
    [
        (root_psi(), integer_grid(50)),
        (root_psi(), geometric_grid(2, 12)),
        (root_psi(), integer_grid(9)),
        (sqrt_dip_psi(), integer_grid(10)),
        (stairs_psi(), integer_grid(30)),
        (plateau_psi(), integer_grid(30)),
        (plateau_psi(nondecreasing=True), integer_grid(30)),
    ],
    ids=["root-50", "root-geometric", "root-9", "sqrt_dip", "stairs", "plateau", "plateau-flagged"],
)
def test_h_past_the_stored_grid_ends_at_M(psi, q):
    # grids with a generator too: below, across and past psi(q(M)), flagged
    # or not, h is the stored terms' maximum, which bounds the tail by itself
    vals = psi_eval(psi, q.values)
    psi_M = float(vals[-1])
    crossing = 0.5 * float(vals[-3] + vals[-2]) if q.M >= 3 else psi_M
    xs = np.concatenate([np.geomspace(1.0, 4.0 * psi_M, 40), [crossing, math.nextafter(psi_M, math.inf), 1e6]])
    for x in xs.tolist():
        res = h_transform(q, psi, x)
        assert (res.value, res.arg_index) == naive_h(q, psi, x)
        assert res.n_terms == q.M


# probes past psi(q(M)) (or e, when psi(q(M)) < e): the exponential's norm
# is infinite under the root psi, so its N is the stored grid's; the
# natural psi of a bounded model never reaches the first probe
PAST_PSI_M = [
    (gaussian_model(), root_psi(), integer_grid(9)),
    (exponential_model(), root_psi(), integer_grid(9)),
    (exponential_model(), root_psi(), geometric_grid(2, 5)),
    (uniform01_model(), natural_psi(uniform01_model()), integer_grid(50)),
    (constant_model(2.0), natural_psi(constant_model(2.0)), integer_grid(50)),
    (rademacher_model(), natural_psi(rademacher_model()), integer_grid(50)),
]
PAST_PSI_M_IDS = ["gaussian", "exponential", "exponential-geometric", "uniform01", "constant", "rademacher"]


def past_psi_M_probes(model, psi, q):
    N = make_tail_envelope(model, psi, q).norm_value
    psi_M = float(psi_eval(psi, q.values[-1]))
    return [N * max(math.e, psi_M) * c for c in (1.05, 1.5, 2.0)]


@pytest.mark.parametrize("model, psi, q", PAST_PSI_M, ids=PAST_PSI_M_IDS)
def test_tail_check_past_psi_of_q_M_prints_the_stored_terms_envelope(model, psi, q):
    report = tail_check(model, psi, q, n=1_000, seed=0, x_grid=past_psi_M_probes(model, psi, q))
    log_psi = [math.log(v) for v in psi_eval(psi, q.values).tolist()]
    for row in report.rows:
        t = math.log(row.x / report.norm_value)
        h_M = max(qm * (t - lp) for qm, lp in zip(q.values.tolist(), log_psi))
        assert row.in_domain and row.envelope == math.exp(-h_M)


@pytest.mark.parametrize("model, psi, q", PAST_PSI_M, ids=PAST_PSI_M_IDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_sample_never_exceeds_the_stored_terms_envelope_beyond_the_slack(model, psi, q, seed):
    report = tail_check(model, psi, q, n=200_000, seed=seed, x_grid=past_psi_M_probes(model, psi, q))
    assert report.n_active == 3
    for row in report.rows:
        assert row.empirical <= row.envelope + row.slack


def reference_membership(batch, q, psi, K_grid, probes=64):
    """Probe by probe, one h_transform call each, stopping at the first
    violation; returns (K_hat, x_range_checked) or raises."""
    absv = np.abs(batch.values)
    vmax = float(absv.max())
    n = absv.size
    psi_M = float(psi_eval(psi, q.values[-1]))
    for K in sorted(float(k) for k in K_grid):
        lo = math.e * K
        if lo > vmax:
            return K, None
        hi = max(lo, min(vmax, K * psi_M * (1.0 - 1e-9)))
        for x in np.geomspace(lo, hi, probes):
            e_val = math.exp(-h_transform(q, psi, float(x) / K).value)
            slack = 3.0 * math.sqrt(max(e_val * (1.0 - e_val), 0.0) / n) + 1.0 / n
            if np.count_nonzero(absv >= x) / n > e_val + slack:
                break
        else:
            return K, (float(lo), float(hi))
    raise NoFeasibleKError("no candidate K")


def outcome(fn):
    """(K_hat, x_range_checked), or the error type."""
    try:
        return fn()
    except NoFeasibleKError:
        return "NoFeasibleKError"


@pytest.mark.parametrize(
    "psi, q, K_grid",
    [
        (root_psi(), integer_grid(60), np.geomspace(0.3, 4.0, 24)),
        (root_psi(), geometric_grid(2, 12), np.geomspace(0.05, 2.0, 16)),
        (root_psi(), integer_grid(60), [0.05, 0.1]),
        (sqrt_dip_psi(), integer_grid(60), np.geomspace(0.3, 4.0, 24)),
        (sqrt_dip_psi(), geometric_grid(2, 12), np.geomspace(0.05, 2.0, 16)),
        # unflagged: from x/K = 3.3 on, the stored terms peak at m = 29
        (plateau_psi(), integer_grid(30), [0.1, 5.0]),
        (plateau_psi(), integer_grid(30), [1.0, 5.0]),
    ],
)
def test_membership_matches_the_per_probe_reference(psi, q, K_grid):
    batch = sample(gaussian_model(), 20_000, seed=4)

    def estimate():
        est = membership_K_estimate(batch, q, psi, K_grid=K_grid)
        return est.K_hat, est.x_range_checked

    assert outcome(estimate) == outcome(lambda: reference_membership(batch, q, psi, K_grid))


@pytest.mark.parametrize("n", [200_000, 1 << 20])
def test_the_documented_false_alarm_level_is_the_exact_binomial_worst_case(n):
    """tail_check passes a probe when count / n <= env + _binomial_slack(env, n).
    With the true survival exactly at the envelope, the fail set is
    {count >= k} between the envelopes where the threshold crosses k - 1
    and k, and its probability grows with env; so the worst case is the
    limit binom.sf(k - 1, n, env_k) at a crossing env_k, maximized over k."""
    from scipy.optimize import brentq
    from scipy.stats import binom

    from glspace.tails import _binomial_slack

    def crossing(k):
        return brentq(lambda e: n * (e + _binomial_slack(e, n)) - k, 1e-15, 0.5, xtol=1e-300, rtol=1e-15)

    # the floor of one count and three deviations: count 1 never fails
    levels = {k: float(binom.sf(k - 1, n, crossing(k))) for k in range(2, 60)}
    k = max(levels, key=levels.get)
    worst, expected = levels[k], n * crossing(k)
    assert k == 3
    assert f"{worst * 1e3:.1f}e-3" in tail_check.__doc__
    assert f"expected count of {expected:.3f}" in " ".join(tail_check.__doc__.split())
    # no envelope value, crossing or not, does worse
    env = np.geomspace(1e-3 / n, 0.999, 20001)
    fail = binom.sf(np.floor(n * (env + _binomial_slack(env, n))), n, env)
    assert fail.max() <= worst


_MODELS = ("gaussian", "uniform01", "exponential", "rademacher", "constant:2.5")


@st.composite
def _tail_inputs(draw):
    M = draw(st.integers(1, 60))
    q = integer_grid(M) if draw(st.booleans()) else geometric_grid(draw(st.integers(2, 4)), M)
    if draw(st.booleans()):
        psi = sqrt_dip_psi()
    else:
        r = draw(st.floats(0.5, 8.0))
        psi = make_power_slowvary(PowerSlowVaryParams(r=r, delta=draw(st.floats(-2.0, 2.0))))
    return q, psi


def _gls_errors_only(fn):
    """fn's result, or None for a GlsError other than a TruncationError."""
    try:
        return fn()
    except TruncationError as exc:
        raise AssertionError(f"h raised a TruncationError: {exc}") from exc
    except GlsError:
        return None


@settings(max_examples=60)
@given(
    case=_tail_inputs(),
    x=st.floats(1.0, 1e12),
    K=st.floats(1e-3, 1e3),
    model=st.sampled_from(_MODELS),
    n=st.integers(1, 500),
    seed=st.integers(0, 2 ** 32 - 1),
    probes=st.lists(st.floats(-10.0, 1e6), min_size=1, max_size=4),
    K_grid=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5),
)
def test_tail_entry_points_raise_only_gls_errors_and_no_truncation(case, x, K, model, n, seed, probes, K_grid):
    q, psi = case
    res = _gls_errors_only(lambda: h_transform(q, psi, x))
    assert res is None or (math.isfinite(res.value) and 1 <= res.arg_index <= q.M)
    env = TailEnvelope(q=q, psi=psi, norm_value=K)
    _gls_errors_only(lambda: tail_envelope(env, x * env.domain_threshold))
    f = model_from_spec(model)
    _gls_errors_only(lambda: tail_check(f, psi, q, n=n, seed=seed, x_grid=probes))
    batch = sample(f, n, seed)
    _gls_errors_only(lambda: membership_K_estimate(batch, q, psi, K_grid=K_grid))
