import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from losmimo import metrics
from losmimo.codes import difference_spectrum, golden_codebook, sm_codebook, simo_codebook
from losmimo.metrics import (
    coding_gain,
    d_metric,
    log_i0,
    pep_avg_theta,
    pep_chernoff,
    pep_exact,
    pep_worst,
    planar_lower_bound,
    union_bound,
)

# log(I0(x)) at 30 significant digits
I0_REFERENCE = [
    (0.5, "0.0615497191854813039412845745138"),
    (1, "0.2359143585071786486894148462"),
    (2, "0.823993541482956282931337781541"),
    (5, "3.30468177582253343384583109635"),
    (10, "7.94297208311869555449486540024"),
    (19.5, "17.1024384245651919458258249103"),
    (20, "17.5896104282442742908005525459"),
    (20.5, "18.0771035041484750785560536558"),
    (25, "22.4767280049992437593305927985"),
    (50, "47.1275755018718045841630024617"),
    (100, "96.7797326899425837166884766912"),
    (500, "495.974007668106696461029137684"),
    (1000, "995.627308889869464671467764481"),
]


def r_matrix(mu, theta, n_r):
    return np.sqrt(n_r) * np.array([[1.0, mu * np.exp(1j * theta)],
                                    [0.0, np.sqrt(1.0 - mu * mu)]], dtype=complex)


def triple_of(delta_x):
    a = float(np.sum(np.abs(delta_x[0]) ** 2))
    b = float(np.sum(np.abs(delta_x[1]) ** 2))
    c = float(abs(np.vdot(delta_x[0], delta_x[1])))
    return a, b, c


class TestLogI0:
    @pytest.mark.parametrize("x,ref", I0_REFERENCE)
    def test_reference_values(self, x, ref):
        assert log_i0(float(x)) == pytest.approx(float(ref), rel=1e-12)

    def test_first_order_form_at_ten(self):
        # e^x / sqrt(2 pi x) is accurate to the 1/(8x) correction at x = 10
        approx = 10.0 - 0.5 * math.log(2 * math.pi * 10.0)
        rel = math.exp(log_i0(10.0)) / math.exp(approx) - 1.0
        assert 0.8 / 80 < rel < 1.2 / 80

    def test_zero(self):
        assert log_i0(0.0) == 0.0


class TestDMetric:
    def test_mu_zero(self):
        assert d_metric(0.0, (1.3, 0.6, 0.5)) == pytest.approx(1.9)

    def test_equal_rows_vanish_at_mu_one(self):
        dx = np.array([[1.0 + 1j, 0.5], [1.0 + 1j, 0.5]])
        assert d_metric(1.0, triple_of(dx)) == pytest.approx(0.0, abs=1e-12)

    def test_worst_case_correlation_example(self):
        assert d_metric(0.722, (1, 1, 1)) == pytest.approx(0.556)

    def test_monotone_in_mu(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.uniform(0.1, 3.0, 2)
            c = rng.uniform(0, np.sqrt(a * b))
            mus = np.linspace(0, 1, 11)
            vals = [d_metric(m, (a, b, c)) for m in mus]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_rejects_cauchy_schwarz_violation(self):
        with pytest.raises(ValueError, match="Cauchy-Schwarz"):
            d_metric(0.5, (1.0, 1.0, 2.0))

    def test_rank_one_floor(self):
        # d(1, dX) >= (||dx1|| - ||dx2||)^2 over whole spectra
        for cb in (sm_codebook(), simo_codebook()):
            for a, b, c in difference_spectrum(cb):
                assert d_metric(1.0, (a, b, c)) >= (np.sqrt(a) - np.sqrt(b)) ** 2 - 1e-12


@pytest.fixture(scope="module")
def sm_spec():
    return difference_spectrum(sm_codebook())


class TestCodingGain:
    def test_sm_low_mu(self, sm_spec):
        for mu in (0.0, 0.25, 0.5):
            assert coding_gain(sm_spec, mu) == pytest.approx(1.0)

    def test_sm_rank_one(self, sm_spec):
        assert coding_gain(sm_spec, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_simo_constant(self):
        spec = difference_spectrum(simo_codebook())
        for mu in np.linspace(0, 1, 6):
            assert coding_gain(spec, float(mu)) == pytest.approx(0.4)

    def test_monotone_in_mu(self, sm_spec):
        vals = [coding_gain(sm_spec, float(m)) for m in np.linspace(0, 1, 21)]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_empty_spectrum(self):
        with pytest.raises(ValueError):
            coding_gain(np.empty((0, 3)), 0.5)

    def test_equals_the_minimum_of_the_full_table(self):
        # reduced one triple at a time, the gain keeps the bits of the
        # minimum over the (mu x triples) table of d-metrics
        spec = difference_spectrum(golden_codebook())
        mus = np.linspace(0.0, 1.0, 1001)
        assert np.array_equal(coding_gain(spec, mus),
                              np.min(d_metric(mus[:, None], spec), axis=-1))
        assert coding_gain(spec[5], 0.3) == d_metric(0.3, spec[5])

    def test_memory_grows_with_mu_alone(self):
        # the (mu x triples) table took a 276 MiB peak at 10^5 mu on Golden's
        # 181 triples, and 1.35 GiB for `gain all --mu-step 1e-6`
        spec = difference_spectrum(golden_codebook())
        mus = np.linspace(0.0, 1.0, 100_001)
        tracemalloc.start()
        try:
            coding_gain(spec, mus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def test_imports_no_losmimo_module():
    # the metrics take plain difference triples, whatever builds them
    tree = ast.parse(Path(metrics.__file__).read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.level or node.module == "losmimo")
                or isinstance(node, ast.Import)
                and any(a.name.split(".")[0] == "losmimo" for a in node.names)]


def test_received_distance_expansion_identity():
    # ||R dX||_F^2 = n_r (a + b + 2 mu cos(theta') c) with theta' the phase
    # shifted by the row inner product's argument
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_r = int(rng.integers(2, 8))
        mu = rng.uniform(0, 1)
        theta = rng.uniform(0, 2 * np.pi)
        dx = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        a, b, c = triple_of(dx)
        theta_p = theta + np.angle(np.vdot(dx[0], dx[1]))
        lhs = np.sum(np.abs(r_matrix(mu, theta, n_r) @ dx) ** 2)
        rhs = n_r * (a + b + 2 * mu * np.cos(theta_p) * c)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestPepChernoff:
    def test_zero_difference(self):
        r = r_matrix(0.3, 0.1, 4)
        dx = np.zeros((2, 1))
        assert pep_chernoff(r, dx, 10.0) == pytest.approx(0.5)
        assert pep_exact(r, dx, 10.0) == pytest.approx(0.5)

    def test_hand_evaluated_case(self):
        # mu = 0, unit row norms, n_r = 4, SNR = 1: exp(-2)/2
        r = r_matrix(0.0, 0.0, 4)
        dx = np.array([[1.0], [1.0j]])
        assert pep_chernoff(r, dx, 1.0) == pytest.approx(np.exp(-2.0) / 2.0)

    def test_chernoff_dominates_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            mu = rng.uniform(0, 1)
            r = r_matrix(mu, rng.uniform(0, 2 * np.pi), rng.integers(2, 6))
            dx = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            snr = rng.uniform(0.01, 30)
            assert pep_exact(r, dx, snr) <= pep_chernoff(r, dx, snr) + 1e-15


class TestPepWorst:
    def test_floor_at_half(self):
        assert pep_worst(1.0, (1, 1, 1), 1e6, 4) == pytest.approx(0.5)

    def test_tetrahedral_aggregate(self):
        # n_r = 4, d = 0.556: exp(-0.556 SNR)/2
        for snr in (1.0, 5.0, 20.0):
            assert pep_worst(0.722, (1, 1, 1), snr, 4) == \
                pytest.approx(0.5 * np.exp(-0.556 * snr), rel=1e-12)

    def test_matches_max_over_theta_aligned(self):
        # real positive row inner product puts theta* = pi on the sweep grid
        mu, n_r, snr = 0.6, 4, 1.0
        dx = np.array([[1.0, 0.5], [0.8, 0.4]])
        worst = pep_worst(mu, triple_of(dx), snr, n_r)
        swept = max(pep_chernoff(r_matrix(mu, t, n_r), dx, snr)
                    for t in np.linspace(0, 2 * np.pi, 360, endpoint=False))
        assert swept == pytest.approx(worst, abs=1e-9)

    def test_dominates_fine_theta_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            dx = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            mu = rng.uniform(0, 1)
            worst = pep_worst(mu, triple_of(dx), 1.0, 4)
            swept = max(pep_chernoff(r_matrix(mu, t, 4), dx, 1.0)
                        for t in np.linspace(0, 2 * np.pi, 720, endpoint=False))
            assert swept <= worst + 1e-12
            assert swept == pytest.approx(worst, rel=1e-3)


class TestPepAvgTheta:
    def test_mu_zero_reduces_to_plain_exponent(self):
        val = pep_avg_theta(0.0, (1, 1, 0.5), 2.0, 4, form="exact")
        assert val == pytest.approx(0.5 * np.exp(-2.0 * 4 * 2 / 4))

    def test_asymptotic_requires_positive_cross(self):
        with pytest.raises(ValueError, match="asymptotic"):
            pep_avg_theta(0.0, (1, 1, 0.5), 2.0, 4)

    def test_matches_monte_carlo_average(self):
        rng = np.random.default_rng(3)
        mu, snr, n_r = 0.45, 2.0, 4
        a, b, c = 1.0, 0.9, 0.6
        theta = rng.uniform(0, 2 * np.pi, 1_000_000)
        sampled = np.mean(0.5 * np.exp(-0.25 * snr * n_r * (a + b + 2 * mu * c * np.cos(theta))))
        exact, _ = pep_avg_theta(mu, (a, b, c), snr, n_r)
        assert exact == pytest.approx(sampled, rel=0.005)

    def test_asymptotic_approaches_exact_at_high_snr(self):
        le, la = pep_avg_theta(0.7, (1, 1, 0.9), 500.0, 4, log=True)
        assert le == pytest.approx(la, abs=5e-3)

    def test_ordering_chain(self):
        # worst-theta bound >= averaged exact-I0 bound >= sampled exact PEP mean
        rng = np.random.default_rng(4)
        for _ in range(20):
            mu = rng.uniform(0.05, 0.95)
            dx = rng.normal(size=(2, 1)) + 1j * rng.normal(size=(2, 1))
            trip = triple_of(dx)
            snr, n_r = rng.uniform(0.1, 5.0), 4
            worst = pep_worst(mu, trip, snr, n_r)
            avg_exact = pep_avg_theta(mu, trip, snr, n_r, form="exact")
            thetas = np.linspace(0, 2 * np.pi, 256, endpoint=False)
            sampled = np.mean([pep_exact(r_matrix(mu, t, n_r), dx, snr) for t in thetas])
            assert worst + 1e-15 >= avg_exact >= sampled - 1e-12


class TestPlanarLowerBound:
    def test_cubic_snr_decay_when_rank_deficient(self):
        trip = (1.0, 1.0, 1.0)  # d(1, dX) = 0
        logs = [planar_lower_bound(trip, s, 4, 2.0, log=True) + 3 * np.log(s)
                for s in (1e3, 2e3, 4e3, 8e3)]
        diffs = np.abs(np.diff(logs))
        # residual drift comes from the 1/sqrt(n_r SNR) denominator term
        assert diffs[-1] < diffs[0]
        assert diffs[-1] < 2e-3

    def test_doubling_snr_reduces_by_eight(self):
        trip = (1.0, 1.0, 1.0)
        lo = planar_lower_bound(trip, 1e3, 4, 2.0, log=True)
        hi = planar_lower_bound(trip, 2e3, 4, 2.0, log=True)
        assert lo - hi == pytest.approx(np.log(8.0), abs=5e-3)

    def test_exponential_decay_when_full_rank(self):
        trip = (1.0, 1.0, 0.4)
        d1 = d_metric(1.0, trip)
        s1, s2 = 1e3, 2e3
        l1 = planar_lower_bound(trip, s1, 4, 2.0, log=True)
        l2 = planar_lower_bound(trip, s2, 4, 2.0, log=True)
        slope = (l2 - l1) / (s2 - s1)
        assert slope == pytest.approx(-4 * d1 / 4, rel=1e-2)

    def test_degenerate_cross_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            planar_lower_bound((1.0, 1.0, 0.0), 100.0, 4, 2.0)


def test_union_bound_value():
    spec = difference_spectrum(sm_codebook())
    got = union_bound(16, spec, 0.5, 2.0, 4)
    assert got == pytest.approx(8.0 * np.exp(-0.25 * 4 * 2.0 * 1.0))


# A grid over (triple i, mu j, snr k, n_r l): each batched argument broadcasts
# to shape (5, 4, 3, 2); r_matrix and delta_x carry their matrix axes last.
_rng = np.random.default_rng(11)
_A, _B = _rng.uniform(0.05, 3.0, (2, 5))
GRID_TRIPLES = np.column_stack([_A, _B, _rng.uniform(0.01, 1.0, 5) * np.sqrt(_A * _B)])
GRID_MUS = np.array([0.05, 0.45, 0.722, 1.0])
GRID_SNRS = np.array([0.3, 2.0, 40.0])
GRID_N_RS = np.array([1, 4])
GRID_DX = _rng.normal(size=(5, 2, 2)) + 1j * _rng.normal(size=(5, 2, 2))
GRID_R = np.array([[r_matrix(m, 0.7, n) for n in GRID_N_RS] for m in GRID_MUS])
GRID_SPEC = difference_spectrum(sm_codebook())

BATCH_CASES = {
    "d_metric": lambda t, mu, snr, n_r, r, dx: d_metric(mu, t),
    "coding_gain": lambda t, mu, snr, n_r, r, dx: coding_gain(GRID_SPEC, mu),
    "pep_exact": lambda t, mu, snr, n_r, r, dx: pep_exact(r, dx, snr),
    "pep_exact-log": lambda t, mu, snr, n_r, r, dx: pep_exact(r, dx, snr, log=True),
    "pep_chernoff": lambda t, mu, snr, n_r, r, dx: pep_chernoff(r, dx, snr),
    "pep_chernoff-log": lambda t, mu, snr, n_r, r, dx: pep_chernoff(r, dx, snr, log=True),
    "pep_worst": lambda t, mu, snr, n_r, r, dx: pep_worst(mu, t, snr, n_r),
    "pep_worst-log": lambda t, mu, snr, n_r, r, dx: pep_worst(mu, t, snr, n_r, log=True),
    "pep_avg_theta-exact":
        lambda t, mu, snr, n_r, r, dx: pep_avg_theta(mu, t, snr, n_r, form="exact"),
    "pep_avg_theta-asymptotic":
        lambda t, mu, snr, n_r, r, dx: pep_avg_theta(mu, t, snr, n_r, form="asymptotic"),
    "pep_avg_theta-both-log":
        lambda t, mu, snr, n_r, r, dx: np.stack(pep_avg_theta(mu, t, snr, n_r, log=True), -1),
    "planar_lower_bound": lambda t, mu, snr, n_r, r, dx: planar_lower_bound(t, snr, n_r, 2.0),
    "planar_lower_bound-log":
        lambda t, mu, snr, n_r, r, dx: planar_lower_bound(t, snr, n_r, 2.0, log=True),
    "union_bound": lambda t, mu, snr, n_r, r, dx: union_bound(16, GRID_SPEC, mu, snr, n_r),
    "union_bound-log":
        lambda t, mu, snr, n_r, r, dx: union_bound(16, GRID_SPEC, mu, snr, n_r, log=True),
    "log_i0": lambda t, mu, snr, n_r, r, dx: log_i0(7.0 * snr * n_r * mu),
}


@pytest.mark.parametrize("case", list(BATCH_CASES))
def test_batched_call_equals_scalar_calls(case):
    fn = BATCH_CASES[case]
    batched = fn(GRID_TRIPLES[:, None, None, None], GRID_MUS[:, None, None],
                 GRID_SNRS[:, None], GRID_N_RS, GRID_R[:, None], GRID_DX[:, None, None, None])
    shape = (len(GRID_TRIPLES), len(GRID_MUS), len(GRID_SNRS), len(GRID_N_RS))
    scalars = []
    for i, j, k, l in np.ndindex(shape):
        val = fn(tuple(float(v) for v in GRID_TRIPLES[i]), float(GRID_MUS[j]),
                 float(GRID_SNRS[k]), int(GRID_N_RS[l]), GRID_R[j, l], GRID_DX[i])
        if not case.startswith("pep_avg_theta-both"):
            assert type(val) is float
        scalars.append(val)
    scalars = np.array(scalars).reshape(shape + np.shape(scalars[0]))
    assert np.array_equal(np.broadcast_to(batched, scalars.shape), scalars)


@pytest.mark.parametrize("bad,match", [((1.0, 1.0, 2.0), "Cauchy-Schwarz"),
                                       ((1.0, -0.1, 0.0), "non-negative")])
def test_one_bad_triple_in_a_batch_raises(bad, match):
    batch = GRID_TRIPLES.copy()
    batch[3] = bad
    calls = [
        lambda: d_metric(0.5, batch),
        lambda: coding_gain(batch, GRID_MUS),
        lambda: pep_worst(GRID_MUS[:, None], batch, 1.0, 4),
        lambda: pep_avg_theta(0.5, batch, GRID_SNRS[:, None], 4, form="exact"),
        lambda: planar_lower_bound(batch, 1.0, 4, 2.0),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("snr,n_r", [(0.0, 4), (math.nan, 4), (1.0, 0), (1.0, math.nan)],
                         ids=["snr-0", "snr-nan", "n_r-0", "n_r-nan"])
def test_bad_snr_or_n_r_raises(snr, n_r):
    # a NaN used to give a nan PEP or bound
    trip = (1.0, 1.0, 0.4)
    calls = [
        lambda: pep_worst(0.5, trip, snr, n_r),
        lambda: pep_avg_theta(0.5, trip, snr, n_r),
        lambda: planar_lower_bound(trip, snr, n_r, 2.0),
        lambda: union_bound(16, GRID_SPEC, 0.5, snr, n_r),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="need snr > 0 and n_r >= 1"):
            call()


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan])
def test_bad_geometry_constant_raises(c):
    with pytest.raises(ValueError, match="geometry constant c must be positive"):
        planar_lower_bound((1.0, 1.0, 0.4), 100.0, 4, c)
