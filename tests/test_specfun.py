"""Special functions against a frozen high-precision table.

The expected values below were generated once with mpmath at 50 digits and
are committed verbatim; the gamma and digamma functions the constants are
built from (``math.gamma``, :func:`fraclab.specfun.digamma`) and the
constants themselves must reproduce them to 1e-12 relative.  The digamma
function is also held to a few ulps of mpmath on a dense grid of the
arguments the constants use.
"""

import math

import mpmath
import numpy as np
import pytest

from fraclab.core import DomainError
from fraclab import specfun


# (x, Gamma(x)) -- spans the reflection region, the unit interval, and
# arguments large enough to exercise the asymptotic behaviour.
GAMMA_TABLE = [
    (0.05, 19.470085311255512),
    (0.1, 9.5135076986687313),
    (0.25, 3.6256099082219083),
    (0.5, 1.772453850905516),
    (0.75, 1.2254167024651776),
    (1.0, 1.0),
    (1.25, 0.90640247705547708),
    (1.5, 0.88622692545275801),
    (2.0, 1.0),
    (2.5, 1.329340388179137),
    (3.0, 2.0),
    (3.5, 3.3233509704478426),
    (4.0, 6.0),
    (5.5, 52.34277778455352),
    (7.0, 720.0),
    (10.0, 362880.0),
    (12.5, 136843365.46556586),
    (15.0, 87178291200.0),
    (21.5, 1.1082798113786904e+19),
    (30.0, 8.841761993739702e+30),
]

# (x, psi(x)) from the same frozen run.
DIGAMMA_TABLE = [
    (0.05, -20.497844991299869),
    (0.1, -10.423754940411076),
    (0.25, -4.2274535333762654),
    (0.5, -1.9635100260214235),
    (0.75, -1.0858608797864722),
    (1.0, -0.57721566490153286),
    (1.25, -0.22745353337626541),
    (1.5, 0.036489973978576521),
    (2.0, 0.42278433509846714),
    (2.5, 0.70315664064524319),
    (3.0, 0.92278433509846714),
    (3.5, 1.1031566406452432),
    (4.0, 1.2561176684318005),
    (5.5, 1.6110931485817511),
    (7.0, 1.8727843350984671),
    (10.0, 2.2517525890667211),
    (12.5, 2.485195651274912),
    (15.0, 2.6743466616607937),
    (21.5, 3.0446168825125246),
    (30.0, 3.3844381326855249),
]


@pytest.mark.parametrize("x, expected", GAMMA_TABLE)
def test_gamma_table(x, expected):
    assert math.gamma(x) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("x, expected", DIGAMMA_TABLE)
def test_digamma_table(x, expected):
    assert specfun.digamma(x) == pytest.approx(expected, rel=1e-12)


def test_digamma_dense_grid():
    # psi(1 + s) and psi(N/2 + s), 0 < s < 2, as ball_torsion_constant
    # takes them: at most 2 ulp off, and at most 4.4e-16 absolute within
    # 0.3 of the root x0 = 1.4616..., where psi itself vanishes.
    s = np.linspace(0.0, 2.0, 2001)[1:-1]
    root = 1.4616321449683623
    with mpmath.workdps(30):
        for x in np.concatenate([1.0 + s, 1.5 + s]).tolist():
            ref = float(mpmath.digamma(x))
            err = abs(specfun.digamma(x) - ref)
            if abs(x - root) < 0.3:
                assert err <= 4.4e-16, x
            else:
                assert err <= 2.0 * math.ulp(ref), x


def test_digamma_closed_at_half_dimension():
    # psi(1) = -gamma_E and psi(3/2) = 2 - gamma_E - 2 ln 2, as
    # log_constants takes them.
    for N in (2, 3):
        assert specfun._PSI_HALF_N[N] == pytest.approx(
            float(mpmath.digamma(0.5 * N)), rel=0.0, abs=4.4e-16)


# ---------------------------------------------------------------------------
# Named constants.  Frozen values from the same high-precision run.
# ---------------------------------------------------------------------------

def test_frac_normalization_values():
    # c(2, 1/2) = 1/(2 pi) exactly.
    assert specfun.frac_normalization(2, 0.5) == pytest.approx(
        1.0 / (2.0 * math.pi), rel=1e-13)
    assert specfun.frac_normalization(2, 0.5) == pytest.approx(
        0.1591549430918953, rel=1e-12)


def test_frac_normalization_endpoint_scaling():
    # The normalization vanishes linearly in (1 - s): c ~ (1-s) * 4 Gamma(N/2+1) / pi^(N/2)
    for N in (2, 3):
        lim = 4.0 * math.gamma(0.5 * N + 1.0) / math.pi ** (0.5 * N)
        for eps in (1e-3, 1e-5):
            c = specfun.frac_normalization(N, 1.0 - eps)
            assert c == pytest.approx(eps * lim, rel=5e-3)


def test_frac_normalization_range():
    with pytest.raises(DomainError):
        specfun.frac_normalization(2, 1.0)
    with pytest.raises(DomainError):
        specfun.frac_normalization(2, 0.0)
    with pytest.raises(DomainError):
        specfun.frac_normalization(4, 0.5)


def test_log_constants():
    c2, rho2 = specfun.log_constants(2)
    assert c2 == pytest.approx(1.0 / math.pi, rel=1e-13)
    # rho_2 = 2 ln 2 - 2 gamma_E
    assert rho2 == pytest.approx(0.23186303131682490, rel=1e-12)
    c3, rho3 = specfun.log_constants(3)
    assert c3 == pytest.approx(0.1591549430918953, rel=1e-12)
    assert rho3 == pytest.approx(0.8455686701969343, rel=1e-12)


def test_riesz_constant():
    assert specfun.riesz_constant(3, 1.0) == pytest.approx(
        1.0 / (4.0 * math.pi), rel=1e-13)
    assert specfun.riesz_constant(3, 0.5) == pytest.approx(
        0.05066059182116889, rel=1e-12)
    assert specfun.riesz_constant(2, 0.25) == pytest.approx(
        math.gamma(0.75) / (math.sqrt(2.0) * math.pi * math.gamma(0.25)),
        rel=1e-13)
    with pytest.raises(DomainError):
        specfun.riesz_constant(2, 1.0)   # s < N/2 fails in dimension 2
    specfun.riesz_constant(3, 1.0)        # ... but is fine in dimension 3


def test_ball_poisson_constant():
    assert specfun.ball_poisson_constant(2, 0.5) == pytest.approx(
        1.0 / math.pi ** 2, rel=1e-13)
    # Equivalent Gamma form.
    for N in (2, 3):
        for s in (0.1, 0.37, 0.5, 0.81, 0.99):
            via_sin = specfun.ball_poisson_constant(N, s)
            via_gamma = math.gamma(0.5 * N) / (
                math.pi ** (0.5 * N) * math.gamma(s) * math.gamma(1.0 - s))
            assert via_sin == pytest.approx(via_gamma, rel=1e-12)


# (N, s, d, d') from the frozen oracle run.
TORSION_TABLE = [
    (2, 1.0, 0.25, -0.5579657578292062),
    (3, 1.0, 0.1666666666666667, -0.4187058894772668),
    (2, 0.5, 0.6366197723675813, -0.9290028784664871),
    (3, 0.5, 0.5, -0.9227843350984671),
    (2, 0.25, 0.8606822266341461, -0.8016284903748521),
    (2, 0.75, 0.4185669068638884, -0.7874245015670569),
    (3, 0.25, 0.752252778063675, -1.057903072678611),
    (3, 0.75, 0.30090111122547, -0.6638821180518204),
]


@pytest.mark.parametrize("N, s, d, dprime", TORSION_TABLE)
def test_ball_torsion_constant(N, s, d, dprime):
    value, slope = specfun.ball_torsion_constant(N, s)
    assert value == pytest.approx(d, rel=1e-12)
    assert slope == pytest.approx(dprime, rel=1e-12)


def test_ball_torsion_constant_derivative_is_consistent():
    # The returned analytic slope must match a central difference of the
    # returned values; this ties the two outputs to each other rather than
    # to the table alone.
    h = 1e-5
    for N in (2, 3):
        for s in (0.3, 0.7, 1.0, 1.3):
            up, _ = specfun.ball_torsion_constant(N, s + h)
            dn, _ = specfun.ball_torsion_constant(N, s - h)
            _, slope = specfun.ball_torsion_constant(N, s)
            assert (up - dn) / (2.0 * h) == pytest.approx(slope, rel=1e-8)


def test_ball_torsion_constant_range():
    specfun.ball_torsion_constant(2, 1.999)
    with pytest.raises(DomainError):
        specfun.ball_torsion_constant(2, 2.0)
    with pytest.raises(DomainError):
        specfun.ball_torsion_constant(3, 0.0)
