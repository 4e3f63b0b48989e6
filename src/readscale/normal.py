"""Standard normal CDF and quantile, ported from the Cephes Math Library.

``ndtr(x)`` is P(Z <= x) for Z ~ Normal(0, 1) and ``ndtri(p)`` its inverse.
Both are ports of Stephen L. Moshier's Cephes routines ``ndtr`` (through
``erf``/``erfc``) and ``ndtri``, the code behind ``scipy.special.ndtr`` and
``scipy.special.ndtri``. They keep Cephes' coefficients, Horner order and
branch points, so every result is bit-identical to scipy's
(``tests/test_normal.py`` compares them for equality). Logarithms and
exponentials go through :mod:`math`, that is the C library, because numpy's
vectorised ``log`` can differ from it in the last bit; ``sqrt`` and the four
arithmetic operations are correctly rounded either way.

This module exists so that no ``readscale`` command has to import
``scipy.special``, which costs about 0.4 s of start-up per process.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["ndtr", "ndtri", "polevl"]

_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_SQRT1_2 = 0.70710678118654752440  # sqrt(1/2)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)
_EXPM2 = 0.13533528323661269189  # exp(-2), where ndtri leaves its central branch

# Coefficients, highest degree first. Each denominator (Q0, Q1, Q2, Q, S, U)
# starts with the leading 1 that Cephes' p1evl leaves implicit: 1 x = x, so
# evaluating it explicitly changes no bit.

# ndtri, exp(-2) < p < 1 - exp(-2): x = sqrt(2 pi) (y + y^3 P0(y^2) / Q0(y^2)), y = p - 0.5.
_P0 = (
    -5.99633501014107895267e1,
    9.80010754185999661536e1,
    -5.66762857469070293439e1,
    1.39312609387279679503e1,
    -1.23916583867381258016e0,
)
_Q0 = (
    1.0,
    1.95448858338141759834e0,
    4.67627912898881538453e0,
    8.63602421390890590575e1,
    -2.25462687854119370527e2,
    2.00260212380060660359e2,
    -8.20372256168333339912e1,
    1.59056225126211695515e1,
    -1.18331621121330003142e0,
)
# ndtri tails, z = sqrt(-2 log p) in [2, 8): p between exp(-2) and exp(-32).
_P1 = (
    4.05544892305962419923e0,
    3.15251094599893866154e1,
    5.71628192246421288162e1,
    4.40805073893200834700e1,
    1.46849561928858024014e1,
    2.18663306850790267539e0,
    -1.40256079171354495875e-1,
    -3.50424626827848203418e-2,
    -8.57456785154685413611e-4,
)
_Q1 = (
    1.0,
    1.57799883256466749731e1,
    4.53907635128879210584e1,
    4.13172038254672030440e1,
    1.50425385692907503408e1,
    2.50464946208309415979e0,
    -1.42182922854787788574e-1,
    -3.80806407691578277194e-2,
    -9.33259480895457427372e-4,
)
# ndtri tails, z in [8, 64): p below exp(-32).
_P2 = (
    3.23774891776946035970e0,
    6.91522889068984211695e0,
    3.93881025292474443415e0,
    1.33303460815807542389e0,
    2.01485389549179081538e-1,
    1.23716634817820021358e-2,
    3.01581553508235416007e-4,
    2.65806974686737550832e-6,
    6.23974539184983293730e-9,
)
_Q2 = (
    1.0,
    6.02427039364742014255e0,
    3.67983563856160859403e0,
    1.37702099489081330271e0,
    2.16236993594496635890e-1,
    1.34204006088543189037e-2,
    3.28014464682127739104e-4,
    2.89247864745380683936e-6,
    6.79019408009981274425e-9,
)
# erfc, 1 <= x < 8: exp(-x^2) P(x) / Q(x).
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.0,
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
# erfc, x >= 8: exp(-x^2) R(x) / S(x).
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    1.0,
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# erf, |x| <= 1: x T(x^2) / U(x^2).
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    1.0,
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)

# ndtri's polynomials stacked for one Horner pass over all of them, P0
# zero-padded to Q0's degree (0 x + 0 = 0 changes no bit). Row k holds the
# coefficients of degree 8 - k.
_CENTRAL = np.array([(0.0,) * 4 + _P0, _Q0]).T[:, :, None]
_TAILS = np.array([_P1, _Q1, _P2, _Q2]).T[:, :, None]


def polevl(x, coef):
    """Cephes ``polevl``: coef[0] x^N + ... + coef[N] by Horner's rule.

    With x an array and the rows of ``coef`` column vectors, it evaluates
    several polynomials at once, one per row of the result.
    """
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log(values: np.ndarray) -> np.ndarray:
    """Elementwise C-library ``log`` (``np.log`` may differ in the last bit)."""
    return np.fromiter(map(math.log, values.tolist()), dtype=float, count=values.size)


def ndtri(p):
    """Quantile of the standard normal: x with ndtr(x) = p, elementwise.

    ``ndtri(0) = -inf`` and ``ndtri(1) = inf``; p outside [0, 1] and NaN
    give NaN. Returns an array shaped like ``p`` (0-d for a scalar).
    """
    y0 = np.asarray(p, dtype=float)
    y = y0.ravel()
    out = np.full(y.shape, np.nan)
    out[y == 0.0] = -np.inf
    out[y == 1.0] = np.inf
    inside = (y > 0.0) & (y < 1.0)
    upper = inside & (y > 1.0 - _EXPM2)  # reflected: the tail formula is for small p
    y = np.where(upper, 1.0 - y, y)
    central = inside & (y > _EXPM2)
    tail = inside & ~central

    c = y[central] - 0.5
    c2 = c * c
    p0, q0 = polevl(c2, _CENTRAL)
    out[central] = (c + c * (c2 * p0 / q0)) * _S2PI

    x = np.sqrt(-2.0 * _log(y[tail]))
    x0 = x - _log(x) / x
    z = 1.0 / x
    p1, q1, p2, q2 = polevl(z, _TAILS)
    x1 = np.where(x < 8.0, z * p1 / q1, z * p2 / q2)
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)  # x1 - x0 is exactly -(x0 - x1)
    return out.reshape(y0.shape)[()]


def _erf(x: float) -> float:
    """Cephes ``erf`` for |x| <= 1, the only arguments ``ndtr`` passes."""
    z = x * x
    return x * polevl(z, _T) / polevl(z, _U)


def _erfc(x: float) -> float:
    """Cephes ``erfc`` for x >= 0, the only arguments ``ndtr`` passes."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:
        return 0.0  # exp(-x^2) underflows
    z = math.exp(z)
    if x < 8.0:
        return z * polevl(x, _P) / polevl(x, _Q)
    return z * polevl(x, _R) / polevl(x, _S)


def ndtr(a: float) -> float:
    """CDF of the standard normal at a scalar: P(Z <= a); NaN gives NaN."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y
