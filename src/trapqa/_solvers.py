"""Ports of the scipy solvers trapqa runs, in scipy's floating-point order.

Each port does scipy's operations in scipy's order, so it returns scipy's
results bit for bit (tests/test_solvers.py keeps scipy as the reference)
without loading scipy, which costs about 0.4 s and 50 MB for
``scipy.optimize`` alone:

- ``_qags``: QUADPACK's ``dqagse`` with ``dqk21``, ``dqpsrt`` and ``dqelg``
  (Piessens et al., *QUADPACK*, Springer 1983), which is what
  ``scipy.integrate.quad`` runs on a finite range. Each integral is a
  generator that yields the intervals it needs and receives their ``dqk21``
  results; ``_qags`` moves a batch of integrals forward together, with one
  vectorised integrand call per round.
- ``_brentq``: scipy's C ``brentq``.
- ``_least_squares``: the path of ``scipy.optimize.least_squares`` that the
  R(T) fit takes, the bounded trust-region-reflective method (Branch,
  Coleman & Li, SIAM J. Sci. Comput. 21, 1999) with its exact trust-region
  solver and a two-point Jacobian. Its one factorisation is
  ``numpy.linalg.svd``, whose bits equal ``scipy.linalg.svd``'s on the
  machines measured (a guard in tests/test_solvers.py); the products that
  follow it take scipy's column-major layout of the factors.

All three serve ``thermometry``; the bounded minimizer that ``diagnosis``
runs lives in that module, so a ``diagnose`` process does not load this one.

Bit-identity with ``quad`` also rests on the integrand, which is the
caller's: ``thermometry`` computes x**5 with ``np.float_power``, which runs
libm's ``pow`` as the scalar calls did (``np.power`` differs in the last
bit at some x), and e^x with ``np.exp`` on an array, which gives the scalar
bits on the machines measured. ``dqk21``'s per-interval ``**1.5`` stays a
scalar float power here.

The QUADPACK routines keep its 1-based arrays (index 0 unused) and its
names, so they read line for line against the Fortran; the least_squares
port keeps scipy's names, and its comments cite scipy's lines.
"""

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import norm, svd

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)

# ------------------------------------------------------------- dqk21

# The 21-point Kronrod abscissae xgk(1..11) and weights wgk(1..11), and the
# weights wg(1..5) of the 10-point Gauss rule on xgk(2), xgk(4), ..., xgk(10):
# the constants of scipy's integrate/_quad_vec.py (_quadrature_gk21).
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# dqk21 adds the Gauss pairs xgk(2), xgk(4), ..., xgk(10) first, then the
# Kronrod-only pairs xgk(1), xgk(3), ..., xgk(9); the rows below follow that
# order, and _NATURAL puts them back in 1..10 order for the resasc sum.
_LOOP = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_NATURAL = np.argsort(_LOOP)
_NODES = np.array([[_XGK[j]] for j in _LOOP])
_WGK_LOOP = np.array([[[_WGK[10]]]] + [[[_WGK[j]]] for j in _LOOP])
_WGK_RESASC = np.array([[_WGK[10]]] + [[w] for w in _WGK[:10]])
_WG_COL = np.array([[w] for w in _WG])


def _dqk21(f, intervals):
    """``dqk21`` on every ``(a, b)`` of ``intervals``, with one call of ``f``.

    ``f`` maps a (21, n) array of abscissae to the integrand there. Returns
    ``(result, abserr, resabs, resasc)`` per interval. Every sum runs in
    dqk21's order (``np.add.accumulate`` down the rows, never a pairwise or
    BLAS sum), and the ``**1.5`` is a float power, libm's ``pow``.
    """
    n = len(intervals)
    a, b = np.array(intervals).T
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = np.abs(hlgth)
    absc = _NODES * hlgth
    x = np.empty((21, n))
    x[0] = centr
    np.subtract(centr, absc, out=x[1:11])
    np.add(centr, absc, out=x[11:])
    fx = f(x)
    fc, fv1, fv2 = fx[0], fx[1:11], fx[11:]

    # C arithmetic passes an inf or a nan on without a word; so does this
    with np.errstate(all="ignore"):
        fsum = fv1 + fv2
        # resg starts from its first term, not from 0.0 plus that term: the
        # two differ in the sign of a zero alone, which abserr's abs drops
        resg = np.add.accumulate(_WG_COL * fsum[:5], axis=0)[-1]
        # resk and resabs side by side, summed down the rows in dqk21's
        # order; |wgk(11) * fc| is wgk(11) * |fc| exactly
        terms = np.empty((11, 2, n))
        terms[0, 0] = fc
        terms[0, 1] = np.abs(fc)
        terms[1:, 0] = fsum
        terms[1:, 1] = np.abs(fv1) + np.abs(fv2)
        terms *= _WGK_LOOP
        resk, resabs = np.add.accumulate(terms, axis=0)[-1]
        reskh = resk * 0.5
        dev = np.abs(fx - reskh)
        terms = np.empty((11, n))
        terms[0] = dev[0]
        terms[1:] = (dev[1:11] + dev[11:])[_NATURAL]
        terms *= _WGK_RESASC
        resasc = np.add.accumulate(terms, axis=0)[-1]
        result = resk * hlgth
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        abserr = np.abs((resk - resg) * hlgth)

    out = []
    for result, abserr, resabs, resasc in zip(
        result.tolist(), abserr.tolist(), resabs.tolist(), resasc.tolist()
    ):
        if resasc != 0.0 and abserr != 0.0:
            # resasc * min(1, ratio**1.5), without the float power's
            # OverflowError where the minimum is 1 anyway
            ratio = 200.0 * abserr / resasc
            abserr = resasc * (ratio**1.5 if ratio < 1.0 else 1.0)
        if resabs > _UFLOW / (50.0 * _EPMACH):
            abserr = max((_EPMACH * 50.0) * resabs, abserr)
        out.append((result, abserr, resabs, resasc))
    return out


# ------------------------------------------------------------ dqagse


class IntegrationWarning(UserWarning):
    """QUADPACK flagged a result (``ier`` > 0), where ``quad`` would warn."""


# quad's warning for each ier that dqagse returns
_IER_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved.\n  "
    "If increasing the limit yields no improvement it is advised to "
    "analyze \n  the integrand in order to determine the difficulties.  "
    "If the position of a \n  local difficulty can be determined "
    "(singularity, discontinuity) one will \n  probably gain from "
    "splitting up the interval and calling the integrator \n  on the "
    "subranges.  Perhaps a special-purpose integrator should be used.",
    2: "The occurrence of roundoff error is detected, which prevents \n  "
    "the requested tolerance from being achieved.  "
    "The error may be \n  underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the\n  "
    "integration interval.",
    4: "The algorithm does not converge.  Roundoff error is detected\n  "
    "in the extrapolation table.  It is assumed that the requested "
    "tolerance\n  cannot be achieved, and that the returned result "
    "(if full_output = 1) is \n  the best which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
}


def _qags(f, a, bs, epsabs: float, epsrel: float, limit: int) -> list:
    """``quad(f, a, b, epsabs=..., epsrel=..., limit=...)`` for each ``b`` of
    ``bs`` (each above ``a``): a list of ``(result, abserr, ier)``.

    ``f`` maps an array of abscissae to the integrand there, elementwise.
    Every integral runs its own ``dqagse``; each round evaluates ``dqk21``
    on the intervals that all unfinished integrals asked for, with one call
    of ``f``. Where ``ier`` > 0, quad would warn ``_ier_message(ier, limit)``.
    """
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        raise ValueError("epsrel is below QUADPACK's floor for epsabs <= 0")
    runs = [_dqagse(a, b, epsabs, epsrel, limit) for b in bs]
    asks = {i: next(run) for i, run in enumerate(runs)}
    out = [None] * len(runs)
    while asks:
        rules = _dqk21(f, [iv for ivs in asks.values() for iv in ivs])
        k = 0
        for i, ivs in list(asks.items()):
            try:
                asks[i] = runs[i].send(rules[k : k + len(ivs)])
            except StopIteration as done:
                del asks[i]
                out[i] = done.value
            k += len(ivs)
    return out


def _ier_message(ier: int, limit: int) -> str:
    """quad's warning for a result that dqagse flags with ``ier``."""
    return _IER_MESSAGES[ier].format(limit=limit)


def _dqagse(a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """QUADPACK's ``dqagse`` as a generator: it yields the intervals whose
    ``dqk21`` results it needs next, is sent those results, and returns
    ``(result, abserr, ier)``. Labels in the comments are the Fortran's.
    The work lists are built only once the first approximation fails the
    accuracy test: many integrals of a batch return there."""
    ier = 0

    # first approximation to the integral
    ierro = 0
    ((result, abserr, defabs, resabs),) = yield ((a, b),)

    # test on accuracy
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier  # 140

    # initialization
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    alist[1] = a
    blist[1] = b
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    correc = small = erlarg = ertest = 0.0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1

    # main do-loop
    label = 100
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, error1, resabs, defab1), (area2, error2, resabs, defab2) = yield ((a1, b1), (a2, b2))

        # improve previous approximations to integral and error and test
        # for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 0.1e-4 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:  # 10
                iroff3 += 1
        rlist[maxerr] = area1  # 15
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # test for roundoff error and eventually set error flag
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        # the number of subintervals equals limit
        if last == limit:
            ier = 1
        # bad integrand behaviour at a point of the integration range
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4

        # append the newly-created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2  # 20
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        # keep the error estimates in descending order and select the
        # subinterval with the nrmax-th largest one (to be bisected next)
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)  # 30
        if errsum <= errbnd:
            label = 115
            break
        if ier != 0:
            label = 100
            break
        if last == 2:  # 80
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # test whether the interval to be bisected next is the smallest
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):  # 40
            # the smallest interval has the largest error: before bisecting,
            # decrease the sum of the errors over the larger intervals
            # (erlarg) and perform extrapolation
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax = nrmax + 1
            if larger:
                continue

        # perform extrapolation
        numrl2 = numrl2 + 1  # 60
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin = ktmin + 1
        if ktmin > 5 and abserr < 0.1e-2 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                label = 100
                break

        # prepare bisection of the smallest interval
        if numrl2 == 1:  # 70
            noext = True
        if ier == 5:
            label = 100
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set final result and error estimate
    if label == 100:
        if abserr == _OFLOW:
            label = 115
        elif ier + ierro == 0:
            label = 110
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                label = 115 if abserr / abs(result) > errsum / abs(area) else 110  # 105
            elif abserr > errsum:
                label = 115
            else:
                label = 130 if area == 0.0 else 110
    if label == 110:
        # test on divergence
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.1e-1):
            if 0.1e-1 > result / area or result / area > 0.1e3 or errsum > abs(area):
                ier = 6
    elif label == 115:
        # compute global integral sum
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:  # 130
        ier = ier - 1
    return result, abserr, ier


def _dqpsrt(limit: int, last: int, maxerr: int, elist, iord, nrmax: int):
    """QUADPACK's ``dqpsrt``: keep ``iord`` ordering ``elist`` by decreasing
    error after a bisection; returns ``(maxerr, ermax, nrmax)``."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        maxerr = iord[nrmax]  # 90
        return maxerr, elist[maxerr], nrmax

    # if subdivision increased the error estimate, the insertion starts
    # above the nrmax-th largest error estimate
    errmax = elist[maxerr]  # 10
    if nrmax != 1:
        for _ in range(1, nrmax):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax = nrmax - 1

    # the number of elements kept in descending order, which depends on the
    # number of subdivisions still allowed
    jupbn = last  # 30
    if last > limit // 2 + 2:
        jupbn = limit + 3 - last
    errmin = elist[last]

    # insert errmax by traversing the list top-down
    jbnd = jupbn - 1
    ibeg = nrmax + 1
    for i in range(ibeg, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            # insert errmin by traversing the list bottom-up
            iord[i - 1] = maxerr  # 60
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last  # 80
                    break
                iord[k + 1] = isucc
                k = k - 1
            else:
                iord[i] = last
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr  # 50
        iord[jupbn] = last

    maxerr = iord[nrmax]  # 90
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab, res3la, nres: int):
    """QUADPACK's ``dqelg``, the epsilon algorithm, on ``epstab[1..n]``.

    Updates ``epstab`` and ``res3la`` in place; returns
    ``(n, result, abserr, nres)``.
    """
    nres = nres + 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 are equal to within machine accuracy:
                # convergence is assumed
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]  # 10
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # if two elements are very close to each other, omit a part of
            # the table by adjusting the value of n
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1  # 20
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            # irregular behaviour in the table: omit a part of it
            if not epsinf > 0.1e-3:
                n = i + i - 1  # 20
                break
            # compute a new element and eventually adjust the value of result
            res = e1 + 1.0 / ss  # 30
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res

        if not converged:
            # shift the table
            if n == limexp:  # 50
                n = 2 * (limexp // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            ie = newelm + 1
            for _ in range(ie):
                ib2 = ib + 2
                epstab[ib] = epstab[ib2]
                ib = ib2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx = indx + 1
            if nres >= 4:  # 80
                # compute error estimate
                abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])  # 90
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
            else:
                res3la[nres] = result
                abserr = _OFLOW
    abserr = max(abserr, 5.0 * _EPMACH * abs(result))  # 100
    return n, result, abserr, nres


# ------------------------------------------------------------ brentq


def _brentq(
    f, xa: float, xb: float, xtol: float = 2e-12, rtol: float = 4 * _EPMACH, maxiter: int = 100
) -> float:
    """A root of ``f`` in the bracket ``[xa, xb]``: scipy's ``brentq``.

    A port of scipy's C ``brentq`` (optimize/Zeros/brentq.c) with the
    defaults and refusals of ``scipy.optimize.brentq``: ``f`` takes and
    returns a float; a nan value, or ``f(xa)`` and ``f(xb)`` of one sign,
    raises ValueError, and no convergence in ``maxiter`` steps RuntimeError.
    """
    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# ------------------------------------------------------- least_squares
#
# scipy 1.17.1's least_squares(fun, x0, bounds=(lb, ub), ftol=..., xtol=...)
# with its other arguments at their defaults: method "trf" with bounds
# (trf_bounds and select_step), tr_solver "exact", loss "linear", x_scale
# 1.0 and the bound-aware "2-point" Jacobian. Comments cite the lines of
# scipy/optimize/_lsq/{least_squares,trf,common}.py and _numdiff.py. The
# products with x_scale (all ones) are exact, so they are left out.

_GTOL = 1e-8  # least_squares' default gtol

# least_squares' message for each status that trf returns
_LSQ_MESSAGES = {
    0: "The maximum number of function evaluations is exceeded.",
    1: "`gtol` termination condition is satisfied.",
    2: "`ftol` termination condition is satisfied.",
    3: "`xtol` termination condition is satisfied.",
    4: "Both `ftol` and `xtol` termination conditions are satisfied.",
}


@dataclass(frozen=True)
class LsqResult:
    """The fields of least_squares' result that its callers here read."""

    x: np.ndarray
    fun: np.ndarray
    jac: np.ndarray
    status: int
    nfev: int
    active_mask: np.ndarray
    success: bool
    message: str


def _least_squares(fun, x0, lb, ub, ftol: float, xtol: float, max_nfev=None) -> LsqResult:
    """``scipy.optimize.least_squares(fun, x0, bounds=(lb, ub), ftol=ftol,
    xtol=xtol, max_nfev=max_nfev)``, bit for bit.

    ``fun`` maps a float array to a 1-D float array. ``x0`` must lie within
    the bounds, each ``lb < ub``, and each tolerance be at least machine
    epsilon, which scipy checks and the callers here meet. As in scipy,
    residuals that are not finite at the start raise ValueError.
    """
    x0 = np.atleast_1d(x0).astype(float)  # least_squares.py:876
    lb = np.asarray(lb, dtype=float)  # :886
    ub = np.asarray(ub, dtype=float)
    x0 = _make_strictly_feasible(x0, lb, ub, 1e-10)  # :908
    f0 = np.atleast_1d(fun(x0))  # :938
    J0 = _jac_2point(fun, x0, f0, lb, ub)
    if not np.all(np.isfinite(f0)):
        raise ValueError("Residuals are not finite in the initial point.")
    x, f, J, status, nfev = _trf_bounds(fun, x0, f0, J0, lb, ub, ftol, xtol, max_nfev)
    return LsqResult(
        x=x, fun=f, jac=J, status=status, nfev=nfev,
        active_mask=_find_active_constraints(x, lb, ub, xtol),  # trf.py:408
        success=status > 0, message=_LSQ_MESSAGES[status],
    )


def _trf_bounds(fun, x0, f0, J0, lb, ub, ftol, xtol, max_nfev):
    """trf.py:206 ``trf_bounds``; returns ``(x, fun, jac, status, nfev)``."""
    x = x0.copy()
    f = f0  # with loss "linear", scipy's f_true is f
    nfev = 1
    J = J0
    m, n = J.shape
    cost = 0.5 * np.dot(f, f)
    g = J.T.dot(f)  # common.py:590 compute_grad

    v, dv = _cl_scaling_vector(x, g, lb, ub)
    Delta = norm(x0 / v**0.5)  # :236
    if Delta == 0:
        Delta = 1.0

    f_augmented = np.zeros(m + n)
    J_augmented = np.empty((m + n, n))
    if max_nfev is None:
        max_nfev = x0.size * 100
    alpha = 0.0  # "Levenberg-Marquardt" parameter
    status = None

    while True:
        v, dv = _cl_scaling_vector(x, g, lb, ub)  # :263
        g_norm = norm(g * v, ord=np.inf)
        if g_norm < _GTOL:
            status = 1
        if status is not None or nfev == max_nfev:
            break

        d = v**0.5  # :288, the variables in "hat" space
        diag_h = g * dv
        g_h = d * g
        f_augmented[:m] = f
        J_augmented[:m] = J * d
        J_h = J_augmented[:m]  # a view
        J_augmented[m:] = np.diag(diag_h**0.5)
        if not np.all(np.isfinite(J_augmented)):  # scipy.linalg.svd's check_finite
            raise ValueError("array must not contain infs or NaNs")
        U, s, V = svd(J_augmented, full_matrices=False)
        # scipy.linalg hands back LAPACK's column-major U and V^T, numpy.linalg
        # row-major copies of the same bits; the products below run another
        # BLAS kernel for each layout, so take scipy's
        V = np.asfortranarray(V).T
        uf = np.asfortranarray(U).T.dot(f_augmented)  # :305

        theta = max(0.995, 1 - g_norm)  # step back ratio from the bounds
        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:  # :327
            p_h, alpha = _solve_lsq_trust_region(n, m, uf, s, V, Delta, alpha)
            p = d * p_h
            step, step_h, predicted_reduction = _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta)
            x_new = _make_strictly_feasible(x + step, lb, ub, 0)
            f_new = np.atleast_1d(fun(x_new))
            nfev += 1
            step_h_norm = norm(step_h)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * np.dot(f_new, f_new)  # :353
            actual_reduction = cost - cost_new
            Delta_new, ratio = _update_tr_radius(
                Delta, actual_reduction, predicted_reduction, step_h_norm, step_h_norm > 0.95 * Delta
            )
            status = _check_termination(actual_reduction, cost, norm(step), norm(x), ratio, ftol, xtol)
            if status is not None:
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:  # :368
            x = x_new
            f = f_new
            cost = cost_new
            J = _jac_2point(fun, x, f, lb, ub)
            g = J.T.dot(f)

    if status is None:
        status = 0
    return x, f, J, status, nfev


def _jac_2point(fun, x0, f0, lb, ub):
    """_numdiff.py:278 ``approx_derivative(fun, x0, method="2-point", f0=f0,
    bounds=(lb, ub))``: one-sided differences that stay within the bounds,
    as the transpose of a row-major array, as scipy returns them."""
    sign_x0 = (x0 >= 0).astype(float) * 2 - 1  # :147 _compute_absolute_step
    h = _EPMACH**0.5 * sign_x0 * np.maximum(1.0, np.abs(x0))
    lower_dist = x0 - lb  # :14 _adjust_scheme_to_bounds, one step
    upper_dist = ub - x0
    x = x0 + h
    violated = (x < lb) | (x > ub)
    fitting = np.abs(h) <= np.maximum(lower_dist, upper_dist)
    h[violated & fitting] *= -1
    forward = (upper_dist >= lower_dist) & ~fitting
    h[forward] = upper_dist[forward]
    backward = (upper_dist < lower_dist) & ~fitting
    h[backward] = -lower_dist[backward]
    J_transposed = np.empty((x0.size, f0.size))  # :663 _dense_difference
    for i in range(x0.size):
        x1 = np.copy(x0)
        x1[i] = x0[i] + h[i]
        J_transposed[i] = (np.atleast_1d(fun(x1)) - f0) / ((x0[i] + h[i]) - x0[i])
    return J_transposed.T


def _select_step(x, J_h, diag_h, g_h, p, p_h, d, Delta, lb, ub, theta):
    """trf.py:129 ``select_step``: the best of the trust-region step, its
    reflection off the first bound hit, and the constrained Cauchy step."""
    if np.all((x + p >= lb) & (x + p <= ub)):  # common.py:367 in_bounds
        p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)
        return p, p_h, -p_value

    p_stride, hits = _step_size_to_bound(x, p, lb, ub)
    r_h = np.copy(p_h)  # the reflected direction
    r_h[hits.astype(bool)] *= -1
    r = d * r_h
    # restrict the trust-region step so that it hits the bound
    p *= p_stride
    p_h *= p_stride
    x_on_bound = x + p
    # the reflected direction crosses the feasible region's or the trust
    # region's boundary first
    _, to_tr = _intersect_trust_region(p_h, r_h, Delta)
    to_bound, _ = _step_size_to_bound(x_on_bound, r, lb, ub)
    r_stride = min(to_bound, to_tr)  # :156
    if r_stride > 0:
        r_stride_l = (1 - theta) * p_stride / r_stride
        r_stride_u = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_stride_l = 0
        r_stride_u = -1
    if r_stride_l <= r_stride_u:  # :168
        a, b, c = _build_quadratic_1d(J_h, g_h, r_h, diag_h, s0=p_h)
        r_stride, r_value = _minimize_quadratic_1d(a, b, r_stride_l, r_stride_u, c=c)
        r_h *= r_stride
        r_h += p_h
        r = r_h * d
    else:
        r_value = np.inf

    # make p_h strictly interior
    p *= theta
    p_h *= theta
    p_value = _evaluate_quadratic(J_h, g_h, p_h, diag_h)

    ag_h = -g_h  # :183
    ag = d * ag_h
    to_tr = Delta / norm(ag_h)
    to_bound, _ = _step_size_to_bound(x, ag, lb, ub)
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    a, b = _build_quadratic_1d(J_h, g_h, ag_h, diag_h)
    ag_stride, ag_value = _minimize_quadratic_1d(a, b, 0, ag_stride)
    ag_h *= ag_stride
    ag *= ag_stride

    if p_value < r_value and p_value < ag_value:  # :198
        return p, p_h, -p_value
    elif r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    else:
        return ag, ag_h, -ag_value


def _intersect_trust_region(x, s, Delta):
    """common.py:18: the roots t of ||x + s t|| = Delta, smaller first."""
    a = np.dot(s, s)
    if a == 0:
        raise ValueError("`s` is zero.")
    b = np.dot(x, s)
    c = np.dot(x, x) - Delta**2
    if c > 0:
        raise ValueError("`x` is not within the trust region.")
    d = np.sqrt(b * b - a * c)  # the root of a fourth of the discriminant
    q = -(b + math.copysign(d, b))
    t1 = q / a
    t2 = c / q
    return (t1, t2) if t1 < t2 else (t2, t1)


def _solve_lsq_trust_region(n, m, uf, s, V, Delta, initial_alpha):
    """common.py:57 ``solve_lsq_trust_region`` (More 1977) on one SVD of the
    Jacobian, rtol 0.01: the step and the Levenberg-Marquardt alpha."""
    rtol = 0.01

    def phi_and_derivative(alpha, suf, s, Delta):
        denom = s**2 + alpha
        p_norm = norm(suf / denom)
        phi = p_norm - Delta
        phi_prime = -np.sum(suf**2 / denom**3) / p_norm
        return phi, phi_prime

    suf = s * uf
    # try the Gauss-Newton step where J has full rank
    full_rank = m >= n and s[-1] > _EPMACH * m * s[0]
    if full_rank:
        p = -V.dot(uf / s)
        if norm(p) <= Delta:
            return p, 0.0

    alpha_upper = norm(suf) / Delta  # :143
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0, suf, s, Delta)
        alpha_lower = -phi / phi_prime
    else:
        alpha_lower = 0.0
    if not full_rank and initial_alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
    else:
        alpha = initial_alpha

    for _ in range(10):  # :156
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha, suf, s, Delta)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if np.abs(phi) < rtol * Delta:
            break

    p = -V.dot(suf / (s**2 + alpha))
    # bring the norm of p to Delta, so that p does not leave the trust region
    p *= Delta / norm(p)
    return p, alpha


def _update_tr_radius(Delta, actual_reduction, predicted_reduction, step_norm, bound_hit):
    """common.py:222: the next trust-region radius, and the ratio of the
    actual to the predicted reduction."""
    if predicted_reduction > 0:
        ratio = actual_reduction / predicted_reduction
    elif predicted_reduction == actual_reduction == 0:
        ratio = 1
    else:
        ratio = 0
    if ratio < 0.25:
        Delta = 0.25 * step_norm
    elif ratio > 0.75 and bound_hit:
        Delta *= 2.0
    return Delta, ratio


def _check_termination(dF, F, dx_norm, x_norm, ratio, ftol, xtol):
    """common.py:705: the status that the ftol and xtol tests give, or None."""
    ftol_satisfied = dF < ftol * F and ratio > 0.25
    xtol_satisfied = dx_norm < xtol * (xtol + x_norm)
    if ftol_satisfied:
        return 4 if xtol_satisfied else 2
    return 3 if xtol_satisfied else None


def _build_quadratic_1d(J, g, s, diag, s0=None):
    """common.py:251: the coefficients (a, b), or with ``s0`` (a, b, c), of
    the quadratic along ``s`` from ``s0``."""
    v = J.dot(s)
    a = np.dot(v, v)
    a += np.dot(s * diag, s)
    a *= 0.5
    b = np.dot(g, s)
    if s0 is None:
        return a, b
    u = J.dot(s0)
    b += np.dot(u, v)
    c = 0.5 * np.dot(u, u) + np.dot(g, s0)
    b += np.dot(s0 * diag, s)
    c += 0.5 * np.dot(s0 * diag, s0)
    return a, b, c


def _minimize_quadratic_1d(a, b, lb, ub, c=0):
    """common.py:302: where ``t (a t + b) + c`` is least on [lb, ub], and its value there."""
    t = [lb, ub]
    if a != 0:
        extremum = -0.5 * b / a
        if lb < extremum < ub:
            t.append(extremum)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    min_index = np.argmin(y)
    return t[min_index], y[min_index]


def _evaluate_quadratic(J, g, s, diag):
    """common.py:325: ``0.5 s^T (J^T J + diag) s + g^T s`` for one step ``s``."""
    Js = J.dot(s)
    q = np.dot(Js, Js)
    q += np.dot(s * diag, s)
    return 0.5 * q + np.dot(s, g)


def _step_size_to_bound(x, s, lb, ub):
    """common.py:372: the least t >= 0 that puts ``x + s t`` on a bound, and
    which bound each variable hits there (-1 lower, 1 upper, 0 none)."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero, (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def _find_active_constraints(x, lb, ub, rtol):
    """common.py:401: -1 where a lower bound is active, 1 where an upper one
    is, 0 elsewhere, to within ``rtol`` of the closest bound."""
    active = np.zeros_like(x, dtype=int)
    if rtol == 0:
        active[x <= lb] = -1
        active[x >= ub] = 1
        return active
    lower_dist = x - lb
    upper_dist = ub - x
    lower_threshold = rtol * np.maximum(1, np.abs(lb))
    upper_threshold = rtol * np.maximum(1, np.abs(ub))
    active[np.isfinite(lb) & (lower_dist <= np.minimum(upper_dist, lower_threshold))] = -1
    active[np.isfinite(ub) & (upper_dist <= np.minimum(lower_dist, upper_threshold))] = 1
    return active


def _make_strictly_feasible(x, lb, ub, rstep):
    """common.py:440: ``x`` moved inside the bounds, at least ``rstep``
    (relative) from each, or with ``rstep`` 0 by one ulp."""
    x_new = x.copy()
    active = _find_active_constraints(x, lb, ub, rstep)
    lower_mask = np.equal(active, -1)
    upper_mask = np.equal(active, 1)
    if rstep == 0:
        x_new[lower_mask] = np.nextafter(lb[lower_mask], ub[lower_mask])
        x_new[upper_mask] = np.nextafter(ub[upper_mask], lb[upper_mask])
    else:
        x_new[lower_mask] = lb[lower_mask] + rstep * np.maximum(1, np.abs(lb[lower_mask]))
        x_new[upper_mask] = ub[upper_mask] - rstep * np.maximum(1, np.abs(ub[upper_mask]))
    tight_bounds = (x_new < lb) | (x_new > ub)
    x_new[tight_bounds] = 0.5 * (lb[tight_bounds] + ub[tight_bounds])
    return x_new


def _cl_scaling_vector(x, g, lb, ub):
    """common.py:467: the Coleman-Li scaling vector v, the distance to the
    bound that -g points at (1 where it is infinite), and its derivative dv
    (Branch, Coleman & Li, SIAM J. Sci. Comput. 21, 1999)."""
    v = np.ones_like(x)
    dv = np.zeros_like(x)
    mask = (g < 0) & np.isfinite(ub)
    v[mask] = ub[mask] - x[mask]
    dv[mask] = -1
    mask = (g > 0) & np.isfinite(lb)
    v[mask] = x[mask] - lb[mask]
    dv[mask] = 1
    return v, dv
