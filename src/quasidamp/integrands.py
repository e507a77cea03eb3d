"""The integrands of the reduced decay-width integrals of `rates`, on
arrays, evaluated in place.

An integrand takes a block of integrals: a row of quadrature nodes, a
column of parameters per integral, and `work`, _BUFFERS buffers of the
block's shape (rows, nodes) that the sweep allocates once.  It writes every
intermediate of the block's shape into those buffers, with ufunc `out=` and
augmented operators, by the IEEE operations, in the order, of its
expression in tests/rate_reference.py, so that a width keeps its bits.
Only factors of a row or a column, and masks of a byte per node, are
allocated.  A ufunc copies each broadcast operand into a temporary of up to
8192 elements, so an operation on a row and a column starts from a copy of
one of them into its output: one such temporary, not two.
"""

import numpy as np

#: Buffers in a sweep's workspace, as many as `_stimulated_rows` holds.
_BUFFERS = 10


# ---------------------------------------------------------------------------
# spectrum, vertex and occupations on arrays
#
# The array form of model.dispersion and its inverse, without argument
# checks: quadrature nodes are interior to windows the callers have already
# validated.


def _omega(kbar):
    return kbar * np.sqrt(2.0 + kbar * kbar)


def _momentum(omega_bar, out=None):
    # not the equivalent sqrt(sqrt(1 + omega_bar^2) - 1), which loses half
    # the significant digits for omega_bar << 1
    return np.divide(omega_bar, np.sqrt(np.add(np.hypot(1.0, omega_bar, out), 1.0, out), out), out)


def _vertex(cz2, wz, sz, xx, wx, sx, yy, wy, sy, a, b, c):
    """Amplitude of z <-> x + y, in b, from the modes' (kbar^2, omega_bar,
    s), but 2 + kbar^2 for z, the one of highest energy: omega_z = omega_x +
    omega_y.  a, b and c are buffers of the shape of the amplitude.

    Every term is positive (see the `rates` module docstring), so the
    amplitude keeps its relative precision down to the smallest momenta.
    """
    np.add(wz, wx, b)
    b /= np.add(cz2, xx, c)
    np.square(sx, a)
    a *= wy
    a *= b
    np.add(wz, wy, b)
    b /= np.add(cz2, yy, c)
    np.square(sy, c)
    c *= wx
    c *= b
    a += c
    a /= cz2  # Sigma
    np.multiply(sz, sx, b)
    b *= sy  # the product of the three s
    a /= b
    b *= 3.0
    b += a
    b /= 4.0
    return b


def _bose_drop(e, am, gap, out, scratch):
    """n(omega_bar) - n(omega_bar + gap) at Bose exponent beta per unit
    omega_bar, in out, as e^-x b/(a (a + e^-x b)), a = 1 - e^-x, b = 1 -
    e^-y, x = beta omega_bar, y = beta gap, from e = e^-x, am = -a and gap =
    b: positive factors, which neither cancel nor overflow, so e^-x reaches
    x ~ 745, where a whole window may lie."""
    out[...] = e
    out *= gap
    np.subtract(am, out, scratch)
    scratch *= am
    out /= scratch
    return out


# ---------------------------------------------------------------------------
# integrands on a block of integrals


def _nan_to_zero(value):
    """value, in place, with its nan entries 0: a negative one stays."""
    value[np.isnan(value)] = 0.0
    return value


def _splitting(sin_t, cos_t, qbar, wq, sq, work):
    """The temperature-free factors of the spontaneous integrand at
    k = qbar*sin^2(theta), given sin(theta) and cos(theta), a row per qbar
    in the first rows of the buffers `work`: (k V^2 pbar*/omega_bar'(pbar*)
    dk/dtheta, w_k, w_p*).  kbar, pbar* and c_p are formed again after the
    vertex, so that eight buffers hold it."""
    rate, kk, sk, wk, wp, pp, sp, vertex = (w[:len(qbar)] for w in work[:8])
    rate[...] = qbar
    rate *= sin_t
    rate *= sin_t  # kbar
    np.square(rate, kk)
    np.add(kk, 2.0, sk)
    np.sqrt(sk, sk)  # c_k
    np.multiply(rate, sk, wk)
    np.divide(rate, sk, sk)
    np.sqrt(sk, sk)
    # omega_q - omega_k = (q - k)(q + k)(2 + q^2 + k^2)/(omega_q + omega_k), q - k = q cos^2
    wp[...] = qbar
    wp *= cos_t
    wp *= cos_t
    wp *= np.add(qbar, rate, pp)
    np.add(2.0 + qbar * qbar, kk, pp)
    pp /= np.add(wq, wk, sp)
    wp *= pp
    pbar = _momentum(wp, rate)
    np.square(pbar, pp)
    np.add(pp, 2.0, sp)
    np.sqrt(sp, sp)  # c_p
    np.divide(pbar, sp, sp)
    np.sqrt(sp, sp)
    _vertex(2.0 + qbar * qbar, wq, sq, kk, wk, sk, pp, wp, sp, rate, vertex, kk)
    rate[...] = qbar
    rate *= sin_t
    rate *= sin_t
    rate *= vertex
    rate *= vertex
    rate *= _momentum(wp, sk)
    np.add(pp, 2.0, sp)
    np.sqrt(sp, sp)
    pp += 1.0
    pp *= 2.0
    pp /= sp  # omega_bar'(pbar*)
    rate /= pp
    kk[...] = 2.0 * qbar
    kk *= sin_t
    kk *= cos_t  # dk/dtheta
    rate *= kk
    return rate, wk, wp


def _spontaneous_rows(nodes, work, qbar, wq, sq, beta):
    """Integrand times dtheta/dt of a block of spontaneous integrals at
    tanh-sinh nodes: the `_splitting` factors times 1 + n_k + n_p*, with n =
    1/(e^x - 1) exactly 0 where e^x - 1 overflows (beta = inf at T = 0); 0
    where that is nan, at a node whose kbar or pbar* underflows to 0.  The
    integrals run qbar-major: `_splitting` runs once per run of rows with
    one qbar, the occupation once per row, each elementwise in the same
    inputs."""
    sin_t, cos_t, weight = nodes
    first = np.concatenate(([True], qbar[1:, 0] != qbar[:-1, 0]))  # the first row of each qbar
    # np.cumsum(first) - 1, which pages 128 KB more of numpy into a cold run
    owner = np.zeros(first.size, dtype=np.intp)
    owner[first] = np.arange(np.count_nonzero(first))
    owner = np.maximum.accumulate(owner)
    rate, nk, np_ = (np.take(factor, owner, 0, out, "clip") for factor, out in zip(
        _splitting(sin_t, cos_t, qbar[first], wq[first], sq[first], work), work[5:8]))
    for n in (nk, np_):
        n *= beta
        np.divide(1.0, np.expm1(n, n), n)
    nk += 1.0
    nk += np_
    rate *= weight
    nk *= rate
    return _nan_to_zero(nk)


def _stimulated_rows(nodes, work, step, qq, wq, sq, beta):
    """k V^2 (n_k - n_{k+q}) jbar*/omega_bar'(jbar*) times dk/dt of a block
    of single-level stimulated integrals at exp-sinh nodes k = step *
    e^((pi/2) sinh t), which depend on T alone: in a block of one
    temperature the factors of k alone are formed once, on a row.  jbar*
    carries the combined energy omega_j; 0 where the integrand is nan, far
    out in the thermal tail where the occupation drop is 0 and the vertex
    may overflow.  With r = sqrt(1 + omega_j^2) = 1 + jbar^2 (omega_j past
    1e150, and a square root 4x faster than np.hypot below), s_j^2 =
    jbar/c_j = omega_j/(1 + r) and jbar*/omega_bar'(jbar*) = omega_j/(2 r)."""
    offset, growth = nodes
    if (beta == beta[0]).all():  # one temperature: the factors of k on a row
        step, beta = step[:1], beta[:1]
    wj, root, sj, cz2, a, b, c = work[:7]
    kbar, kk, wk, sk = (w[:len(step)] for w in (wj, *work[7:]))
    kbar[...] = step
    kbar *= offset
    np.square(kbar, kk)
    np.add(kk, 2.0, sk)
    np.sqrt(sk, sk)  # c_k
    np.multiply(kbar, sk, wk)
    np.divide(kbar, sk, sk)
    np.sqrt(sk, sk)
    wj[...] = wq
    wj += wk
    np.square(wj, root)
    root += 1.0
    np.sqrt(root, root)
    np.copyto(root, wj, where=wj >= 1e150)
    np.add(root, 1.0, sj)
    np.divide(wj, sj, sj)  # s_j^2
    np.multiply(sj, wj, cz2)
    cz2 += 2.0
    vertex = _vertex(cz2, wj, np.sqrt(sj, sj), qq, wq, sq, kk, wk, sk, a, b, c)
    kk[...] = step
    kk *= offset  # kbar again
    np.multiply(vertex, kk, a)
    a *= vertex
    np.multiply(-beta, wk, sk)
    a *= _bose_drop(np.exp(sk, wk), np.expm1(sk, sk), -np.expm1(-beta * wq), sj, cz2)
    a *= wj
    root *= 2.0
    a /= root
    _nan_to_zero(a)
    kk *= growth
    a *= kk
    return a


def _free_rows(nodes, work, lo, step, eq, beta):
    """k s_k^2 (n_b(w_k) - n_free(eq + w_k)) times dk/dt of a block of
    two-level stimulated integrals, a free-particle final state, at exp-sinh
    nodes k = lo + step * e^((pi/2) sinh t); 0 where that is nan."""
    offset, growth = nodes
    kbar, weight, ck, x, drop, value, *_ = work
    kbar[...] = step
    kbar *= offset
    np.multiply(kbar, growth, weight)
    kbar += lo
    np.square(kbar, ck)
    ck += 2.0
    np.sqrt(ck, ck)
    np.multiply(kbar, ck, x)
    x *= -beta
    np.square(kbar, value)
    value /= ck
    value *= _bose_drop(np.exp(x, drop), np.expm1(x, x), -np.expm1(-beta * eq), drop, ck)
    _nan_to_zero(value)
    value *= weight
    return value
