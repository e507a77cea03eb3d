"""Test-side reference for the three-mode vertex, in the textbook u, v form.

The amplitude of z <-> x + y, z the mode of highest energy, for the cubic
Bogoliubov Hamiltonian (Giorgini, PRA 57, 2949 (1998); Pitaevskii &
Stringari, Phys. Lett. A 235, 398 (1997)), with u, v >= 0 as in `model`:

    V = u_z u_x u_y - v_z v_x v_y - (u_z - v_z)(u_x v_y + v_x u_y)

Its terms are of order q^(-3/2) at small momenta and cancel down to a
vertex of order q^(3/2), so `decimal_vertex` evaluates it on decimal mode
coefficients with enough digits to spare.  The module uses the standard
library alone and nothing of the production rate code.
"""

from decimal import Decimal, localcontext

#: Working digits: at qbar 1e-30 the terms cancel through about 100
#: digits, which leaves 60 for the vertex.
DIGITS = 160


def textbook_vertex(z, x, y):
    """V of z <-> x + y from (u, v) pairs, in the arithmetic of its inputs."""
    (uz, vz), (ux, vx), (uy, vy) = z, x, y
    return uz * ux * uy - vz * vx * vy - (uz - vz) * (ux * vy + vx * uy)


def decimal_mode(kbar: Decimal) -> tuple[Decimal, Decimal, Decimal]:
    """(u, v, omega_bar) at kbar > 0, from u^2, v^2 = (1 + k^2 +- omega)/(2 omega)."""
    omega = kbar * (2 + kbar * kbar).sqrt()
    u = ((1 + kbar * kbar + omega) / (2 * omega)).sqrt()
    v = ((1 + kbar * kbar - omega) / (2 * omega)).sqrt()
    return u, v, omega


def decimal_momentum(omega: Decimal) -> Decimal:
    """kbar at omega_bar, from kbar^2 = sqrt(1 + omega^2) - 1."""
    return ((1 + omega * omega).sqrt() - 1).sqrt()


def decimal_vertex(kz=None, kx=None, ky=None):
    """Energy-conserving vertex and the three modes, two momenta given.

    Pass kz and kx (y takes what x leaves of z's energy) or kx and ky (z
    carries their combined energy).  Returns (V, modes), modes being the
    (kbar, omega_bar, u - v) triple of z, x and y, all as Decimal.
    """
    with localcontext() as context:
        context.prec = DIGITS
        given = [None if k is None else Decimal(k) for k in (kz, kx, ky)]
        modes = [None if k is None else decimal_mode(k) for k in given]
        if kz is None:
            missing, omega = 0, modes[1][2] + modes[2][2]
        else:
            missing, omega = 2, modes[0][2] - modes[1][2]
        given[missing] = decimal_momentum(omega)
        modes[missing] = decimal_mode(given[missing])
        vertex = textbook_vertex(*((u, v) for u, v, _ in modes))
        triples = [(k, omega, u - v) for k, (u, v, omega) in zip(given, modes)]
        return +vertex, triples
