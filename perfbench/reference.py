"""Independent float reference for the verify-batch verdicts.

Evaluates every correlation of an R x C phase array numerically with numpy
FFTs and calls a value zero when its magnitude is below 1e-9 * L, L = R*C.
It shares no code with `aopseq`, so it checks the exact verdicts of any
seed's inputs, not only inputs frozen in a golden file.
"""

from __future__ import annotations

import numpy as np

CONDITION_1 = "condition-1"
CONDITION_2 = "condition-2"


def _off_peak_zero(auto: np.ndarray, tol: float) -> bool:
    flat = np.abs(auto).ravel()
    return bool((flat[1:] <= tol).all())


def reference_verdict(order: int, rows: int, cols: int, exponents) -> tuple:
    """(aop holds, failing condition, witness, perfect array, perfect
    flattened sequence, decomposition identity, projection identity), with
    the witness found in the same lexicographic order as `aopseq.aop`."""
    z = np.exp(2j * np.pi * np.asarray(exponents, dtype=float).reshape(rows, cols) / order)
    tol = 1e-9 * rows * cols
    # cross[tau, j0, j1] = sum_i z[i, j0] * conj(z[i + tau, j1])
    spec = np.fft.fft(z, axis=0)
    cross = np.fft.fft(spec[:, :, None] * spec[:, None, :].conj(), axis=0) / rows
    nonzero = np.abs(cross) > tol
    off_diag = nonzero.transpose(1, 2, 0).copy()
    off_diag[np.arange(cols), np.arange(cols), :] = False
    if off_diag.any():
        j0, j1, tau = np.unravel_index(int(np.argmax(off_diag)), off_diag.shape)
        holds, failing, witness = False, CONDITION_1, [int(j0), int(j1), int(tau)]
    else:
        summed = np.abs(np.einsum("tjj->t", cross)[1:]) > tol
        if summed.any():
            holds, failing, witness = False, CONDITION_2, [int(np.argmax(summed)) + 1]
        else:
            holds, failing, witness = True, None, None
    power2 = np.abs(np.fft.fft2(z)) ** 2
    perfect_array = _off_peak_zero(np.fft.fft2(power2) / (rows * cols), tol)
    power1 = np.abs(np.fft.fft(z.ravel())) ** 2
    perfect_seq = _off_peak_zero(np.fft.fft(power1) / (rows * cols), tol)
    # the last two are algebraic identities, true for every array
    return (holds, failing, witness, perfect_array, perfect_seq, True, True)
