"""Operation counters for the growth contracts and the work ledger.

Each counter runs ``build(arg)`` with counting wrappers monkeypatched in
and returns a deterministic count of the work done, never a wall time.
"""

import pytest

from qseries import mock as mock_mod
from qseries import products
from qseries import series as series_mod
from qseries.series import TruncatedSeries


def kernel_elements(build, arg) -> int:
    """Coefficients the binomial kernels touch while ``build(arg)`` runs: the
    sum of ``len(coeffs) - e`` over the calls of ``mul_binomial`` and
    ``div_binomial``, patched in every module that imports them by name."""
    touched = 0

    def counting(real):
        def kernel(coeffs, e, c):
            nonlocal touched
            touched += max(len(coeffs) - e, 0)
            return real(coeffs, e, c)

        return kernel

    with pytest.MonkeyPatch.context() as patch:
        for module in (series_mod, products, mock_mod):
            for name in ("mul_binomial", "div_binomial"):
                if hasattr(module, name):
                    patch.setattr(module, name, counting(getattr(series_mod, name)))
        build(arg)
    return touched


def pass_work(build, arg) -> int:
    """The pass work of ``build(arg)``: nnz(sparser operand) * len over every
    ``TruncatedSeries.__mul__``, nnz(divisor) * len over every
    ``__truediv__`` (len is the result's), plus :func:`kernel_elements`."""
    work = 0
    real_mul, real_div = TruncatedSeries.__mul__, TruncatedSeries.__truediv__

    def nnz(s: TruncatedSeries) -> int:
        return len(s.coeffs) - s.coeffs.count(0)

    def mul(a, b):
        nonlocal work
        out = real_mul(a, b)
        work += min(nnz(a), nnz(b)) * len(out.coeffs)
        return out

    def div(a, b):
        nonlocal work
        out = real_div(a, b)
        work += nnz(b) * len(out.coeffs)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TruncatedSeries, "__mul__", mul)
        patch.setattr(TruncatedSeries, "__truediv__", div)
        elements = kernel_elements(build, arg)
    return work + elements
