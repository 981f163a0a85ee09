"""Shared fixtures."""
import pytest

from permfix import coupling, exactdist, kernels


@pytest.fixture
def clear_memos():
    """A `clear()` that empties the memos of `exactdist`, `kernels` and
    `coupling` (`fixed_point_pmf`, `inv_e_interval`, `_tv_against_poisson`,
    `p_closedform` and `_c_hat`), run at setup and teardown; the test calls
    it again wherever it swaps a route that a memo would otherwise answer
    for."""
    def clear():
        for module in (exactdist, kernels, coupling):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    clear()
    yield clear
    clear()
