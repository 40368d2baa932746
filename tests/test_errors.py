import pytest

from condenser_widths import (DiscreteMeasure, ZeroConfig, chi_bruteforce, chi_estimate,
                              counting_alpha_beta, fekete_green, leja_weighted, theta_sweep)
from condenser_widths.errors import CondenserWidthsError, InvalidArgument
from condenser_widths.extremal import CHI_METHODS


def test_invalid_argument_is_a_package_error_and_a_value_error():
    # the CLI maps package errors to exit 2, and library callers catch ValueError
    assert issubclass(InvalidArgument, CondenserWidthsError)
    assert issubclass(InvalidArgument, ValueError)


@pytest.mark.parametrize("call, message", [
    (lambda c: theta_sweep(c, [0.5, 0.2], 16, 256), "thetas must be strictly increasing"),
    (lambda c: theta_sweep(c, [-0.1, 0.5], 16, 256), "thetas must lie in [0, 1]"),
    (lambda c: chi_estimate(c, 4, 2, "newton"),
     f"unknown chi method 'newton'; choose one of {CHI_METHODS}"),
    (lambda c: chi_bruteforce(c, 7, 3), "chi_bruteforce is restricted to n <= 6"),
    (lambda c: fekete_green(c, 1.5, 4, 4096), "fekete_green needs theta in [0, 1]"),
    (lambda c: leja_weighted(c, DiscreteMeasure.zero(), 0.5, 0, 4096),
     "leja_weighted needs m >= 1"),
    (lambda c: DiscreteMeasure([1.0, 2.0], [0.5, -0.5]), "weights must be positive"),
    (lambda c: ZeroConfig((), (), 2, 3), "need 0 <= k <= n"),
    (lambda c: counting_alpha_beta([0j, 0j, 0j], [], c, 4, 2),
     "p has 3 zeros but degree bound k = 2"),
], ids=["thetas-decreasing", "thetas-below-0", "chi-method", "bruteforce-degree",
        "fekete-theta", "leja-m0", "negative-weight", "zero-config-k", "too-many-p-zeros"])
def test_library_argument_checks_raise_invalid_argument(offset, call, message):
    with pytest.raises(InvalidArgument) as info:
        call(offset)
    assert str(info.value) == message
