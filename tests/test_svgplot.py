import hashlib

import numpy as np
import pytest

from rcga.svgplot import Series, render_panel

X = np.arange(1, 61)  # generation numbers, as plot_convergence passes them
CLAMPED_STD = np.where(X % 3 == 0, 1.5, np.where(X % 3 == 1, 1.0, 0.5)) / X  # m - sd < 0, = 0, > 0

# Fixed inputs built from exact IEEE arithmetic only, so they are the same on every platform.
CASES = {
    "log": [
        Series("AX-GM", X, 100.0 / X**2, 50.0 / X**2),
        Series("PSOX-GM", X, 50.0 / X, 12.5 / X),
    ],
    "linear": [
        Series("SBX-NUM", X, (X - 30) / 7.0, 1.0 + X / 60.0),
        Series("flat", X, np.zeros(X.size), np.zeros(X.size)),
    ],
    "log_clamped_band": [
        Series("LX-NUM", X, 1.0 / X, CLAMPED_STD),
    ],
    "sweep_lists": [
        Series("PSOX-GM", [0.1, 0.4, 0.7, 1.0], [3.25, 0.5, 0.125, 0.0625], [1.0, 0.25, 0.0, 0.03125]),
    ],
}

# SHA-256 of each panel, recorded from the per-point renderer this one replaced.
DIGESTS = {
    "log": "f34f62a6efd92dcdc28b3eab36ced4d912251fae33dabcdcaa3e45600ff6fc42",
    "linear": "186a67f4089488e5a975be88f1ff471dce678a64a390c049f3f0424da507c0cf",
    "log_clamped_band": "6259c632c1b0fbc339e94834b2c275200c2c9326fb773359cd14f7106d4b0848",
    "sweep_lists": "005dbb07c278486fe8796000840590e22eeeff030468c2d83355ca27bc15a7bd",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_render_panel_output_is_pinned(case):
    svg = render_panel(f"Problem 0: {case}", "generation", "best objective", CASES[case])
    assert hashlib.sha256(svg.encode()).hexdigest() == DIGESTS[case]


def test_axis_choice():
    assert ">1e" in render_panel("t", "x", "y", CASES["log"])
    assert ">1e" not in render_panel("t", "x", "y", CASES["linear"])
    assert ">1e" in render_panel("t", "x", "y", CASES["log_clamped_band"])


def test_no_series_rejected():
    with pytest.raises(ValueError, match="no series"):
        render_panel("t", "x", "y", [])
