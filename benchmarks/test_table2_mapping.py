"""Benchmark: regenerate Table 2 (the SDR application mapping).

The loads are inputs (task characterization), but the *frequencies* are
derived by the DVFS governor from the mapping — the benchmark verifies
the governor lands on the paper's 533/266/266 MHz exactly.
"""

from conftest import emit

from repro.experiments.tables import table2


def test_table2_mapping():
    result = table2()
    emit(result.to_text())
    text = result.to_text()
    assert "Core 1 (533 MHz)" in text
    assert "Core 2 (266 MHz)" in text
    assert "Core 3 (266 MHz)" in text
    for load in ("36.7", "28.3", "60.9", "6.2", "18.8"):
        assert load in text
