"""Benchmark: regenerate Table 1 (component power, 90 nm)."""

from conftest import emit

from repro.experiments.tables import table1


def test_table1_power():
    result = table1()
    emit(result.to_text())
    values = dict(result.rows)
    # Paper: 0.5 W / 0.27 W / 43 mW / 11 mW / 15 mW.
    assert values["RISC32-streaming (Conf1)"].startswith("0.5")
    assert values["RISC32-ARM11 (Conf2)"].startswith("0.2")
