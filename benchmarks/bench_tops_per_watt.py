"""E8 -- Sec. III-D: macro efficiency at 4-/6-bit, 30 MC iterations."""

from repro.experiments.tops_per_watt import efficiency_table


def test_tops_per_watt_table(benchmark, table_printer):
    """Paper: 3.04 TOPS/W @ 4-bit, ~2 TOPS/W @ 6-bit (16 nm, 1 GHz,
    0.85 V, 30 iterations).

    Shape criteria: 4-bit beats 6-bit by a factor in the paper's 1.3-1.8
    band, and reuse improves efficiency by > 2x over the reuse-free
    engine.  Absolute system-level numbers carry one documented
    calibration factor (``SYSTEM_ENERGY_OVERHEAD_FACTOR`` in
    :mod:`repro.experiments.tops_per_watt`).
    """
    data = benchmark.pedantic(
        efficiency_table,
        kwargs={"weight_bits": (4, 6), "n_iterations": 30},
        rounds=1,
        iterations=1,
    )
    table_printer("Sec III-D: efficiency across precision x (reuse, ordering)", data["rows"])
    by_config = {
        (row["weight_bits"], row["reuse"], row["ordering"]): row for row in data["rows"]
    }
    full_4 = by_config[(4, True, True)]
    full_6 = by_config[(6, True, True)]
    plain_4 = by_config[(4, False, False)]
    ratio_46 = full_4["macro_tops_per_watt"] / full_6["macro_tops_per_watt"]
    reuse_gain = full_4["macro_tops_per_watt"] / plain_4["macro_tops_per_watt"]
    print(
        f"\n4-bit vs 6-bit ratio: {ratio_46:.2f} (paper: {3.04 / 2.0:.2f});  "
        f"reuse gain: {reuse_gain:.2f}x;  "
        f"system-scaled 4-bit: {full_4['system_tops_per_watt']:.2f} TOPS/W "
        f"(paper: 3.04)"
    )
    assert 1.2 < ratio_46 < 1.9
    assert reuse_gain > 2.0
    assert full_4["executed_fraction"] < 0.5
    benchmark.extra_info["ratio_4b_6b"] = ratio_46
    benchmark.extra_info["system_tops_4b"] = full_4["system_tops_per_watt"]
