"""Energy and efficiency study (paper Fig. 2i + Sec. III-D).

Reproduces the two headline efficiency numbers: the ~25x likelihood-energy
advantage of the 4-bit inverter-array CIM over an 8-bit digital GMM
processor, and the 4-bit vs 6-bit TOPS/W ordering of the MC-Dropout macro,
including the reuse/ordering ablation.

Run:  python examples/energy_study.py
"""

from repro.experiments.fig2_energy import (
    LikelihoodEnergyConfig,
    likelihood_energy_comparison,
)
from repro.experiments.tops_per_watt import EfficiencyConfig, efficiency_table


def particle_filter_energy() -> None:
    print("=" * 70)
    print("Likelihood-evaluation energy (Fig. 2i): 500 columns, 100 components")
    print("=" * 70)
    data = likelihood_energy_comparison(LikelihoodEnergyConfig())
    cim_fj = data["cim_energy_per_query_j"] * 1e15
    digital_fj = data["digital_energy_per_query_j"] * 1e15
    print(f"  4-bit HMGM inverter CIM : {cim_fj:8.1f} fJ   (paper: 374 fJ)")
    print(f"  8-bit digital GMM       : {digital_fj:8.1f} fJ")
    print(f"  ratio                   : {data['ratio']:8.1f} x  (paper: ~25x)")
    print("\n  CIM breakdown per query:")
    for op, value in data["cim_breakdown_j"].items():
        print(f"    {op:20}: {value * 1e15:7.1f} fJ")


def macro_efficiency() -> None:
    print("\n" + "=" * 70)
    print("MC-Dropout macro efficiency (Sec. III-D): 30 iterations, 16 nm")
    print("=" * 70)
    data = efficiency_table(EfficiencyConfig())
    header = f"{'bits':>5} {'reuse':>6} {'order':>6} {'exec frac':>10} {'TOPS/W (sys)':>13}"
    print(header)
    for row in data["rows"]:
        print(
            f"{row['weight_bits']:>5} {str(row['reuse']):>6} "
            f"{str(row['ordering']):>6} {row['executed_fraction']:>10.3f} "
            f"{row['system_tops_per_watt']:>13.2f}"
        )
    print(f"\n  paper reference: 3.04 TOPS/W @ 4-bit, ~2 TOPS/W @ 6-bit")


if __name__ == "__main__":
    particle_filter_energy()
    macro_efficiency()
