"""Control wiring study: standard one-DAC-per-electrode vs WISE.

Reproduces the Section 7.4 trade-off at example scale: WISE's switch
network cuts DAC count (and hence controller data rate and power) by
about two orders of magnitude, but serialises primitive operations so
the logical clock slows dramatically.

Run:  python examples/wiring_power_study.py
"""

from repro.arch import STANDARD_WIRING, WISE_WIRING
from repro.codes import RotatedSurfaceCode
from repro.core import QccdCompiler, CompilerConfig
from repro.toolflow import format_table


def main() -> None:
    rows = []
    for d in (3, 5):
        code = RotatedSurfaceCode(d)
        for wiring in (STANDARD_WIRING, WISE_WIRING):
            config = CompilerConfig(
                code=code,
                trap_capacity=2,
                topology="grid",
                wiring=wiring,
                rounds=2,
            )
            program = QccdCompiler(config).compile()
            resources = wiring.resources(program.device)
            rows.append([
                d,
                wiring.name,
                round(program.stats.round_time_us, 0),
                resources.num_dacs,
                round(resources.data_rate_bitps / 1e9, 3),
                round(resources.power_w, 1),
            ])
    print(format_table(
        ["d", "wiring", "round (us)", "DACs", "Gbit/s", "power (W)"], rows
    ))

    std = [r for r in rows if r[1] == "standard"]
    wise = [r for r in rows if r[1] == "wise"]
    slow = wise[-1][2] / std[-1][2]
    saving = std[-1][4] / wise[-1][4]
    print(f"\nAt d={std[-1][0]}: WISE is {slow:.1f}x slower per QEC round but "
          f"needs {saving:.0f}x less controller bandwidth —")
    print("the power-versus-cycle-time wall of Sec. 7.4: neither wiring "
          "scheme scales to hundreds of logical qubits on its own.")


if __name__ == "__main__":
    main()
