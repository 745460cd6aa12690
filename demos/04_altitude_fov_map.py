"""Map of maximum revisit time over altitude and sensor cone angle.

Reproduces the shape of the classic design-space maps: for a single
sun-synchronous satellite at 40 deg latitude, narrow sensors leave
uncovered longitudes (window exceeded) at low altitude, while a band
near 600-800 km gives short revisits even for moderate cones.

Uses a deliberately coarse grid so it runs in under a second on a
2-core machine; tighten the steps for a production map.  Writes
altitude_fov_map.csv (stable CSV schema) and optionally a contour PNG.
"""
from revisit.cases import CaseConfig, SweepSpec, run_sweep, rows_to_csv

base = CaseConfig(
    altitude_km=500.0,
    sso=True,
    boresight_deg=45.0,
    latitude_deg=40.0,
    window_days=60.0,
    grid_res_deg=0.2,
)
spec = SweepSpec(
    base=base,
    axes={
        "altitude_km": (400.0, 900.0, 100.0),
        "boresight_deg": (15.0, 45.0, 10.0),
    },
)
rows = run_sweep(spec)
with open("altitude_fov_map.csv", "w") as fh:
    fh.write(rows_to_csv(rows))
print(f"wrote altitude_fov_map.csv ({len(rows)} cells)")

for row in rows:
    mrt = row["mrt_h"] or "window exceeded"
    print(f"h={row['alt_km']:>9s} km  cone={row['sensor_deg']:>7s} deg  mrt={mrt}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
    import numpy as np

    alts = sorted({float(r["alt_km"]) for r in rows})
    cones = sorted({float(r["sensor_deg"]) for r in rows})
    z = np.full((len(cones), len(alts)), np.nan)
    for r in rows:
        i = cones.index(float(r["sensor_deg"]))
        j = alts.index(float(r["alt_km"]))
        if r["mrt_h"]:
            z[i, j] = float(r["mrt_h"])
    fig, ax = plt.subplots(figsize=(7, 4.5))
    cs = ax.contourf(alts, cones, z, levels=12, cmap="viridis_r")
    fig.colorbar(cs, label="max revisit time [h]")
    ax.set_xlabel("altitude [km]")
    ax.set_ylabel("boresight half-cone [deg]")
    ax.set_title("single sun-synchronous satellite, 40 deg latitude")
    fig.tight_layout()
    fig.savefig("altitude_fov_map.png", dpi=150)
    print("wrote altitude_fov_map.png")
except ImportError:
    print("matplotlib not installed; skipped the plot")
