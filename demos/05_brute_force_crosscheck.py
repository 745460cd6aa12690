"""Cross-check the semi-analytical engine against brute-force simulation.

The engine builds the revisit statistics from an analytical pass series
and an elliptical footprint; the simulator instead propagates the
secular-J2 orbit in 10 s steps and tests point visibility directly,
refining access boundaries by bisection.  Agreement between the two on
the same grid and window validates the analytical shortcuts.

Runs a reduced case (1 deg grid, 10 days) in about 0.3 s, of which the
simulation, on one thread per core, takes 0.07 to 0.1 s on a shared
2-core machine; the same comparison at full resolution is what the
acceptance suite automates.
"""
import math
import time

import revisit as rv
from revisit.engine import EngineSettings, analyze, oracle_analyze

el = rv.OrbitElements(a=rv.EARTH.equatorial_radius + 650.0, inc=math.radians(65.0))
sensor = rv.SensorSpec.elevation(math.radians(12.0))
lat = math.radians(25.0)
walker = rv.WalkerConfig(2, 2, 1)
settings = EngineSettings(window=10 * 86400.0, grid_res=math.radians(1.0))

t0 = time.perf_counter()
eng = analyze(el, sensor, lat, walker=walker, settings=settings)
t_eng = time.perf_counter() - t0

t0 = time.perf_counter()
sim = oracle_analyze(el, sensor, lat, walker=walker, settings=settings)
t_sim = time.perf_counter() - t0

print("650 km / 65 deg pair of phased planes, 12 deg elevation mask, lat 25\n")
print(f"{'':22s}{'engine':>12s}{'simulation':>12s}")
print(f"{'max revisit [h]':22s}{eng.mrt_hours:12.3f}{sim.mrt_hours:12.3f}")
print(f"{'avg revisit [h]':22s}{eng.art_hours:12.3f}{sim.art_hours:12.3f}")
print(f"{'coverage':22s}{eng.coverage_fraction:12.3f}{sim.coverage_fraction:12.3f}")
print(f"{'passes':22s}{eng.pass_count:12d}{sim.pass_count:12d}")
print(f"{'wall time [s]':22s}{t_eng:12.2f}{t_sim:12.2f}")
diff_min = abs(eng.mrt_hours - sim.mrt_hours) * 60.0
print(f"\nmax-revisit difference: {diff_min:.2f} min "
      f"({100 * diff_min / 60 / sim.mrt_hours:.2f}%), "
      f"speedup x{t_sim / t_eng:.0f}")
