#!/usr/bin/env python3
"""Plant damped two-flavor oscillation parameters, synthesize a spectrum, fit it back.

Exercises the full loop the package exists for: forward model -> CSV ->
weighted least-squares fit.  The fit searches dm2 and lambda_km and solves
theta in closed form at each point; it is bounded to the first octant
because survival spectra cannot tell theta from pi/2 - theta.
"""

import argparse
import math
import pathlib

import numpy as np

from dqs import neutrino


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dm2", type=float, default=7.9e-5, help="eV^2")
    parser.add_argument("--tan2theta", type=float, default=0.40)
    parser.add_argument("--lambda-km", type=float, default=5e-5, help="1/km")
    parser.add_argument("--points", type=int, default=50)
    parser.add_argument("--x-max", type=float, default=3.6e4, help="km/GeV")
    parser.add_argument("--out", default="spectrum.csv")
    args = parser.parse_args()

    truth = neutrino.OscillationParams(args.dm2,
                                       math.atan(math.sqrt(args.tan2theta)),
                                       args.lambda_km)
    xs = np.linspace(0.0, args.x_max, args.points)
    ps = neutrino.survival_at_l_over_e(truth, xs)

    path = pathlib.Path(args.out)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# zero-noise synthetic survival spectrum\n")
        fh.write("L_over_E_km_per_GeV,P_survival\n")
        for x, p in zip(xs, ps):
            fh.write(f"{x:.17g},{p:.17g}\n")
    print(f"wrote {args.points} points to {path}")

    fit = neutrino.fit_parameters(neutrino.read_spectrum_csv(path),
                                  bounds={"theta": (0.0, math.pi / 4.0)})
    print(f"converged={fit.converged} cycles={fit.cycles} sse={fit.sse:.3e}")
    for name in ("dm2", "theta", "lambda_km"):
        planted = getattr(truth, name)
        recovered = getattr(fit.params, name)
        print(f"{name:>10}: planted {planted:.6e}  recovered {recovered:.6e}")
    print(f" tan2theta: planted {math.tan(truth.theta) ** 2:.6f}  "
          f"recovered {math.tan(fit.params.theta) ** 2:.6f}")


if __name__ == "__main__":
    main()
