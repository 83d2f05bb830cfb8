"""Command-line front end.

Subcommands:

* ``check``          validate a model file, report dissipation residuals
* ``evolve``         propagate a state, emit a density-matrix trajectory CSV
* ``probabilities``  closed-form dephasing-qubit transition/survival curves
* ``nu``             two-flavor survival spectra
* ``nu-fit``         least-squares fit of a survival spectrum
* ``basis``          dump the trace-orthonormal Hermitian basis
* ``lindblad``       dump the jump operators of a model

Model files are JSON: ``dimension``, ``basis`` (always ``"gell-mann"``),
``hamiltonian`` and ``kossakowski`` as nested ``[re, im]`` pairs, the latter
written in coordinates of the orthonormal basis that ``basis`` names.

Exit codes: 0 success (for ``check``: valid and dispersive), 1 valid but not
dispersive, 2 invalid input, 3 fit hit the cycle limit, 141 output pipe
closed early.  Any invalid input, numbers too large to compute with included,
gives one ``error:`` line on stderr and exit code 2: the library's
``ValueError``, the CLI's own ``CliError`` and a ``MemoryError`` all reach
``main``, the only place that reports them (``check`` alone reports a model
it cannot build on stdout, as ``valid=false`` and ``error=...``).  Floats print with 17
significant digits so identical inputs give byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence

import numpy as np

from . import dynamics, gks, linalg, neutrino, qubit

#: Rows of a streamed table (``evolve``, ``probabilities``, ``nu --loe-range``)
#: computed and printed together.
EVOLVE_CHUNK = 256


class CliError(ValueError):
    """Bad input found by the CLI itself; ``main`` reports it like any ValueError."""


_FLOAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT % float(x)


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


# ------------------------------------------------------------------ model files

class Model(NamedTuple):
    dimension: int
    hamiltonian: np.ndarray
    kossakowski: np.ndarray


def matrix_to_pairs(m: np.ndarray) -> List[List[List[float]]]:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def pairs_to_matrix(data, rows: int, cols: int, what: str) -> np.ndarray:
    try:
        arr = np.array(data, dtype=float)
    except (TypeError, ValueError):
        raise CliError(f"{what}: expected nested [re, im] pairs") from None
    if arr.shape != (rows, cols, 2):
        raise CliError(f"{what}: expected {rows}x{cols} entries of [re, im] pairs, "
                       f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise CliError(f"{what}: entries must be finite")
    return arr[..., 0] + 1j * arr[..., 1]


def _read_json(path, what: str):
    """Parse the JSON document of a ``what`` file (model or state)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {what} file: {exc}") from None
    except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
        raise CliError(f"{path}: not valid JSON ({exc})") from None


def load_model(path) -> Model:
    """Read and shape-check a model file without validating the physics.

    Hermiticity and positivity are left to the caller so that ``check`` can
    report residuals for broken files instead of failing outright.
    """
    doc = _read_json(path, "model")
    if not isinstance(doc, dict):
        raise CliError(f"{path}: model file must hold a JSON object")
    for key in ("dimension", "hamiltonian", "kossakowski"):
        if key not in doc:
            raise CliError(f"{path}: missing key {key!r}")
    basis = doc.get("basis", "gell-mann")
    if basis != "gell-mann":
        raise CliError(f"unsupported basis {basis!r}")
    n = doc["dimension"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise CliError(f"dimension must be an integer >= 2, got {n!r}")
    h = pairs_to_matrix(doc["hamiltonian"], n, n, "hamiltonian")
    a = pairs_to_matrix(doc["kossakowski"], n * n - 1, n * n - 1, "kossakowski")
    return Model(dimension=n, hamiltonian=h, kossakowski=a)


def _matrix_json(m) -> str:
    rows = [json.dumps(row) for row in matrix_to_pairs(m)]
    return "[\n    " + ",\n    ".join(rows) + "\n  ]"


def save_model(path, dimension: int, hamiltonian, kossakowski) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n")
        fh.write(f'  "dimension": {int(dimension)},\n')
        fh.write('  "basis": "gell-mann",\n')
        fh.write(f'  "hamiltonian": {_matrix_json(hamiltonian)},\n')
        fh.write(f'  "kossakowski": {_matrix_json(kossakowski)}\n')
        fh.write("}\n")


def build_liouvillian(model: Model) -> gks.GKSLiouvillian:
    """Strict construction; raises ValueError when the model is not physical."""
    basis = gks.gell_mann_basis(model.dimension)
    koss = gks.KossakowskiMatrix(model.dimension, model.kossakowski)
    return gks.GKSLiouvillian(model.hamiltonian, koss, basis)


# ------------------------------------------------------------------ subcommands

def cmd_check(args) -> int:
    tol = args.tol
    linalg.require_tolerance(tol)
    model = load_model(args.model)
    h, a = model.hamiltonian, model.kossakowski
    try:
        liou, error = build_liouvillian(model), None
    except ValueError as exc:
        liou, error = None, exc
    # KossakowskiMatrix has decomposed a valid a; only an invalid one, which
    # may fail the Hermiticity rule, has its Hermitian part decomposed here
    w = (liou.kossakowski.spectrum if liou is not None
         else np.linalg.eigvalsh(linalg.hermitian_part(a)))
    print(f"dimension={model.dimension}")
    print("basis=gell-mann")
    print(f"hamiltonian_hermiticity_defect={_fmt(linalg.hermiticity_defect(h))}")
    with np.errstate(over="ignore"):
        trace_re = np.trace(h).real
    print(f"hamiltonian_trace_re={_fmt(trace_re)}")
    print(f"kossakowski_hermiticity_defect={_fmt(linalg.hermiticity_defect(a))}")
    print(f"kossakowski_min_eigenvalue={_fmt(w[0])}")
    if error is not None:
        print("valid=false")
        print(f"error={error}")
        return 2
    print("valid=true")
    verdict = gks.is_dispersive(liou, tol=tol)
    print(f"dissipation_residual={_fmt(verdict.residual)}")
    print(f"tolerance={_fmt(tol)}")
    print(f"dispersive={_fmt_bool(verdict.dispersive)}")
    return 0 if verdict.dispersive else 1


def _parse_inline_state(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"--state wants 'a,b' with a the upper population, got {text!r}")
    try:
        a = float(parts[0])
        b = complex(parts[1])
    except ValueError as exc:
        raise CliError(f"--state: {exc}") from None
    return np.array([[a, b], [np.conj(b), 1.0 - a]])


def _time_grid(t_max: float, steps: int) -> Iterable[float]:
    """Validate the grid arguments now; yield the times lazily, row by row."""
    if not (math.isfinite(t_max) and t_max >= 0.0):
        raise CliError(f"--t-max must be finite and nonnegative, got {t_max!r}")
    if steps < 1:
        raise CliError(f"--steps must be at least 1, got {steps!r}")
    if t_max == 0.0:
        return [0.0]
    # the grid is k * t_max / steps; only where k * t_max overflows (t_max
    # near the float maximum) is it computed as t_max * (k / steps)
    return (k * t_max / steps if math.isfinite(k * t_max) else t_max * (k / steps)
            for k in range(steps + 1))


def _chunks(values: Iterable[float]) -> Iterator[List[float]]:
    """Successive lists of up to EVOLVE_CHUNK values of a lazy grid."""
    values = iter(values)
    while chunk := list(itertools.islice(values, EVOLVE_CHUNK)):
        yield chunk


def _print_table(header: Sequence[str], tables: Iterable[np.ndarray]) -> None:
    """Print a CSV header, then each 2-d table of floats as it comes, so rows stream."""
    print(",".join(header))
    row_format = ",".join([_FLOAT] * len(header))
    for table in tables:
        print("\n".join(row_format % row for row in map(tuple, table.tolist())))


def _propagate_chunks(liou: gks.GKSLiouvillian, rho: linalg.DensityMatrix,
                      times: Iterable[float]):
    """Yield (times, states, spectra) for successive chunks of the time grid.

    Each chunk's states come from one ``dynamics.propagate_many`` call and
    are then validated and decomposed as one stack.  The first row whose
    propagation or validation fails ends the stream with a CliError, after
    the rows before it have been yielded.
    """
    for chunk in _chunks(times):
        stack, error = dynamics.propagate_many(liou, rho, chunk)
        spectra, invalid = linalg.density_spectra(stack)
        k = len(spectra)
        if k:
            yield chunk[:k], stack[:k], spectra
        if invalid is not None:
            error = invalid
        if error is not None:
            raise CliError(f"propagation to t={_fmt(chunk[k])} failed: {error}")


def cmd_evolve(args) -> int:
    liou = build_liouvillian(load_model(args.model))
    n = liou.dim
    if args.state is not None and args.state_file is not None:
        raise CliError("give either --state or --state-file, not both")
    if args.state is not None:
        if n != 2:
            raise CliError("--state 'a,b' only describes dimension-2 states; "
                           "use --state-file")
        matrix = _parse_inline_state(args.state)
    elif args.state_file is not None:
        matrix = pairs_to_matrix(_read_json(args.state_file, "state"), n, n, "state")
    else:
        raise CliError("an initial state is required: --state or --state-file")
    try:
        rho = linalg.DensityMatrix(matrix)
    except ValueError as exc:
        raise CliError(f"not a density matrix: {exc}") from None

    times = _time_grid(args.t_max, args.steps)
    h = liou.hamiltonian
    header = ["t"]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            header += [f"rho_{i}_{j}_re", f"rho_{i}_{j}_im"]
    header += ["trace_re", "entropy", "energy"]
    _print_table(header, (np.column_stack((
        ts, states.view(float).reshape(len(ts), -1),  # re, im of each entry
        np.trace(states, axis1=1, axis2=2).real,
        [dynamics.spectrum_entropy(w) for w in spectra.tolist()],
        np.trace(states @ h, axis1=1, axis2=2).real))
        for ts, states, spectra in _propagate_chunks(liou, rho, times)))
    return 0


def _with_complement(xs: List[float], p: np.ndarray) -> np.ndarray:
    """The table of rows (x, p, 1 - p)."""
    return np.column_stack((xs, p, 1.0 - p))


def cmd_probabilities(args) -> int:
    params = qubit.DispersiveQubitParams(-0.5 * args.delta, 0.5 * args.delta, args.lam)
    qubit.check_angle(args.theta)
    times = _time_grid(args.t_max, args.steps)
    # the phase grows with t, so t_max decides overflow for every row
    qubit.transition_probability(params, args.theta, args.t_max)
    _print_table(["t", "P_transition", "P_surviving"],
                 (_with_complement(ts, qubit.transition_probability(params, args.theta, ts))
                  for ts in _chunks(times)))
    return 0


def _linspace(lo: float, hi: float, points: int) -> Iterable[float]:
    """The values of np.linspace(lo, hi, points), yielded one at a time."""
    div, delta = max(points - 1, 1), hi - lo
    step = delta / div
    for k in range(div):
        # like numpy, scale k / div by delta when the step underflows to zero
        yield (k * step if step else k / div * delta) + lo
    if points > 1:
        yield hi


def _theta_from_args(args) -> float:
    if (args.theta is None) == (args.tan2theta is None):
        raise CliError("give exactly one of --theta or --tan2theta")
    if args.theta is not None:
        return args.theta
    if args.tan2theta < 0.0:
        raise CliError(f"--tan2theta must be nonnegative, got {args.tan2theta!r}")
    return math.atan(math.sqrt(args.tan2theta))


def cmd_nu(args) -> int:
    params = neutrino.OscillationParams(args.dm2, _theta_from_args(args), args.lambda_km)
    modes = sum([args.loe_range is not None,
                 args.baseline is not None or args.energy is not None])
    if modes != 1:
        raise CliError("give either --loe-range, or --L with --E")
    if args.loe_range is not None:
        fields = args.loe_range.split(":")
        if len(fields) != 3:
            raise CliError(f"--loe-range wants lo:hi:points, got {args.loe_range!r}")
        try:
            lo, hi = float(fields[0]), float(fields[1])
            points = int(fields[2])
        except ValueError as exc:
            raise CliError(f"--loe-range: {exc}") from None
        if not 0.0 <= lo <= hi:
            raise CliError(f"--loe-range wants 0 <= lo <= hi, got {args.loe_range!r}")
        if not math.isfinite(hi):
            raise CliError(f"--loe-range ends must be finite, got {args.loe_range!r}")
        if points < 1 or (points == 1 and lo != hi):
            raise CliError("--loe-range needs at least 2 points for lo < hi")
        # the phase grows with L/E, so hi decides overflow for every row
        neutrino.survival_at_l_over_e(params, hi)
        _print_table(["L_over_E_km_per_GeV", "P_survival", "P_transition"],
                     (_with_complement(xs, neutrino.survival_at_l_over_e(params, xs))
                      for xs in _chunks(_linspace(lo, hi, points))))
        return 0
    if args.baseline is None or args.energy is None:
        raise CliError("single-point mode needs both --L and --E")
    for flag, value in (("--L", args.baseline), ("--E", args.energy)):
        if not math.isfinite(value):
            raise CliError(f"{flag} must be finite, got {value!r}")
    p = neutrino.survival_probability(params, args.baseline, args.energy)
    _print_table(["L_km", "E_GeV", "P_survival", "P_transition"],
                 [np.array([[args.baseline, args.energy, p, 1.0 - p]])])
    return 0


def _parse_named(flag: str, items: Optional[Sequence[str]], pair: bool) -> Dict[str, object]:
    """Parse repeated ``name=value`` flags, or ``name=lo:hi`` ones when ``pair``.

    Each name may appear once; a repeat is an error, not an override.
    """
    parsed = {}
    for item in items or ():
        name, sep, rest = item.partition("=")
        fields = rest.split(":") if pair else [rest]
        if not sep or len(fields) != (2 if pair else 1):
            form = "name=lo:hi" if pair else "name=value"
            raise CliError(f"{flag} wants {form}, got {item!r}")
        if name in parsed:
            raise CliError(f"{flag} names {name} twice")
        try:
            values = tuple(map(float, fields))
        except ValueError as exc:
            raise CliError(f"{flag} {item!r}: {exc}") from None
        parsed[name] = values if pair else values[0]
    return parsed


def cmd_nu_fit(args) -> int:
    try:
        spectrum = neutrino.read_spectrum_csv(args.data)
    except OSError as exc:
        raise CliError(f"cannot read spectrum: {exc}") from None
    except ValueError as exc:
        raise CliError(f"{args.data}: {exc}") from None
    bounds = _parse_named("--bounds", args.bounds, pair=True)
    fixed = _parse_named("--fix", args.fix, pair=False)
    fit = neutrino.fit_parameters(spectrum, bounds=bounds or None, fixed=fixed or None,
                                  grid_points=args.grid_points, max_cycles=args.max_cycles)
    print(f"points={len(spectrum)}")
    print(f"dm2={_fmt(fit.params.dm2)}")
    print(f"theta={_fmt(fit.params.theta)}")
    print(f"tan2theta={_fmt(math.tan(fit.params.theta) ** 2)}")
    print(f"sin2_2theta={_fmt(fit.params.sin2_2theta)}")
    print(f"lambda_km={_fmt(fit.params.lambda_km)}")
    print(f"sse={_fmt(fit.sse)}")
    print(f"converged={_fmt_bool(fit.converged)}")
    print(f"cycles={fit.cycles}")
    print(f"grid_dm2={_fmt(fit.grid_params.dm2)}")
    print(f"grid_theta={_fmt(fit.grid_params.theta)}")
    print(f"grid_lambda_km={_fmt(fit.grid_params.lambda_km)}")
    print(f"grid_sse={_fmt(fit.grid_sse)}")
    return 0 if fit.converged else 3


def _print_operators(label: str, mats) -> None:
    """One CSV row per matrix entry: 1-based operator index, row, column."""
    print(f"{label},row,col,re,im")
    for k, m in enumerate(mats, start=1):
        for (i, j), z in np.ndenumerate(m):
            print(f"{k},{i + 1},{j + 1},{_fmt(z.real)},{_fmt(z.imag)}")


def cmd_basis(args) -> int:
    if args.dimension < 2:
        raise CliError(f"--dimension must be at least 2, got {args.dimension!r}")
    _print_operators("element", gks.gell_mann_basis(args.dimension).elements)
    return 0


def cmd_lindblad(args) -> int:
    liou = build_liouvillian(load_model(args.model))
    _print_operators("operator", gks.lindblad_operators(liou.kossakowski, liou.basis))
    return 0


# ------------------------------------------------------------------ wiring

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subparsers, reading -1e-9 or -inf as a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's pattern, ^-\d+$|^-\d*\.\d+$, knows no exponent and no inf;
        # this one takes any '-' before a digit for a value, "-1:2:3" included
        self._negative_number_matcher = re.compile(r"-\.?\d|-inf|-nan", re.IGNORECASE)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dqs",
        description="Dispersive quantum systems: model checks, propagation, "
                    "dephasing-qubit curves, and two-flavor survival spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a model file, report dispersiveness")
    p.add_argument("model", help="JSON model file")
    p.add_argument("--tol", type=float, default=linalg.KERNEL_TOL,
                   help="relative dissipation tolerance (default: 1e-9)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("evolve", help="propagate a state and emit a trajectory CSV")
    p.add_argument("model", help="JSON model file")
    p.add_argument("--state", help="inline qubit state 'a,b' "
                                   "(upper population, coherence)")
    p.add_argument("--state-file", help="JSON file of nested [re, im] pairs")
    p.add_argument("--t-max", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=200)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("probabilities",
                       help="closed-form dephasing-qubit probability curves")
    p.add_argument("--delta", type=float, default=5.0, help="level splitting")
    p.add_argument("--theta", type=float, default=math.pi / 8.0,
                   help="mixing angle of the measured observable")
    p.add_argument("--lam", type=float, default=0.0, help="dephasing rate")
    p.add_argument("--t-max", type=float, default=20.0)
    p.add_argument("--steps", type=int, default=500)
    p.set_defaults(func=cmd_probabilities)

    p = sub.add_parser("nu", help="two-flavor survival spectrum")
    p.add_argument("--dm2", type=float, required=True,
                   help="squared-mass splitting in eV^2")
    p.add_argument("--theta", type=float, default=None, help="mixing angle")
    p.add_argument("--tan2theta", type=float, default=None,
                   help="tan^2 of the mixing angle (alternative to --theta)")
    p.add_argument("--lambda-km", type=float, default=0.0,
                   help="damping rate in 1/km")
    p.add_argument("--L", dest="baseline", type=float, default=None,
                   help="baseline in km (with --E)")
    p.add_argument("--E", dest="energy", type=float, default=None,
                   help="energy in GeV (with --L)")
    p.add_argument("--loe-range", default=None,
                   help="L/E sweep as lo:hi:points, km/GeV")
    p.set_defaults(func=cmd_nu)

    p = sub.add_parser("nu-fit", help="fit a survival spectrum CSV")
    p.add_argument("data", help="CSV with header "
                                "L_over_E_km_per_GeV,P_survival[,weight]")
    p.add_argument("--bounds", action="append", metavar="NAME=LO:HI",
                   help="override search bounds (repeatable)")
    p.add_argument("--fix", action="append", metavar="NAME=VALUE",
                   help="pin a parameter; the value must lie inside any "
                        "--bounds given for it (repeatable)")
    p.add_argument("--grid-points", type=int, default=41)
    p.add_argument("--max-cycles", type=int, default=60,
                   help="cap on the polish's Levenberg-Marquardt iterations, "
                        "run whenever dm2 or lambda_km is free; exit 3 when it "
                        "is reached unconverged")
    p.set_defaults(func=cmd_nu_fit)

    p = sub.add_parser("basis", help="dump the trace-orthonormal Hermitian basis")
    p.add_argument("--dimension", type=int, default=2, help="Hilbert-space dimension")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("lindblad", help="dump the jump operators of a model")
    p.add_argument("model", help="JSON model file")
    p.set_defaults(func=cmd_lindblad)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits on --help (0) and usage errors (2); report the code
        # instead so embedders get an int back
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # A downstream consumer closed early (dqs ... | head).  Park stdout
        # on devnull so the interpreter's exit flush does not raise a second
        # time, and use 128+SIGPIPE so the code cannot collide with the
        # semantic ones above.
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 141


if __name__ == "__main__":
    sys.exit(main())
