"""Command-line front end: figure-data regeneration, port tables, SI design, verification.

Configuration is a flat ``key = value`` document ('#' starts a comment, one
pair per line) and ``--key value`` or ``--key=value`` flags, which override
file values; one rule refuses unknown, repeated and empty keys in both.
Float values accept a ``pi`` suffix (``0.75pi`` -> 3 pi / 4).
Each mode returns one table of typed columns, written as CSV (17 significant
digits, '\\n' endings) or JSON (array of objects), in UTF-8 whatever the locale;
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from . import analytic, floatfmt, numeric
from .core import (
    BALANCED_R,
    AliasingError,
    DARK_THRESHOLD,
    ConfigError,
    DarkPortError,
    GridError,
    InterferometerParams,
    PortPair,
)

if typing.TYPE_CHECKING:  # RunConfig.design's annotation; design runs import it on first use
    from . import experiment

__all__ = ["RunConfig", "RunResult", "typed_table", "GridTable", "parse_config", "execute", "write_table", "main",
           "app"]

MODES = ("distributions", "decompose", "sweep", "ports", "design", "verify")

_POINT_MODES = ("distributions", "decompose", "ports")  # one (delta/W, phi, alpha) working point
_GRID_MODES = ("distributions", "decompose")  # modes that emit a table over a 1D momentum grid

# Allocation bounds, so that no configuration can ask for more memory than a run is sized for: a report grid of
# 2^20 + 1 points and a sweep of 10^6 rows (four times the 501 x 501 sweep; a fresh process peaks at about 33 MiB
# at 1000 x 1000, as CSV or JSON, and at 48 MiB at 2 x 500,000, where the writer holds the phi axis's 12 MB of text
# once).  verify runs at the fixed sizes of verify.run_all, so it has no size keys to bound.
MAX_GRID_POINTS = 2**20 + 1
MAX_SWEEP_ROWS = 10**6
INT64_MAX = 2**63 - 1  # integer table cells are int64

# Range checks: (predicate, requirement); a failing value reports "<requirement>, got <value>".
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_NON_NEGATIVE = (lambda v: v >= 0.0, "must be >= 0")
_ODD_GRID = (lambda n: n >= 3 and n % 2 == 1, "must be odd and >= 3")
_SWEEP_STEPS = (lambda n: n >= 2, "sweep needs at least 2 steps")


def _at_most(limit: int):
    return (lambda n: n <= limit, f"must be <= {limit}")


def _key(default, help_text: str, *, required=(), optional=(), checks=()):
    """One configuration key: default, ``--help`` text, the modes that require
    or allow it, and its range checks in order.  The value type is the field annotation."""
    return field(
        default=default,
        metadata={"help": help_text, "required": required, "optional": optional, "checks": checks},
    )


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully-defaulted run description (one mode per run).

    Each field is one configuration key; its metadata drives parsing, mode
    scoping, ``--help`` and range validation.
    """

    # the selector itself: required, and checked before any mode scoping
    mode: str = _key(MISSING, "one of: " + ", ".join(MODES))
    out: str | None = _key(None, "output file path", optional=MODES)
    format: str = _key("csv", "csv or json", optional=MODES,
                       checks=((lambda v: v in ("csv", "json"), "expected csv or json"),))
    r: float = _key(BALANCED_R, "splitter reflection magnitude in [0, 1]",
                    optional=("distributions", "ports"), checks=((lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),))
    delta_over_w: float | None = _key(None, "momentum kick in units of W", required=_POINT_MODES,
                                      checks=(_NON_NEGATIVE,))
    phi: float | None = _key(None, "path phase, radians ('pi' suffix allowed)", required=_POINT_MODES)
    alpha: float = _key(0.0, "interaction phase, radians", required=_POINT_MODES, optional=("sweep",))
    port: str = _key("dc", "post-selected exit pair: cc, cd, dc or dd", optional=("distributions",),
                     checks=((lambda v: v in tuple(p.value for p in PortPair), "expected one of cc, cd, dc, dd"),))
    grid_span: float = _key(numeric.DEFAULT_SPAN, "half-width of report grids in units of W", optional=_GRID_MODES,
                            checks=(_POSITIVE,))
    grid_points: int = _key(numeric.DEFAULT_GRID_POINTS, "1D grid points, odd",
                            optional=_GRID_MODES, checks=(_ODD_GRID, _at_most(MAX_GRID_POINTS)))
    delta_over_w_min: float | None = _key(None, "sweep start of delta/W", required=("sweep",), checks=(_NON_NEGATIVE,))
    delta_over_w_max: float | None = _key(None, "sweep end of delta/W", required=("sweep",))
    delta_over_w_steps: int | None = _key(None, "sweep points along delta/W (>= 2)", required=("sweep",),
                                          checks=(_SWEEP_STEPS,))
    phi_min: float | None = _key(None, "sweep start of phi, radians", required=("sweep",))
    phi_max: float | None = _key(None, "sweep end of phi, radians", required=("sweep",))
    phi_steps: int | None = _key(None, "sweep points along phi (>= 2)", required=("sweep",), checks=(_SWEEP_STEPS,))
    separation_m: float | None = _key(None, "beam separation d, metres", required=("design",), checks=(_POSITIVE,))
    length_m: float | None = _key(None, "interferometer length L, metres", required=("design",), checks=(_POSITIVE,))
    speed_m_per_s: float | None = _key(None, "longitudinal speed v, m/s", required=("design",), checks=(_POSITIVE,))
    waist_transverse_m: float | None = _key(None, "transverse beam waist, metres", required=("design",),
                                            checks=(_POSITIVE,))
    waist_longitudinal_m: float | None = _key(None, "initial longitudinal width, metres", required=("design",),
                                              checks=(_POSITIVE,))
    tune_target_n: int | None = _key(None, "request |alpha| = 2 pi n at the tuned separation",
                                     optional=("design",),
                                     checks=((lambda n: n >= 1, "must be a positive integer"), _at_most(INT64_MAX)))
    seed: int = _key(12345, "random seed for the verification draws", optional=("verify",), checks=(_NON_NEGATIVE,))

    def model_params(self) -> InterferometerParams:
        """The working point in units of W: the CLI fixes W = 1, so the kick is delta_over_w itself."""
        return InterferometerParams(r=self.r, phi=self.phi, alpha=self.alpha, delta=self.delta_over_w)

    @cached_property
    def design(self) -> tuple[experiment.DerivedSetup, experiment.TuneResult]:
        """The SI setup and its 2 pi tuning; ValueError names a quantity outside the double or int64 range."""
        from . import experiment  # only design runs load it

        # the design keys, in table order, are ExperimentInputs' fields in order, each with its unit as a suffix
        inputs = experiment.ExperimentInputs(*(getattr(self, key) for key in _mode_keys("design", "required")))
        setup = experiment.derive_setup(inputs)
        tuned = experiment.tune_separation(setup, self.tune_target_n)
        if tuned.n_multiple > INT64_MAX:
            raise ValueError(f"the tuned 2 pi multiple {tuned.n_multiple} exceeds the int64 range of the table")
        return setup, tuned


_KEYS = {f.name: f for f in fields(RunConfig)}
# value type of each key, read from its annotation ``X`` or ``X | None``
_KINDS = {name: (typing.get_args(hint) or (hint,))[0] for name, hint in typing.get_type_hints(RunConfig).items()}


def _mode_keys(mode: str, *roles: str) -> list[str]:
    """Keys, in table order, that ``mode`` lists under any of ``roles`` (required / optional)."""
    return [name for name, f in _KEYS.items() if any(mode in f.metadata[role] for role in roles)]


@dataclass
class RunResult:
    rows: GridTable
    summary: list[str] = field(default_factory=list)  # a sweep's is complete once its table's blocks are all read
    exit_code: int = 0

    @property
    def columns(self) -> list[str]:
        return list(self.rows.columns)


def typed_table(columns: dict[str, object]) -> GridTable:
    """One table from an ordered ``{column name: values}`` mapping, as a :class:`GridTable` of one grid row.

    Each column is float64, int64 or str, as numpy infers it from the values.  Columns of unequal length are refused,
    since a length-1 column would broadcast silently, and so are strings holding NUL, the writers' padding byte.
    """
    arrays = {name: np.asarray(values) for name, values in columns.items()}
    shapes = [a.shape for a in arrays.values()]
    if len(set(shapes)) != 1 or len(shapes[0]) != 1:
        raise ValueError(f"table columns must be 1D and of equal length, got shapes {shapes}")
    for name, a in arrays.items():
        if a.dtype.kind == "U" and any("\0" in str(value) for value in columns[name]):
            raise ValueError(f"column {name!r} holds a string with a NUL character")
    return GridTable({name: a[None, :] for name, a in arrays.items()})


@dataclass(frozen=True)
class GridTable:
    """A table over the product of two axes, in row-major order (the first axis outer), without its repeated cells:
    each column keeps the 2D shape it varies over, (n, 1) or (1, m) for a float64 axis, which the writer formats into
    fixed 24-byte cells, and the table's ``shape`` (n, m) for a full column, float64, a signed int or str: the kinds
    the writer has cells for.  Any other column is refused when the table is built.  A full column held as None is
    computed: ``fill(block)`` gives each such column over a block of the grid, by name, when :meth:`full` reads it."""

    columns: dict[str, np.ndarray | None]
    fill: typing.Callable[[tuple[slice, slice]], dict[str, np.ndarray]] | None = None
    shape: tuple[int, int] = field(init=False)

    def __post_init__(self):
        stored = {name: values for name, values in self.columns.items() if values is not None}
        if len(stored) < len(self.columns) and self.fill is None:
            raise ValueError("a grid table with computed columns needs a fill")
        for name, values in stored.items():
            if values.ndim != 2:
                raise ValueError(f"grid table column {name!r} is {values.ndim}D, not 2D")
        shape = np.broadcast_shapes(*(a.shape for a in stored.values()))  # refuses columns that do not broadcast
        for name, values in stored.items():
            if values.dtype != np.float64 and not (values.shape == shape and values.dtype.kind in "iU"):
                raise ValueError(f"grid table column {name!r} is {values.dtype}, not float64 "
                                 "(nor a signed int or str that fills the grid)")
        object.__setattr__(self, "shape", shape)

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __getitem__(self, name: str) -> np.ndarray | None:
        return self.columns[name]

    def full(self, block: tuple[slice, slice]) -> dict[str, np.ndarray]:
        """The full columns over ``block``, one of ``numeric.blocks(shape, ...)``, read in row-major order: a stored
        column's slice, a computed one's ``fill``."""
        computed = {} if self.fill is None else self.fill(block)
        return {name: computed[name] if values is None else values[block]
                for name, values in self.columns.items() if values is None or values.shape == self.shape}


def _excerpt(raw: str) -> str:
    """``raw`` quoted for an error message: whole up to 20 characters, else its first 20 and its length."""
    return repr(raw) if len(raw) <= 20 else f"{raw[:20]!r}... ({len(raw)} characters)"


def _parse_float(raw: str, key: str, line: int | None) -> float:
    text = raw.strip()
    head, factor = text, 1.0
    if text.endswith("pi"):
        head, factor = text[:-2].strip(), math.pi
        if head in ("", "+"):
            return factor
        if head == "-":
            return -factor
    try:
        value = float(head)
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse number from {_excerpt(raw)}", line) from None
    if not math.isfinite(value * factor):
        raise ConfigError(f"key '{key}': value {_excerpt(raw)} is not finite", line)
    return value * factor


def _parse_int(raw: str, key: str, line: int | None) -> int:
    text = raw.strip()
    try:
        return int(text, 10)
    except ValueError:
        echo = _excerpt(raw)
        limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit, as before Python 3.10.7
        if limit and len(text) > limit:  # past the limit (>= 640 digits) the excerpt ends "(N characters)"
            echo = f"{echo[:-1]}; Python parses at most {limit} digits)"
        raise ConfigError(f"key '{key}': cannot parse integer from {echo}", line) from None


def _enter(raw: dict[str, str], lines: dict[str, int | None], key: str, value: str, line: int | None) -> None:
    """Enter one key and its value, from a file line or (``line`` None) a flag: unknown, repeated and empty
    keys are refused by this one rule for both."""
    if key not in _KEYS:
        raise ConfigError(f"unknown key {_excerpt(key)}", line)
    if key in raw:
        first = "" if lines[key] is None else f" (first set on line {lines[key]})"
        raise ConfigError(f"duplicate key '{key}'{first}", line)
    if not value:
        raise ConfigError(f"key '{key}' has an empty value", line)
    raw[key], lines[key] = value, line


def parse_config_text(text: str) -> tuple[dict[str, str], dict[str, int | None]]:
    """Flat key=value parsing with unknown/duplicate keys rejected at their line."""
    raw: dict[str, str] = {}
    lines: dict[str, int | None] = {}
    for lineno, original in enumerate(text.splitlines(), start=1):
        stripped = original.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got {_excerpt(original.strip())}", lineno)
        key, value = (part.strip() for part in stripped.split("=", 1))
        _enter(raw, lines, key, value, lineno)
    return raw, lines


def build_config(raw: dict[str, str], lines: dict[str, int | None] | None = None) -> RunConfig:
    """Type, mode and range validation of a raw key->string mapping."""
    where = (lines or {}).get
    if "mode" not in raw:
        raise ConfigError(
            "missing required key 'mode' (mode plus the mode's own keys are required; "
            f"modes: {', '.join(MODES)})"
        )
    mode = raw["mode"].strip().lower()
    if mode not in MODES:
        raise ConfigError(f"unknown mode {_excerpt(raw['mode'])}; expected one of {', '.join(MODES)}", where("mode"))

    allowed = {"mode", *_mode_keys(mode, "required", "optional")}
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"key '{key}' is not valid in mode '{mode}'", where(key))
    missing = [key for key in _mode_keys(mode, "required") if key not in raw]
    if missing:
        raise ConfigError(f"mode '{mode}' is missing required keys: {', '.join(missing)}")

    values: dict[str, object] = {"mode": mode}
    for key, text in raw.items():
        if key == "mode":
            continue
        kind = _KINDS[key]
        if kind is float:
            values[key] = _parse_float(text, key, where(key))
        elif kind is int:
            values[key] = _parse_int(text, key, where(key))
        else:
            values[key] = text.strip()

    config = RunConfig(**values)
    for key, f in _KEYS.items():
        value = getattr(config, key)
        for predicate, requirement in f.metadata["checks"]:
            if value is not None and not predicate(value):
                shown = _excerpt(value) if isinstance(value, str) else repr(value)
                raise ConfigError(f"key '{key}': {requirement}, got {shown}", where(key))
    for lo_key, hi_key in (("delta_over_w_min", "delta_over_w_max"), ("phi_min", "phi_max")):
        lo, hi = getattr(config, lo_key), getattr(config, hi_key)
        if lo is not None and hi is not None and not (lo < hi and math.isfinite(hi - lo)):  # floats: inf, no warning
            rule = (f"range must be ordered: {lo_key} < {hi_key} (got {lo!r} >= {hi!r})" if not lo < hi
                    else f"range width {hi_key} - {lo_key} must be finite (got {hi!r} - {lo!r})")
            raise ConfigError(f"key '{hi_key}': {rule}", where(hi_key))
    if config.mode in ("distributions", "ports") and not math.isfinite(abs(config.alpha) + abs(config.phi)):
        # the exit-port algebra takes cos and sin of alpha +- phi: an overflowed sum would make every port NaN
        raise ConfigError(f"key 'alpha': |alpha| + |phi| must be finite (got {config.alpha!r} and {config.phi!r})",
                          where("alpha"))
    if config.mode == "sweep" and config.delta_over_w_steps * config.phi_steps > MAX_SWEEP_ROWS:
        raise ConfigError(
            f"key 'phi_steps': delta_over_w_steps * phi_steps must be <= {MAX_SWEEP_ROWS} rows, "
            f"got {config.delta_over_w_steps} * {config.phi_steps}", where("phi_steps")
        )
    if config.mode == "design":
        try:
            config.design  # cached: the design mode reads it without deriving it again
        except ValueError as err:
            # the inputs clash only together: point at the last one given, a flag (no line) if flags set any
            given = [where(key) for key in (*_mode_keys("design", "required"), "tune_target_n") if key in raw]
            raise ConfigError(f"design: {err}", None if None in given else max(given)) from None
    return config


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document."""
    raw, lines = parse_config_text(text)
    return build_config(raw, lines)


# ---------------------------------------------------------------------------
# Mode implementations
# ---------------------------------------------------------------------------

def _report_grid(config: RunConfig, params: InterferometerParams) -> tuple[numeric.MomentumGrid, str | None]:
    """The report grid, refused (GridSpanError) unless it holds the free and both kicked branches, and the
    reason its quadrature is unresolved (None if it is resolved).  The table cells are exact closed-form
    samples at any spacing; only a quadrature over the grid needs Simpson to resolve the packets."""
    grid = numeric.default_grid(1.0, config.grid_span, config.grid_points)
    try:
        grid.require_resolved((params.packet(), params.kicked_packet(1), params.kicked_packet(2)))
    except AliasingError as err:
        return grid, str(err)
    return grid, None


def _fmt(value: float, spec: str) -> str:
    """A summary number to ``spec`` (sign and precision, such as "+.6"): fixed point, or scientific from 1e9 up,
    where fixed point runs long."""
    # + 0.0 prints an exact -0.0 as +0; a negative number that rounds to zero keeps its sign
    return format(value + 0.0, spec + ("e" if abs(value) >= 1e9 else "f"))


def _fmt_params(params: InterferometerParams) -> str:
    return (
        f"r={params.r:.6f}, delta/W={params.delta_over_width:g}, "
        f"phi={_fmt(params.phi, '.8')} rad, alpha={_fmt(params.alpha, '.8')} rad"
    )


def _run_distributions(config: RunConfig) -> RunResult:
    params = config.model_params()
    port = PortPair(config.port)
    grid, unresolved = _report_grid(config, params)
    p = grid.points
    dens1, dens2 = (analytic.port_marginal_density(params, port, electron, p) for electron in (1, 2))
    rows = typed_table({"p_over_W": p, "P1_times_W": dens1, "P2_times_W": dens2})
    quad_mean = f"unresolved ({unresolved})" if unresolved else _fmt(grid.density_mean(dens1), "+.6")
    summary = [
        f"distributions mode: port {port.name}, {_fmt_params(params)}",
        f"  mean p1/W from quadrature of the emitted density: {quad_mean}",
    ]
    if port is PortPair.DC:
        closed = analytic.mean_postselected(params, 1)
        single = analytic.mean_postselected_packet_overlap(params)
        summary += [
            f"  mean p1/W, closed form with branch overlap I^2:  {_fmt(closed, '+.6')}",
            f"  mean p1/W, closed form with packet overlap I:    {_fmt(single, '+.6')}",
            f"  overlap-convention difference:                   {_fmt(single - closed, '+.6')}",
        ]
    else:
        mean = analytic.port_mean_momenta(params, 1)[port]
        summary.append(f"  mean p1/W, closed form for port {port.name}: {_fmt(mean, '+.6')}")
    return RunResult(rows, summary)


def _run_decompose(config: RunConfig) -> RunResult:
    params = config.model_params()
    grid, _ = _report_grid(config, params)
    p = grid.points
    direct, cross = analytic.term_decomposition(params, p)
    rows = typed_table({"p_over_W": p, "T_a_times_W": direct, "T_b_times_W": cross,
                        "P1_unnormalized_times_W": direct + cross})
    summary = [
        f"decompose mode: {_fmt_params(params)}",
        f"  post-selection norm N = {analytic.postselect_norm(params):.6f}",
        f"  interference term minimum: {_fmt(float(np.min(cross)), '+.6')} (units 1/W)",
        f"  direct term is non-negative: min {float(np.min(direct)):.3e}",
    ]
    return RunResult(rows, summary)


def _run_sweep(config: RunConfig) -> RunResult:
    """The means over the (delta/W, phi) grid, delta outer: its two axes, and three columns that ``mean_surface`` gives
    each block as it is read, holding no (n_delta, n_phi) plane.  A walk's blocks fold into the summary, at its end."""
    deltas = np.linspace(config.delta_over_w_min, config.delta_over_w_max, config.delta_over_w_steps)
    phis = np.linspace(config.phi_min, config.phi_max, config.phi_steps)
    names = ("mean_p1_over_W", "mean_p1_single_overlap_over_W", "postselect_norm")  # MeanSurface's fields, in order
    summary = [f"sweep mode: {deltas.size} x {phis.size} grid, alpha={_fmt(config.alpha, '.8')} rad"]
    count = dark = largest = at = None

    def surface(block: tuple[slice, slice]) -> dict[str, np.ndarray]:
        nonlocal count, dark, largest, at
        rows, cols = block
        part = analytic.mean_surface(deltas[rows, None], phis[None, cols], config.alpha)
        if rows.start == cols.start == 0:  # a walk starts
            count, dark, largest = 0, 0, 0.0
        count += int(np.count_nonzero(part.mean > 0.0))
        dark += int(np.count_nonzero(part.norm <= DARK_THRESHOLD))
        i, j = np.unravel_index(np.argmax(part.mean), part.mean.shape)
        if part.mean[i, j] > largest:  # strict, over row-major blocks: np.argmax's first maximum
            largest, at = part.mean[i, j], (deltas[rows][i], phis[cols][j])
        if rows.stop >= deltas.size and cols.stop >= phis.size:
            summary[1:] = [f"  anomalous (positive-mean) points: {count} of {len(table)}"
                           f" ({100.0 * count / len(table):.1f}%)"]
            if count:
                summary.append(f"  largest anomalous mean: +{largest:.6f} W at "
                               f"delta/W={at[0]:g}, phi={_fmt(at[1], '.6')} rad")
            if dark:
                summary.append("  dark grid points emitted as 0 (removable limit), flagged by postselect_norm <= "
                               f"{DARK_THRESHOLD:g}: {dark}")
        return dict(zip(names, part))

    table = GridTable({"delta_over_W": deltas[:, None], "phi_rad": phis[None, :], **dict.fromkeys(names)}, surface)
    return RunResult(table, summary)


def _run_ports(config: RunConfig) -> RunResult:
    params = config.model_params()
    probs = analytic.port_probabilities(params)
    means1 = analytic.port_mean_momenta(params, 1)
    means2 = analytic.port_mean_momenta(params, 2)
    balance = analytic.ehrenfest_check(params)
    defined = [int(means1[port] is not None) for port in PortPair]  # a dark port's means are written as 0
    # + 0.0 writes an exact -0.0 as 0.0, as _fmt prints it
    column1, column2 = ([0.0 if m is None else m + 0.0 for m in means.values()] for means in (means1, means2))
    rows = typed_table({
        "port": [port.name for port in PortPair] + ["TOTAL"],
        "probability": list(probs.values()) + [sum(probs.values())],
        "mean_p1_over_W": column1 + [balance.weighted_sum + 0.0],
        "mean_p2_over_W": column2 + [-balance.weighted_sum + 0.0],
        "mean_defined": defined + [1],
    })
    summary = [f"ports mode: {_fmt_params(params)}"]
    for port in PortPair:
        mean_text = f"{_fmt(means1[port], '+.6')} W" if means1[port] is not None else "undefined (dark)"
        summary.append(f"  P({port.name}) = {probs[port]:.6f}   mean p1 = {mean_text}")
    summary += [
        f"  sum of port probabilities: {sum(probs.values()):.12f}",
        f"  unconditioned mean of p1, closed form -2 t^2 r^2 delta: {_fmt(balance.closed_form, '+.6')} W",
        f"  unconditioned mean of p1, port-weighted sum:            {_fmt(balance.weighted_sum, '+.6')} W",
    ]
    return RunResult(rows, summary)


def _run_design(config: RunConfig) -> RunResult:
    """The SI inputs, then each derived quantity once: its column, its value and its summary line (None: no line)."""
    setup, tuned = config.design
    derived = [
        ("transit_time_s", setup.transit_time, f"transit time           {setup.transit_time:.6e} s"),
        ("force_N", setup.force, f"coulomb force          {setup.force:.6e} N"),
        ("delta_kg_m_per_s", setup.delta, f"momentum kick delta    {setup.delta:.6e} kg m/s"),
        ("width_W_kg_m_per_s", setup.momentum_width, f"momentum width W       {setup.momentum_width:.6e} kg m/s"),
        ("delta_over_W", setup.delta_over_width, f"delta / W              {_fmt(setup.delta_over_width, '.4')}"),
        ("alpha_rad", setup.alpha,
         f"alpha                  {_fmt(setup.alpha, '.4')} rad = {_fmt(setup.alpha / math.pi, '.4')} pi"),
        ("alpha_over_pi", setup.alpha / math.pi, None),
        ("fringe_spacing_m", setup.fringe_spacing, f"fringe spacing h/delta {setup.fringe_spacing:.4e} m"),
        ("longitudinal_spread_m", setup.longitudinal_spread,
         f"longitudinal spread    {setup.longitudinal_spread:.4e} m"),
        ("transverse_spread_m", setup.transverse_spread, None),
        ("transverse_spread_relative", setup.transverse_spread_relative,
         f"transverse growth      {setup.transverse_spread_relative:.4e} (relative)"),
        ("kinetic_scale_J", setup.kinetic_scale, f"kinetic scale          {setup.kinetic_scale:.4e} J"),
        ("potential_scale_J", setup.potential_scale, f"potential scale        {setup.potential_scale:.4e} J"),
        ("tuned_multiple_2pi", tuned.n_multiple, None),
        ("tuned_separation_m", tuned.separation,
         f"tuned separation       {_fmt(tuned.separation * 1e3, '.4')} mm gives |alpha| = {tuned.n_multiple} x 2 pi"),
        ("tuned_alpha_rad", tuned.setup.alpha, None),
    ]
    for check in setup.validity:
        derived += [(f"check_{check.name}_ratio", check.ratio, None),
                    (f"check_{check.name}_pass", int(check.passed), check.describe())]
    cells = {key: [getattr(config, key)] for key in _mode_keys("design", "required")}
    cells.update((name, [value]) for name, value, _ in derived)
    summary = ["design mode: SI setup -> dimensionless model"]
    summary += ["  " + line for *_, line in derived if line is not None]
    return RunResult(typed_table(cells), summary)


def _run_verify(config: RunConfig) -> RunResult:
    from . import verify  # only verify runs load it

    checks = verify.run_all(config.seed)
    rows = typed_table({"check": [c.name for c in checks], "max_deviation": [c.max_deviation for c in checks],
                        "tolerance": [c.tolerance for c in checks], "passed": [int(c.passed) for c in checks]})
    summary = ["verify mode: closed forms against independent oracles"]
    summary += ["  " + c.describe() for c in checks]
    all_passed = all(c.passed for c in checks)
    summary.append(f"  overall: {'all suites passed' if all_passed else 'SUITE FAILURES PRESENT'}")
    return RunResult(rows, summary, exit_code=0 if all_passed else 1)


_MODE_RUNNERS = {
    "distributions": _run_distributions,
    "decompose": _run_decompose,
    "sweep": _run_sweep,
    "ports": _run_ports,
    "design": _run_design,
    "verify": _run_verify,
}


def execute(config: RunConfig) -> RunResult:
    """Run one mode; raises DarkPortError / GridError on invalid physics."""
    return _MODE_RUNNERS[config.mode](config)


# ---------------------------------------------------------------------------
# Table writers
# ---------------------------------------------------------------------------

# Rows per CSV byte matrix: a block of the sweep's five columns traces 1.1 to 1.4 MB of temporaries, its text and the
# copy with the zeros dropped the most of it; a JSON block of as much text, 0.9 to 1.3 MB.
_CHUNK_ROWS = 2**12

# Text of an int or str cell (ASCII str, or UTF-8 bytes that keep lone surrogates as a str does) and its
# "S" dtype, fixed where the kind bounds it (an int64 takes 20 characters) to halve numpy's cost.
_CELL_TEXT = {("csv", "i"): (str, "S20"), ("json", "i"): (str, "S20"), ("json", "U"): (json.dumps, "S"),
              ("csv", "U"): (lambda text: text.encode("utf-8", "surrogatepass"), "S")}


def _cells(values: np.ndarray, fmt: str) -> np.ndarray:
    """The text of each of ``values`` as a zero-padded uint8 cell, shape ``values.shape + (width,)``."""
    if values.dtype.kind == "f":
        return (floatfmt.e16 if fmt == "csv" else floatfmt.shortest)(values)
    text, dtype = _CELL_TEXT[fmt, values.dtype.kind]
    return np.array(list(map(text, values.ravel().tolist())), dtype=dtype).view(np.uint8).reshape(values.shape + (-1,))


def _rows_bytes(blocks: list[np.ndarray], between: list[bytes]) -> bytearray:
    """The rows of one block: its (outer, inner, width) arrays of zero-padded cells between the separators, zeros
    dropped.  Each array leaves ``blocks`` as it is assigned, so the cells are freed before ``translate`` copies the
    text, and the matrix dies on return: the writer's peak is one block's text and its copy."""
    widths = [block.shape[-1] for block in blocks]
    template = b"".join(const + bytes(width) for const, width in zip(between, widths)) + between[-1]
    text = bytearray(template) * math.prod(blocks[0].shape[:-1])  # every row's separators around zeroed cell slots
    matrix, end = np.frombuffer(text, np.uint8).reshape(*blocks[0].shape[:-1], -1), 0
    for const, width in zip(between, widths):
        end += len(const) + width
        matrix[..., end - width:end] = blocks.pop(0)
    return text.translate(None, b"\0")


def _separators(columns: list[str], fmt: str) -> tuple[list[bytes], int]:
    """The bytes before each cell, then after the row, and the rows of a block: ``_CHUNK_ROWS`` for CSV, and for JSON
    as many as pad to a CSV block's text (24-byte cell slots and separators), at least 1."""
    if fmt == "csv":
        between = [""] + [","] * (len(columns) - 1) + ["\n"]
    else:
        between = [("  {\n" if j == 0 else ",\n") + f"    {json.dumps(name)}: " for j, name in enumerate(columns)]
        between.append("\n  },\n")
    between, slots = [text.encode() for text in between], floatfmt.WIDTH * len(columns)
    return between, max(1, _CHUNK_ROWS * (slots + len(columns)) // (slots + sum(map(len, between))))


def _refuse_non_finite(columns: dict[str, np.ndarray]) -> None:
    for name, values in columns.items():  # in order: the error names the first bad column
        if values.dtype.kind == "f" and not np.isfinite(values).all():
            raise ValueError(f"column {name!r} holds a non-finite value; tables must be finite")


def write_table(columns: list[str], rows: GridTable, fmt: str = "csv", out=None):
    """Append a table's CSV or JSON text, as UTF-8 bytes, to ``out`` (a new ``bytearray`` by default) with ``+=`` and
    return ``out``; ``main`` passes a sink that writes each piece on to the file as it comes.

    The head goes first, then blocks of rows (whole grid rows, or a slice of one; ``_CHUNK_ROWS`` for CSV, and for
    JSON, whose rows run about twice as long, as many as pad to a CSV block's text), each one uint8 matrix: a template
    row of the separators repeated, the block's zero-padded cells assigned into its slots (an axis's as a broadcast of
    its text, formatted once; the full columns as :meth:`GridTable.full` gives them, a computed column evaluated for
    this block and dropped with it), its zero bytes dropped in one pass.  No bytes are decoded (a ``str`` of a 29 MB
    table, and a text-mode file's copy of it, cost 28 MB of peak RSS).  CSV floats are
    ``"%.16e" % v`` and JSON floats ``repr(v)``, both from the double-double digits of :mod:`.floatfmt`, with ``%`` or
    ``repr`` itself formatting the cells its error bound cannot decide.  JSON is ``json.dumps(objects, indent=2)`` of
    the rows as objects, ``[]`` for none.  Identical inputs give identical bytes.  Floats must be finite, since JSON
    cannot spell nan or inf: stored columns are checked before the first byte, a computed column before its block's.
    """
    if list(columns) != list(rows.columns):
        raise ValueError(f"columns {list(columns)} do not match the table's fields {list(rows.columns)}")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown table format {fmt!r}")
    stored, shape = {name: rows[name] for name in columns if rows[name] is not None}, rows.shape
    _refuse_non_finite(stored)
    axes = {}
    for name, values in stored.items():
        if values.shape != shape:  # an axis, float64 as GridTable holds it: formatted once, in blocks, into its text
            text = np.empty(values.shape + (floatfmt.WIDTH,), np.uint8)
            for block in numeric.blocks(values.shape, _CHUNK_ROWS):
                text[block] = _cells(values[block], fmt)
            axes[name] = np.broadcast_to(text, shape + text.shape[-1:])
    between, block_rows = _separators(columns, fmt)
    out = bytearray() if out is None else out
    head = ",".join(columns) + "\n" if fmt == "csv" else "[\n" if len(rows) else "[]\n"
    out += head.encode("utf-8", "surrogatepass")
    blocks = numeric.blocks(shape, block_rows)
    for b, block in enumerate(blocks):
        full = rows.full(block)
        _refuse_non_finite({name: values for name, values in full.items() if name not in stored})
        cells = {name: text[block] for name, text in axes.items()}
        floats = [name for name, values in full.items() if values.dtype.kind == "f"]
        if floats:  # one call for every float column: a call per column costs wide tables dearly
            cells.update(zip(floats, _cells(np.stack([full.pop(name) for name in floats]), fmt)))
        cells.update((name, _cells(values, fmt)) for name, values in full.items())
        piece = _rows_bytes([cells.pop(name) for name in columns], between)
        if fmt == "json" and b == len(blocks) - 1:  # as json.dumps: no comma after the last object
            piece[-2:] = b"\n]\n"
        out += piece
        del piece  # else it lives on through the next block's formatting
    return out


class _FileSink:
    """``main``'s ``out``: ``+=`` writes to the file, opened (directory made) at the first bytes; ``len()`` counts."""

    def __init__(self, path: str):
        self.path, self.handle, self.size = path, None, 0

    def __len__(self) -> int:
        return self.size

    def __iadd__(self, data: bytes) -> _FileSink:
        self.size += self._call("write", data)
        return self

    def close(self) -> None:
        if self.handle is not None:
            self._call("close")

    def _call(self, method: str, *args):
        try:
            if self.handle is None:
                Path(self.path).parent.mkdir(parents=True, exist_ok=True)
                self.handle = open(self.path, "wb")
            return getattr(self.handle, method)(*args)
        except OSError as err:
            raise OSError(f"cannot write output file {self.path!r}: {err}") from err


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_FLAGS = {"--" + key.replace("_", "-"): key for key in _KEYS if key != "mode"}  # the positional is mode's only spelling


def _help_text() -> str:
    """``--help``: the usage lines, then each key of :class:`RunConfig` with its type, help text and default."""
    rows = [("mode", _KEYS["mode"].metadata["help"]), ("--config FILE", "key = value file; flags override its keys")]
    for flag, key in _FLAGS.items():
        default = _KEYS[key].default
        rows.append((f"{flag} {_KINDS[key].__name__.upper()}",
                     _KEYS[key].metadata["help"] + ("" if default is None else f" (default {default})")))
    width = max(len(name) for name, _ in rows) + 2
    return "\n".join(["usage: qif-mzi [mode] [--config FILE] [--key value | --key=value ...]",
                      "Unknown, repeated and empty keys are errors (exit 2) in flags as in files; no abbreviations.",
                      *(f"  {name:<{width}}{text}" for name, text in rows)])


def _read_argv(argv: list[str]) -> tuple[str | None, dict[str, str], dict[str, int | None]] | None:
    """``[mode] [--config FILE] [--key value | --key=value ...]`` as (config file, raw, lines), or None for ``-h``
    or ``--help``.  A flag takes the next argument as its value whatever it is (``--phi -0.5pi``), and each entry
    passes the file's rule with no line: a flag that spells no key, such as ``--mode`` or a prefix, is unknown."""
    path, raw, lines = None, {}, {}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):
            return None
        if not arg.startswith("-"):
            _enter(raw, lines, "mode", arg, None)
            continue
        flag, joined, value = arg.partition("=")
        value = value if joined else next(args, "")
        if flag != "--config":
            _enter(raw, lines, _FLAGS.get(flag, flag), value, None)
        elif path is not None:
            raise ConfigError("option '--config' is given twice")
        else:
            path = value
    return path, raw, lines


def main(argv: list[str] | None = None) -> int:
    """Run one command line (default ``sys.argv[1:]``) and return its exit status: 0, 1 for a run that fails
    (dark port, unresolved grid, unwritable output, failed suite), 2 for a malformed command line or config."""
    try:
        command = _read_argv(sys.argv[1:] if argv is None else argv)
        if command is None:
            print(_help_text())
            return 0
        path, raw, lines = command
        if path is not None:  # flags override the file's keys; errors in an overridden key point at no line
            try:
                text = Path(path).read_text(encoding="utf-8")
            except (OSError, UnicodeError) as err:
                raise ConfigError(f"cannot read config file {path!r}: {err}") from err
            file_raw, file_lines = parse_config_text(text)
            raw, lines = {**file_raw, **raw}, {**file_lines, **lines}
        config = build_config(raw, lines)
        result = execute(config)
        if config.out is None:  # read the blocks unformatted: a sweep's summary folds them
            for block in numeric.blocks(result.rows.shape, _CHUNK_ROWS):
                result.rows.full(block)
        else:
            try:
                with contextlib.closing(_FileSink(config.out)) as sink:
                    write_table(result.columns, result.rows, config.format, sink)
            except ValueError as err:  # a non-finite cell, such as a NaN verify deviation: the file is not opened
                print(f"qif-mzi: error: {err}", file=sys.stderr)
                return 1
        for line in result.summary:  # after the table, whose blocks a sweep's summary folds
            print(line)
        if config.out is not None:
            print(f"wrote {len(result.rows)} row(s) to {config.out} ({config.format})")
    except ConfigError as err:
        print(f"qif-mzi: config error: {err}", file=sys.stderr)
        return 2
    except (DarkPortError, GridError, OSError) as err:
        print(f"qif-mzi: error: {err}", file=sys.stderr)
        return 1
    return result.exit_code


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
