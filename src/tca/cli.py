"""Command-line workflow: estimate, decompose, bootstrap, inspect.

Subcommands
-----------
estimate      fit a reduced-form VAR from a CSV and write a model file
transmission  decompose an identified shock's effects along conditions
bootstrap     transmission plus percentile bands from a residual bootstrap
paths         list every path of a shock/target pair with coefficients
verify        re-check the decomposition identity of an effects file

Exit codes: 0 ok; 2 data or model problem; 3 condition problem;
4 unstable bootstrap; 5 path or evaluator-state explosion.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import operator
import sys

import numpy as np

from .condition import (EffectTable, Var, identity_gap, parse_condition,
                        transmission_effect)
from .errors import (
    BootstrapUnstableError,
    ParseError,
    PathExplosionError,
    TcaError,
    TermExplosionError,
    ZeroImpactError,
)
from .graph import enumerate_paths
from .inference import BootstrapSpec, InstrumentSpec, VarSpec, bootstrap_effects
from .linalg import solve_unit_lower
from .model import (ReducedVar, VarmaModel, _impact_scale, estimate_var_ols,
                    identify_internal_instrument)
from .system import (TransmissionOrdering, make_systems_form,
                     reconstruct_from_single_shock)

IDENTITY_RTOL = 1e-8
#: records parsed per batch when reading a CSV file: a batch's cells are a
#: few hundred KB, so memory stays flat and the columns parse from cache
CSV_BATCH = 256


def _fmt(x: float) -> str:
    """17 significant digits: round-trip safe."""
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# Data and model files


def _numeric_records(path, reader, width, columns):
    """The body of a CSV file in batches of at most ``CSV_BATCH`` records.

    Yields ``(lines, values)``: the physical line on which each record
    starts, and an ``(n, len(columns))`` array of the numeric ``columns``
    read with ``float``.  Records whose cells are all blank are passed
    over.  A record that ``csv`` cannot read, has other than ``width``
    fields or holds a numeric cell ``float`` rejects raises ``ValueError``
    naming its line once the records before it have been yielded, so
    that a caller's own check on those reports first.
    """
    lines, records = [], []
    prev = reader.line_num
    try:
        for row in reader:
            # line_num is the last physical line read: a quoted cell may
            # span several, so a record starts one after the previous ends
            start, prev = prev + 1, reader.line_num
            if not "".join(row).strip():  # every cell blank
                continue
            if len(row) != width:
                yield from _parsed(path, lines, records, columns)
                raise ValueError(
                    f"{path}:{start}: expected {width} fields, got {len(row)}"
                )
            lines.append(start)
            records.append(row)
            if len(records) == CSV_BATCH:
                yield from _parsed(path, lines, records, columns)
                lines, records = [], []
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        yield from _parsed(path, lines, records, columns)
        raise ValueError(f"{path}:{prev + 1}: {exc}") from None
    yield from _parsed(path, lines, records, columns)


def _parsed(path, lines, records, columns):
    """One batch of :func:`_numeric_records`, parsed column by column."""
    values = np.empty((len(records), len(columns)))
    try:
        for j, c in enumerate(columns):
            cells = map(operator.itemgetter(c), records)
            values[:, j] = np.fromiter(map(float, cells), float, len(records))
    except ValueError:
        bad = next(i for i, row in enumerate(records)
                   if not _is_numeric(row, columns))
        yield from _parsed(path, lines[:bad], records[:bad], columns)
        raise ValueError(
            f"{path}:{lines[bad]}: non-numeric value in {records[bad]!r}"
        ) from None
    if records:
        yield lines, values


def _is_numeric(row, columns) -> bool:
    try:
        for c in columns:
            float(row[c])
    except ValueError:
        return False
    return True


def _header(path, reader) -> list:
    """The first record of a CSV file, as ``csv`` reads it."""
    try:
        return next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file") from None
    except csv.Error as exc:
        raise ValueError(f"{path}:1: {exc}") from None


def read_data_csv(path: str):
    """Numeric CSV with a header row of names; returns (names, T x K array)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        names = [h.strip() for h in _header(path, reader)]
        blocks = [values for _, values in _numeric_records(
            path, reader, len(names), range(len(names)))]
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    return names, np.concatenate(blocks)


def model_to_dict(model) -> dict:
    if isinstance(model, VarmaModel):
        return {
            "K": model.K,
            "var_names": list(model.var_names),
            "ell": model.ar_order,
            "q": model.ma_order,
            "A0": model.A0.tolist(),
            "A": [m.tolist() for m in model.A],
            "Psi": [m.tolist() for m in model.Psi],
        }
    if isinstance(model, ReducedVar):
        return {
            "K": model.K,
            "var_names": list(model.var_names),
            "reduced": {
                "p": model.p,
                "intercept": None
                if model.intercept is None
                else model.intercept.tolist(),
                "coefs": [m.tolist() for m in model.coefs],
                "sigma_u": model.sigma_u.tolist(),
            },
        }
    raise TypeError(f"unsupported model type: {type(model).__name__}")


def model_from_dict(doc: dict):
    names = doc["var_names"]
    if len(names) != doc["K"]:
        raise ValueError("var_names length does not match K")
    if "reduced" in doc:
        red = doc["reduced"]
        coefs = red["coefs"]
        if len(coefs) != red["p"]:
            raise ValueError("coefs length does not match p")
        return ReducedVar(
            var_names=tuple(names),
            coefs=tuple(coefs),
            sigma_u=red["sigma_u"],
            intercept=red["intercept"],
        )
    A = doc.get("A", [])
    Psi = doc.get("Psi", [])
    if len(A) != doc.get("ell", len(A)) or len(Psi) != doc.get("q", len(Psi)):
        raise ValueError("lag matrix counts disagree with ell/q")
    return VarmaModel(var_names=tuple(names), A0=doc["A0"], A=tuple(A),
                      Psi=tuple(Psi))


def save_model_file(path: str, model) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model_file(path: str):
    with open(path, encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Effects files


def _channel_headers(n: int):
    return ["channel"] if n == 1 else [f"channel_{i + 1}" for i in range(n)]


def _row_template(label: str, width: int) -> str:
    """``%``-format template of one effects row: the label cell as
    ``csv.writer`` writes it inside a row, the horizon, ``width`` numbers
    with 17 significant digits, and the writer's line end."""
    buf = io.StringIO()
    csv.writer(buf).writerow([label, ""])
    cell = buf.getvalue()[:-3]  # less the empty field's ",\r\n"
    return cell.replace("%", "%%") + ",%d" + ",%.17g" * width + "\r\n"


def write_effects_csv(path: str, tables, bands=None) -> None:
    """One row per (variable, horizon); bands refer to the channel."""
    tables = list(tables)
    first = tables[0]
    for t in tables[1:]:
        if t.labels != first.labels or t.total.shape != first.total.shape:
            raise ValueError("effect tables disagree on grid or labels")
        if not np.allclose(t.total, first.total, rtol=1e-12, atol=1e-12):
            raise ValueError("effect tables disagree on the total effect")
    channels = [t.channel for t in tables]
    complement = first.total - sum(channels)
    _, gap = identity_gap([*channels, complement], first.total)
    if not np.all(gap <= IDENTITY_RTOL):
        raise ValueError("decomposition identity violated before write")

    header = ["variable", "horizon", "total"]
    header += _channel_headers(len(tables))
    header += ["complement"]
    columns = [first.total, *channels, complement]
    if bands is not None:
        if len(tables) != 1:
            raise ValueError("bands are written for a single condition only")
        header += ["lower", "upper"]
        columns += [bands.lower["channel"], bands.upper["channel"]]

    h1, K = first.total.shape
    # rows[r, t] = (t, total, channels..., complement[, lower, upper]) at
    # variable r and horizon t
    rows = np.empty((K, h1, 1 + len(columns)))
    rows[:, :, 0] = np.arange(h1)
    rows[:, :, 1:] = np.stack(columns, axis=-1).transpose(1, 0, 2)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for label, block in zip(first.labels, rows):
            fh.write(_row_template(label, len(columns)) * h1
                     % tuple(block.ravel().tolist()))


def verify_effects_csv(path: str) -> int:
    """Re-check channel(s) + complement = total per row; returns row count."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _header(path, reader)
        try:
            i_total = header.index("total")
            i_comp = header.index("complement")
        except ValueError:
            raise ValueError(f"{path}: not an effects file") from None
        i_channels = [
            i
            for i, name in enumerate(header)
            if name == "channel" or name.startswith("channel_")
        ]
        if not i_channels:
            raise ValueError(f"{path}: no channel columns")
        count = 0
        for lines, values in _numeric_records(
                path, reader, len(header), [i_total, *i_channels, i_comp]):
            total, *parts = values.T
            acc, gap = identity_gap(parts, total)
            bad = np.flatnonzero(~(gap <= IDENTITY_RTOL))
            if bad.size:
                i = bad[0]
                raise ValueError(
                    f"{path}:{lines[i]}: decomposition identity violated "
                    f"({float(acc[i])!r} vs total {float(total[i])!r})"
                )
            count += len(lines)
    return count


# ---------------------------------------------------------------------------
# Shared argument handling


def _split_order(text: str):
    names = [n.strip() for n in text.split(",") if n.strip()]
    if not names:
        raise ValueError("--order must list variable names")
    return names


def _parse_normalize(text):
    """``(name, value)`` of a ``--normalize`` argument, ``None`` without one."""
    if text is None:
        return None
    name, _, value = text.partition("=")
    try:
        value = float(value)
    except ValueError:  # also a missing "="
        value = np.nan
    if not np.isfinite(value):
        raise ValueError(
            f"--normalize must be name=value with a finite value, got {text!r}"
        )
    return name.strip(), value


def _instrument_spec(var_names, normalize) -> InstrumentSpec:
    """The internal-instrument normalisation: ``--normalize`` must name a
    variable of the model."""
    if normalize is None:
        raise ValueError("--shock instrument requires --normalize name=value")
    name, value = normalize
    if name not in var_names:
        raise ValueError(f"unknown normalization variable {name!r}")
    return InstrumentSpec(normalize_on=var_names.index(name) + 1, impact=value)


def _shock_index(text: str, K: int) -> int:
    try:
        shock = int(text)
    except ValueError:
        raise ValueError(f"--shock must be a 1-based index, got {text!r}") from None
    if not 1 <= shock <= K:
        raise ValueError(f"--shock must be in 1..{K}")
    return shock


def _build_ordering(var_names, order_names, instrument_first: bool):
    names = list(var_names)
    wanted = list(order_names)
    if instrument_first:
        instrument = names[0]
        if instrument in wanted:
            if wanted[0] != instrument:
                raise ValueError(
                    f"the instrument {instrument!r} must be ordered first"
                )
        else:
            wanted = [instrument] + wanted
    return TransmissionOrdering.from_names(names, wanted)


def _tables(model, ordering, shock, normalize, conditions, horizon, xi):
    """One effect table per condition, all priced on one systems form.

    ``shock`` is ``"instrument"`` for a reduced-form model, whose shock is
    identified and rebuilt alone, or the 1-based shock index of a
    structural model; ``normalize`` is ``(name, value)`` or ``None``.
    """
    if shock == "instrument":
        ident = _instrument_spec(model.var_names, normalize)
        col = identify_internal_instrument(model, ident.normalize_on,
                                           ident.impact)
        sf = reconstruct_from_single_shock(model, ordering, col.phi, horizon,
                                           col.label)
        shock = None
    else:
        sf = make_systems_form(model, ordering, horizon)
        if normalize is not None:
            name, value = normalize
            # B is strictly lower-triangular, so the horizon-0 block solves
            # alone
            phi = solve_unit_lower(sf.B_blocks[:1], sf.omega[:sf.K, shock - 1])
            position = ordering.position(name)
            xi, nonzero = _impact_scale(phi, position, value)
            if not nonzero:
                raise ZeroImpactError(
                    f"impact of shock {shock} on {name!r} is "
                    f"{phi[position - 1]:.3e}"
                )
    return [transmission_effect(sf, cond, shock=shock, xi=xi)
            for cond in conditions]


def _assert_partition(tables) -> None:
    _, gap = identity_gap([t.channel for t in tables], tables[0].total)
    if not np.all(gap <= IDENTITY_RTOL):
        raise ParseError(
            "conditions do not partition the total effect "
            f"(max relative gap {np.max(gap):.3e})",
            position=0,
        )


# ---------------------------------------------------------------------------
# Commands


def cmd_estimate(args) -> int:
    names, data = read_data_csv(args.data)
    var = estimate_var_ols(data, args.lags, not args.no_intercept, names)
    save_model_file(args.out, var)
    if not args.quiet:
        sign, logdet = np.linalg.slogdet(var.sigma_u)
        print(
            f"K={var.K} T={data.shape[0]} p={var.p} "
            f"log|Sigma_u|={_fmt(logdet if sign > 0 else float('nan'))}"
        )
    return 0


def cmd_transmission(args) -> int:
    model = load_model_file(args.model)
    normalize = _parse_normalize(args.normalize)
    instrument = args.shock == "instrument"
    if instrument and not isinstance(model, ReducedVar):
        raise ValueError(
            "--shock instrument needs a reduced-form model; structural "
            "models take a shock index"
        )
    if not instrument and isinstance(model, ReducedVar):
        raise ValueError(
            "reduced-form models identify shocks via --shock instrument"
        )
    shock = "instrument" if instrument else _shock_index(args.shock, model.K)
    ordering = _build_ordering(model.var_names, _split_order(args.order),
                               instrument)
    tables = _tables(model, ordering, shock, normalize, args.condition,
                     args.horizon, args.xi)

    if args.assert_partition:
        _assert_partition(tables)
    write_effects_csv(args.out, tables)
    if not args.quiet:
        gaps = max(t.max_identity_gap() for t in tables)
        print(
            f"shock={tables[0].shock_label} conditions={len(tables)} "
            f"horizons=0..{args.horizon} max_identity_gap={_fmt(gaps)}"
        )
    return 0


def cmd_bootstrap(args) -> int:
    names, data = read_data_csv(args.data)
    if len(args.condition) != 1:
        raise ValueError("bootstrap supports exactly one --condition")
    if args.shock != "instrument":
        raise ValueError("bootstrap identifies shocks via --shock instrument")
    ident = _instrument_spec(names, _parse_normalize(args.normalize))

    ordering = _build_ordering(names, _split_order(args.order), True)
    bands = bootstrap_effects(
        data,
        VarSpec(lags=args.lags, intercept=not args.no_intercept),
        ident,
        ordering,
        args.condition[0],
        BootstrapSpec(
            replications=args.reps,
            seed=args.seed,
            level=args.level,
            freeze_normalization=args.freeze_normalization,
        ),
        args.horizon,
        xi=args.xi,
    )
    table = EffectTable(
        shock_label=bands.shock_label,
        condition=bands.condition,
        labels=bands.labels,
        xi=args.xi,
        total=bands.point["total"],
        channel=bands.point["channel"],
        complement=bands.point["complement"],
    )
    write_effects_csv(args.out, [table], bands=bands)
    if not args.quiet:
        outside = int(bands.cells_outside_band().sum())
        reasons = "".join(f" {name}={count}"
                          for name, count in bands.discarded_by.items())
        print(
            f"reps={bands.replications} discarded={bands.discarded}{reasons} "
            f"level={_fmt(bands.level)} point_outside_band_cells={outside}"
        )
    return 0


def cmd_paths(args) -> int:
    model = load_model_file(args.model)
    if isinstance(model, ReducedVar):
        raise ValueError("path listing needs a structural model file")
    ordering = _build_ordering(model.var_names, _split_order(args.order),
                               False)
    shock = _shock_index(args.shock, model.K)
    sf = make_systems_form(model, ordering, args.horizon)
    target_cond = parse_condition(
        args.target, ordering.labels, model.K, args.horizon
    )
    if not isinstance(target_cond.root, Var):
        raise ParseError("--target must be a single variable atom", position=0)
    target = target_cond.root.index
    paths = enumerate_paths(sf, shock, target, zero_tol=args.zero_tol)
    total = sum(p.coefficient for p in paths)
    cum = 0.0
    for p in paths:
        cum += p.coefficient
        if total != 0.0:
            print(f"{p.describe()} cum_share={_fmt(cum / total)}")
        else:
            print(p.describe())
    if not args.quiet:
        print(f"# {len(paths)} paths, total effect {_fmt(total)}")
    return 0


def cmd_verify(args) -> int:
    count = verify_effects_csv(args.file)
    print(f"OK: {count} rows satisfy the decomposition identity")
    return 0


# ---------------------------------------------------------------------------
# Entry point


def _add_common_transmission(sub, with_model: bool):
    if with_model:
        sub.add_argument("--model", required=True, help="model JSON file")
    sub.add_argument("--order", required=True,
                     help="comma-separated transmission ordering")
    sub.add_argument("--shock", required=True,
                     help="'instrument' or a 1-based structural shock index")
    sub.add_argument("--normalize", default=None, metavar="NAME=VALUE",
                     help="rescale the shock so NAME's impact equals VALUE")
    sub.add_argument("--condition", action="append", required=True,
                     help="transmission condition (repeatable)")
    sub.add_argument("--horizon", type=int, required=True)
    sub.add_argument("--xi", type=float, default=1.0, help="shock size")
    sub.add_argument("--out", required=True)
    sub.add_argument("--quiet", action="store_true")


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tca",
        description="Decompose impulse responses into transmission channels.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="fit a reduced-form VAR")
    est.add_argument("--data", required=True, help="CSV with a header row")
    est.add_argument("--lags", type=int, required=True)
    est.add_argument("--no-intercept", action="store_true")
    est.add_argument("--out", required=True)
    est.add_argument("--quiet", action="store_true")
    est.set_defaults(func=cmd_estimate)

    tr = subs.add_parser("transmission", help="decompose effects")
    _add_common_transmission(tr, with_model=True)
    tr.add_argument("--assert-partition", action="store_true",
                    help="require the conditions to add up to the total")
    tr.set_defaults(func=cmd_transmission)

    bs = subs.add_parser("bootstrap", help="decompose with percentile bands")
    _add_common_transmission(bs, with_model=False)
    bs.add_argument("--data", required=True, help="CSV with a header row")
    bs.add_argument("--lags", type=int, required=True)
    bs.add_argument("--no-intercept", action="store_true")
    bs.add_argument("--reps", type=int, required=True)
    bs.add_argument("--seed", type=int, required=True)
    bs.add_argument("--level", type=float, default=0.90)
    bs.add_argument("--freeze-normalization", action="store_true")
    bs.set_defaults(func=cmd_bootstrap)

    pa = subs.add_parser("paths", help="list paths of a shock/target pair")
    pa.add_argument("--model", required=True)
    pa.add_argument("--order", required=True)
    pa.add_argument("--shock", required=True)
    pa.add_argument("--target", required=True,
                    help="target atom, e.g. infl_4 or x12")
    pa.add_argument("--horizon", type=int, required=True)
    pa.add_argument("--zero-tol", type=float, default=0.0)
    pa.add_argument("--quiet", action="store_true")
    pa.set_defaults(func=cmd_paths)

    ve = subs.add_parser("verify", help="re-check an effects file")
    ve.add_argument("file")
    ve.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PathExplosionError, TermExplosionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except BootstrapUnstableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TcaError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
