"""Command-line front end.

Every subcommand echoes its resolved configuration into the report header,
emits exact values as "p/q" strings (Monte Carlo estimates are the only
decimals), and keeps diagnostics on stderr.  Exit statuses: 0 success,
1 verification failure (a failed suite or check, or an exact identity that
failed to hold, reported as one line), 2 usage error (any ValueError or
OSError, reported as one line), 3 budget refusal.

Flag precedence is flags > config file > defaults; the config file is flat
`key=value` text whose keys match the long flag names.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .approx import ApproxFunction, TargetSequence, approx_set_measure
from .counterexample import (
    BlockSchedule,
    CounterexampleInstance,
    _refuse_unbuildable,
    _write_atomic,
    build_counterexample,
    divergence_partial_sum,
    instance_from_prime_blocks,
    verify_block_measure,
    verify_containment,
)
from .arith import factorize
from .errors import BudgetError, IdentityError, UsageError
from .experiments import (
    ExperimentConfig,
    baselines_version,
    equidistribution_scan,
    main_term_sum_check,
    mc_coverage,
    pairwise_overlap_sum,
    phigcd_ratio_scan,
    phigcd_sum,
)
from .overlap import overlap_report, sifted_interval_count
from .rationals import _unlimited_int_digits, format_rational, parse_rational
from .verification import SUITES

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _shown(value) -> str:
    """A rejected input for a usage error: its repr, or when longer than 60
    characters the repr of its first 60 and its length, so one oversized
    argument cannot make the message as long as itself."""
    text = str(value)
    if len(text) <= 60:
        return repr(text)
    return f"{text[:60]!r}... ({len(text)} characters)"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise `UsageError`, so a bad command
    line is reported as one `usage error:` line instead of a usage block."""

    def error(self, message):
        raise UsageError(message)

    def _check_value(self, action, value):
        # argparse's own message quotes the whole rejected value.
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {_shown(value)} (choose from {choices})"
            )


def _spec_error(kind: str, spec, exc: Exception) -> UsageError:
    """A bad spec, shown once by `_shown`, and the parser's reason less its quote of it."""
    reason = str(exc).replace(repr(spec), "").rstrip(": ")
    return UsageError(f"bad {kind} spec {_shown(spec)}: {reason[:60]}")


def _given(**options) -> dict:
    """The options a flag or config line set; `ExperimentConfig` owns the other defaults."""
    return {key: value for key, value in options.items() if value is not None}


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {_shown(line)}")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _resolve(args, key: str, default=None):
    """flags > config file > default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if args.config_values and key in args.config_values:
        return args.config_values[key]
    return default


def _emit(columns, rows, config, fmt: str, out_path):
    """Render rows either as CSV with a commented config header or as JSON.

    Execution-only settings (worker count) go to stderr: results are
    worker-invariant by construction and the data stream must be too.
    """
    config = dict(config)
    workers = config.pop("workers", None)
    if workers is not None:
        print(f"workers={workers}", file=sys.stderr)
    config["fixture_version"] = baselines_version()
    with _unlimited_int_digits():
        if fmt == "csv":
            lines = [f"# {key}={config[key]}" for key in sorted(config)]
            lines.append(",".join(columns))
            for row in rows:
                lines.append(",".join(str(row[col]) for col in columns))
            text = "\n".join(lines) + "\n"
        else:
            text = json.dumps(
                {"config": config, "columns": list(columns), "rows": rows},
                sort_keys=True, indent=2,
            ) + "\n"
    if out_path:
        _write_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, tuple):
        return f"[{format_rational(value[0])};{format_rational(value[1])}]"
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _psi_from(args, key="psi") -> ApproxFunction:
    spec = _resolve(args, key)
    if spec is None:
        raise UsageError(f"--{key} is required")
    if isinstance(spec, ApproxFunction):
        return spec
    try:
        return ApproxFunction.parse(spec, cx_loader=CounterexampleInstance.load)
    except (ValueError, OSError) as exc:
        raise _spec_error("psi", spec, exc) from exc


def _target_from(args, m: int, key="y") -> TargetSequence:
    spec = _resolve(args, key, "zero")
    if isinstance(spec, TargetSequence):
        return spec
    try:
        return TargetSequence.parse(spec, m, cx_loader=CounterexampleInstance.load)
    except (ValueError, OSError) as exc:
        raise _spec_error("target", spec, exc) from exc


def _int_arg(args, key, default=None) -> int | None:
    value = _resolve(args, key, default)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError as exc:
        raise UsageError(f"--{key} wants an integer, got {_shown(value)}") from exc


def _rational_arg(args, key, default=None) -> Fraction | None:
    value = _resolve(args, key, default)
    if value is None:
        return None
    if isinstance(value, Fraction):
        return value
    try:
        return parse_rational(value)
    except ValueError as exc:
        raise UsageError(f"--{key} wants a rational p/q, got {_shown(value)}") from exc


# -- subcommand handlers -------------------------------------------------------------


def _cmd_measure(args) -> int:
    q = _int_arg(args, "q")
    if q is None or q < 1:
        raise UsageError("measure needs --q >= 1")
    psi = _psi_from(args)
    target = _target_from(args, 1)
    psi_q = psi(q)
    y_q = target(q)[0]
    report = approx_set_measure(q, psi_q, y_q)
    row = {
        "q": q,
        "psi": format_rational(psi_q),
        "y": format_rational(y_q),
        "measure": format_rational(report.measure),
        "closed_form": format_rational(report.closed_form),
        "ok": report.ok,
    }
    config = {"subcommand": "measure", "q": q, "psi": psi.describe(), "y": target.describe()}
    _emit(list(row), [row], config, args.format, args.out)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def _cmd_overlap(args) -> int:
    q = _int_arg(args, "q")
    r = _int_arg(args, "r")
    if q is None or r is None or q < 1 or r < 1:
        raise UsageError("overlap needs --q and --r, both >= 1")
    psi = _psi_from(args)
    target = _target_from(args, 1)
    report = overlap_report(q, r, psi, target(q)[0], target(r)[0])
    row = {
        "q": report.q,
        "r": report.r,
        "ell": report.ell,
        "m": report.em,
        "n": report.en,
        "D": format_rational(report.D),
        "exact_overlap": format_rational(report.exact_overlap),
        "addend1": format_rational(report.addend1),
        "addend2": format_rational(report.addend2),
        "M": format_rational(report.M),
        "trivial_rhs": _fmt(report.trivial_rhs),
    }
    config = {
        "subcommand": "overlap", "q": q, "r": r,
        "psi": psi.describe(), "y": target.describe(),
    }
    _emit(list(row), [row], config, args.format, args.out)
    return EXIT_OK


def _cmd_pairwise(args) -> int:
    q_max = _int_arg(args, "Q")
    if q_max is None:
        raise UsageError("pairwise needs --Q")
    m = _int_arg(args, "m", 1)
    psi = _psi_from(args)
    target = _target_from(args, m)
    cfg = ExperimentConfig(Q=q_max, psi=psi, target=target, m=m, **_given(
        mode=_resolve(args, "mode"), precision=_int_arg(args, "precision"),
        workers=_int_arg(args, "workers"), exact_q_cap=_int_arg(args, "exact-cap"),
    ))
    start = time.perf_counter()
    report = pairwise_overlap_sum(cfg)
    elapsed = time.perf_counter() - start
    row = {
        "Q": q_max,
        "m": m,
        "pair_sum": _fmt(report.pair_sum),
        "measure_sum": _fmt(report.measure_sum),
        "ratio": _fmt(report.ratio),
    }
    _emit(list(row), [row], report.config, args.format, args.out)
    print(
        f"pairs closed_form={report.closed_form_pairs} merge={report.merge_pairs} "
        f"seconds={elapsed:.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_msum(args) -> int:
    ladder_text = _resolve(args, "ladder")
    if ladder_text:
        try:
            ladder = [int(v) for v in str(ladder_text).split(",")]
        except ValueError as exc:
            raise UsageError(f"bad ladder {_shown(ladder_text)}") from exc
    else:
        q_max = _int_arg(args, "Q")
        if q_max is None:
            raise UsageError("msum needs --Q or --ladder")
        ladder = [q_max]
    m = _int_arg(args, "m", 1)
    psi = _psi_from(args)
    rows = []
    for entry in main_term_sum_check(psi, m, ladder):
        rows.append(
            {
                "Q": entry.Q,
                "m": entry.m,
                "pair_sum": format_rational(entry.pair_sum),
                "rhs": format_rational(entry.rhs),
                "ratio": _fmt(entry.ratio),
            }
        )
    config = {"subcommand": "msum", "ladder": ",".join(str(v) for v in ladder),
              "m": m, "psi": psi.describe()}
    _emit(["Q", "m", "pair_sum", "rhs", "ratio"], rows, config, args.format, args.out)
    return EXIT_OK


def _cmd_phigcd(args) -> int:
    limit = _int_arg(args, "limit")
    m = _int_arg(args, "m", 3)
    if limit is not None:
        ratio = phigcd_ratio_scan(limit, m)
        rows = [{"limit": limit, "m": m, "max_ratio": format_rational(ratio)}]
        config = {"subcommand": "phigcd", "limit": limit, "m": m}
        _emit(["limit", "m", "max_ratio"], rows, config, args.format, args.out)
        return EXIT_OK
    q = _int_arg(args, "q")
    if q is None:
        raise UsageError("phigcd needs --q or --limit")
    brute, divisor_form = phigcd_sum(q, m)
    rows = [{"q": q, "m": m, "brute": brute, "divisor_form": divisor_form,
             "ok": brute == divisor_form}]
    config = {"subcommand": "phigcd", "q": q, "m": m}
    _emit(["q", "m", "brute", "divisor_form", "ok"], rows, config, args.format, args.out)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    primes_text = _resolve(args, "primes")
    if primes_text:
        try:
            blocks = [
                [int(p) for p in chunk.split(",") if p]
                for chunk in str(primes_text).split(";")
            ]
        except ValueError as exc:
            raise UsageError(f"bad primes spec {_shown(primes_text)}") from exc
        inst = instance_from_prime_blocks(blocks)
        config = {"subcommand": "counterexample", "primes": primes_text}
    else:
        blocks_n = _int_arg(args, "blocks", 1)
        eps_text = _resolve(args, "eps")
        eps = None
        if eps_text:
            eps = tuple(parse_rational(v) for v in str(eps_text).split(","))
            if len(eps) == 1 and blocks_n > 1:
                eps = eps * blocks_n
        mode = _resolve(args, "mode", "product")
        schedule = BlockSchedule(blocks=blocks_n, eps=eps, mode=mode)
        inst = build_counterexample(schedule)
        config = {
            "subcommand": "counterexample", "blocks": blocks_n,
            "eps": eps_text or "2^-j", "mode": mode,
        }
    if args.verify:
        # A block too large to build is a resource cap, refused before any
        # block is checked or the instance is saved.
        for block in inst.blocks:
            _refuse_unbuildable(block)
    if args.save:
        inst.save(args.save)
    rows = []
    all_ok = True
    for block in inst.blocks:
        row = {
            "block": block.index,
            "primes": " ".join(str(p) for p in block.primes),
            "P": block.P,
            "density": format_rational(block.density),
            "divisors": block.divisor_count,
        }
        if args.verify:
            contained = verify_containment(inst, block.index)
            measured = verify_block_measure(inst, block.index)
            row.update(
                containment=contained,
                measure=format_rational(measured.measure),
                bound=format_rational(measured.bound),
                ok=contained and measured.ok,
            )
            all_ok = all_ok and contained and measured.ok
        rows.append(row)
    summary_columns = list(rows[0])
    config["divergence_sum"] = format_rational(
        divergence_partial_sum(inst, len(inst.blocks))
    )
    _emit(summary_columns, rows, config, args.format, args.out)
    if args.verify and not all_ok:
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def _cmd_sift(args) -> int:
    x = _rational_arg(args, "X")
    y = _rational_arg(args, "Y")
    n = _int_arg(args, "n")
    if x is None or y is None or n is None:
        raise UsageError("sift needs --X, --Y and --n")
    if n < 1 or x > y:
        raise UsageError("sift needs n >= 1 and X <= Y")
    count, main, error = sifted_interval_count(x, y, n)
    omega = len(factorize(n))
    rows = [{
        "X": format_rational(x), "Y": format_rational(y), "n": n,
        "count": count, "main_term": format_rational(main),
        "error": format_rational(error), "bound": 2**omega,
    }]
    config = {"subcommand": "sift", "n": n}
    _emit(list(rows[0]), rows, config, args.format, args.out)
    return EXIT_OK


def _cmd_equidist(args) -> int:
    q_max = _int_arg(args, "Q")
    if q_max is None:
        raise UsageError("equidist needs --Q")
    psi = _psi_from(args)
    target = _target_from(args, 1)
    windows_text = _resolve(args, "windows", "0:1/2")
    windows = []
    for chunk in str(windows_text).split(","):
        try:
            lo, hi = chunk.split(":")
            windows.append((parse_rational(lo), parse_rational(hi)))
        except ValueError as exc:
            raise UsageError(f"bad window {_shown(chunk)}; want lo:hi") from exc
    cfg = ExperimentConfig(Q=q_max, psi=psi, target=target, m=1)
    scan = equidistribution_scan(cfg, windows)
    rows = []
    if args.per_q:
        for entry in scan["rows"]:
            rows.append({
                "q": entry.q,
                "window": f"{format_rational(entry.window[0])}:{format_rational(entry.window[1])}",
                "ratio": format_rational(entry.ratio),
                "deviation": format_rational(entry.deviation),
            })
        columns = ["q", "window", "ratio", "deviation"]
    else:
        for window, deviation in scan["max_deviation"].items():
            rows.append({
                "window": f"{format_rational(window[0])}:{format_rational(window[1])}",
                "max_deviation": format_rational(deviation),
            })
        columns = ["window", "max_deviation"]
    config = {"subcommand": "equidist", "Q": q_max, "psi": psi.describe(),
              "y": target.describe(), "windows": windows_text}
    _emit(columns, rows, config, args.format, args.out)
    return EXIT_OK


def _cmd_mc(args) -> int:
    range_text = _resolve(args, "q-range")
    if not range_text:
        raise UsageError("mc needs --q-range (comma list or lo..hi)")
    text = str(range_text)
    try:
        if ".." in text:
            lo, hi = text.split("..")
            q_range = range(int(lo), int(hi) + 1)
        else:
            q_range = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad q-range {_shown(text)}") from exc
    if not q_range:
        raise UsageError(f"empty q-range {_shown(text)}")
    # A range's ends are its extremes; min() and max() would walk all of it.
    if isinstance(q_range, range):
        q_low, q_top = q_range[0], q_range[-1]
    else:
        q_low, q_top = min(q_range), max(q_range)
    if q_low < 1:
        # Checked here: the config built from q_top would name a --Q never passed.
        raise UsageError("q_range must contain integers >= 1")
    m = _int_arg(args, "m", 1)
    samples = _int_arg(args, "samples", 10_000)
    psi = _psi_from(args)
    target = _target_from(args, m)
    cfg = ExperimentConfig(
        Q=q_top + 1, psi=psi, target=target, m=m, **_given(seed=_int_arg(args, "seed")),
    )
    report = mc_coverage(cfg, q_range, samples, mode="grid" if args.grid else "random")
    row = {
        "samples": report.samples,
        "hits": report.hits,
        "estimate": repr(report.estimate),
        "wilson95_lo": repr(report.wilson95[0]),
        "wilson95_hi": repr(report.wilson95[1]),
        "wilson3s_lo": repr(report.wilson3s[0]),
        "wilson3s_hi": repr(report.wilson3s[1]),
    }
    _emit(list(row), [row], report.config | {
        "subcommand": "mc", "q_range": text, "seed": report.seed, "mode": report.mode,
    }, args.format, args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    if any(name not in SUITES for name in names):
        raise UsageError(f"unknown suite {_shown(args.suite)}; choose from {', '.join(SUITES)} or all")
    failures = 0
    for name in names:
        start = time.perf_counter()
        result = SUITES[name]()
        sys.stdout.write(result.line() + "\n")
        sys.stdout.flush()
        # Timing goes to stderr so the report stream stays byte-identical.
        print(f"suite={name} seconds={time.perf_counter() - start:.3f}", file=sys.stderr)
        if not result.ok:
            failures += 1
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


# -- parser ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torusapprox",
        description="Exact experiments with coprime approximation sets on the circle.",
    )
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", help="write the report here instead of stdout")

    p = sub.add_parser("measure", help="exact measure of one approximation set")
    p.add_argument("--q", help="denominator, integer >= 1")
    p.add_argument("--psi", help="weight spec: const:p/q | pow:c,alpha[,raw] | table:path | div3 | cx:path")
    p.add_argument("--y", help="target spec: zero | const:p/q[,..] | table:path | cx:path")
    common(p)
    p.set_defaults(handler=_cmd_measure)

    p = sub.add_parser("overlap", help="exact pair overlap with every bound term")
    p.add_argument("--q")
    p.add_argument("--r")
    p.add_argument("--psi")
    p.add_argument("--y")
    common(p)
    p.set_defaults(handler=_cmd_overlap)

    p = sub.add_parser("pairwise", help="pairwise overlap sum and quasi-independence ratio")
    p.add_argument("--Q")
    p.add_argument("--m")
    p.add_argument("--psi")
    p.add_argument("--y")
    p.add_argument("--mode", choices=("exact", "enclosure"))
    p.add_argument("--precision")
    p.add_argument("--workers")
    p.add_argument("--exact-cap")
    common(p)
    p.set_defaults(handler=_cmd_pairwise)

    p = sub.add_parser("msum", help="main-term pairwise sum against the squared weight sum")
    p.add_argument("--Q")
    p.add_argument("--ladder", help="comma list of Q values")
    p.add_argument("--m")
    p.add_argument("--psi")
    common(p)
    p.set_defaults(handler=_cmd_msum)

    p = sub.add_parser("phigcd", help="totient-of-gcd sums: single q or ratio scan")
    p.add_argument("--q")
    p.add_argument("--m")
    p.add_argument("--limit", help="scan q <= limit and report the max ratio")
    common(p)
    p.set_defaults(handler=_cmd_phigcd)

    p = sub.add_parser("counterexample", help="build and verify the block construction")
    p.add_argument("--blocks")
    p.add_argument("--eps", help="comma list of per-block eps values (default 2^-j)")
    p.add_argument("--mode", choices=("product", "prime"))
    p.add_argument("--primes", help="explicit blocks: semicolon-separated comma lists")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--save", help="write the instance JSON here")
    common(p)
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("sift", help="exact count of integers coprime to n in [X, Y]")
    p.add_argument("--X")
    p.add_argument("--Y")
    p.add_argument("--n")
    common(p)
    p.set_defaults(handler=_cmd_sift)

    p = sub.add_parser("equidist", help="exact window ratios per q")
    p.add_argument("--Q")
    p.add_argument("--psi")
    p.add_argument("--y")
    p.add_argument("--windows", help="comma list lo:hi of rational windows")
    p.add_argument("--per-q", action="store_true", dest="per_q")
    common(p)
    p.set_defaults(handler=_cmd_equidist)

    p = sub.add_parser("mc", help="Monte Carlo coverage of a union of approximation sets")
    p.add_argument("--q-range", dest="q_range", help="comma list or lo..hi")
    p.add_argument("--m")
    p.add_argument("--samples")
    p.add_argument("--seed")
    p.add_argument("--psi")
    p.add_argument("--y")
    p.add_argument("--grid", action="store_true")
    common(p)
    p.set_defaults(handler=_cmd_mc)

    p = sub.add_parser("verify", help="run the exhaustive verification suites")
    p.add_argument("--suite", default="all",
                   help="suite name or 'all': " + ", ".join(SUITES))
    p.set_defaults(handler=_cmd_verify)

    return parser


def _join_negative_rationals(argv: list[str]) -> list[str]:
    """Pass "--X -7/3" on as "--X=-7/3": argparse reads "-7/3" as a flag."""
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if flag.startswith("--") and "=" not in flag and re.fullmatch(r"-\d+/\d+", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def run(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args, extra = parser.parse_known_args(_join_negative_rationals(argv))
        except SystemExit:  # --help printed; a parse error raises UsageError
            return EXIT_OK
        if extra:
            raise UsageError(f"unrecognized arguments: {_shown(' '.join(extra))}")
        args.config_values = _load_config_file(args.config) if args.config else {}
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # Bad input rejected anywhere below the CLI (UsageError included).
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except IdentityError as exc:
        print(f"identity failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
