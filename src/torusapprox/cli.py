"""Command-line front end.

Every subcommand echoes its resolved configuration into the report header,
emits exact values as "p/q" strings (Monte Carlo estimates are the only
decimals), and keeps diagnostics on stderr.  Exit statuses: 0 success,
1 verification failure (a failed suite or check, or an exact identity that
failed to hold, reported as one line), 2 usage error (any ValueError or
OSError, reported as one line), 3 budget refusal.

Each flag that takes a value declares its default and its conversion:
integers and rationals are converted by argparse `type=` functions whose
errors show the value by `_shown`.  A `--config` file is flat `key=value`
text whose keys are the long flag names of the chosen subcommand; its lines
become that subcommand's defaults and the command line is parsed again, so
a config value is converted exactly like the flag and a flag beats its
config line.  A key that names no flag of the subcommand taking a value
(the boolean flags included), or a value outside a flag's choices, is a
usage error.

The flags each subcommand needs and those that exclude each other are two
tables, `_NEEDS` and `_CONFLICTS`, checked once after parsing, so a config
line meets a need or makes a conflict like its flag.  List flags are split
by `_listed`, not `type=`, so report headers echo their text as given.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .approx import ApproxFunction, TargetSequence, approx_set_measure
from .counterexample import (
    _refuse_unbuildable,
    _write_atomic,
    build_counterexample,
    divergence_partial_sum,
    instance_from_prime_blocks,
    verify_block_measure,
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


def _report(kind: str, exc: Exception) -> None:
    """Print one refusal or failure line: the kind and the message, with
    each run of more than 60 digits shown by its first 20 and its length,
    so that no number echoed back makes the line as long as itself."""
    text = re.sub(r"\d{61,}", lambda run: f"{run[0][:20]}...({len(run[0])} digits)", str(exc))
    print(f"{kind}: {text}", file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise `UsageError`, so a bad command
    line is reported as one `usage error:` line instead of a usage block.
    Flags must be spelled out: an abbreviation such as "--ps" is refused,
    not read as the one flag it prefixes, so a new flag never changes what
    an old command line means.  Subparsers are built by this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)

    def _check_value(self, action, value):
        # argparse's own message quotes the whole rejected value.
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {_shown(value)} (choose from {choices})"
            )

    def take_config(self, values: dict[str, str]) -> None:
        """Make a config file's values this subcommand's defaults, checked
        against the flag's choices, which argparse skips for defaults."""
        for key, value in values.items():
            action = self._option_string_actions.get("--" + key)
            if action is None or action.nargs == 0:
                raise UsageError(
                    f"config key {_shown(key)} names no flag of {self.prog} that takes a value"
                )
            try:
                self._check_value(action, value)
            except argparse.ArgumentError as exc:
                raise UsageError(f"config key {_shown(key)}: {exc.message}") from exc
            self.set_defaults(**{action.dest: value})


def _converter(convert, wants: str):
    """An argparse `type=` function: convert, or a usage error showing the value."""
    def converted(text: str):
        try:
            return convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"wants {wants}, got {_shown(text)}") from None
    return converted


def _modulus(text: str) -> int:
    """An integer >= 1, refused by the parser so that the error names the flag."""
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def _path(text: str) -> str:
    """A file path; an empty value is given, not absent, so it is refused."""
    if not text:
        raise ValueError(text)
    return text


_INT = _converter(int, "an integer")
_PATH = _converter(_path, "a file path")
_MODULUS = _converter(_modulus, "an integer >= 1")
_RATIONAL = _converter(parse_rational, "a rational p/q")


def _spec_error(kind: str, spec, exc: Exception) -> UsageError:
    """A bad spec, shown once by `_shown`, and the parser's reason less its quote of it."""
    reason = str(exc).replace(repr(spec), "").rstrip(": ")
    return UsageError(f"bad {kind} spec {_shown(spec)}: {reason[:60]}")


def _given(**options) -> dict:
    """The options a flag or config line set; `ExperimentConfig` owns their defaults."""
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


def _emit(columns, rows, config, fmt: str, out_path):
    """Render rows either as CSV with a commented config header or as JSON.

    A config holds what the report depends on, so no execution setting
    such as the worker count: `pairwise` prints that on stderr itself.
    """
    config = config | {"fixture_version": baselines_version()}
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
    if out_path is not None:
        _write_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, tuple):
        return f"[{format_rational(value[0])};{format_rational(value[1])}]"
    return format_rational(value)


def _psi_from(args) -> ApproxFunction:
    try:
        return ApproxFunction.parse(args.psi)
    except (ValueError, OSError) as exc:
        raise _spec_error("psi", args.psi, exc) from exc


def _target_from(args, m: int) -> TargetSequence:
    try:
        return TargetSequence.parse(args.y, m)
    except (ValueError, OSError) as exc:
        raise _spec_error("target", args.y, exc) from exc


def _listed(text: str, convert, what: str, sep: str = ",", count: int | None = None) -> list:
    """A list flag's items, each converted: a usage error showing the text
    when an item does not convert or the items are not `count` many."""
    try:
        items = [convert(item) for item in text.split(sep)]
        if count in (None, len(items)):
            return items
    except ValueError:
        pass
    raise UsageError(f"bad {what} {_shown(text)}")


# -- subcommand handlers -------------------------------------------------------------


def _cmd_measure(args) -> int:
    q = args.q
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
    q, r = args.q, args.r
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
    q_max, m = args.Q, args.m
    psi = _psi_from(args)
    target = _target_from(args, m)
    cfg = ExperimentConfig(Q=q_max, psi=psi, target=target, m=m, **_given(
        mode=args.mode, precision=args.precision, workers=args.workers,
    ))
    if args.exact_cap is not None:
        cfg.exact_q_cap = args.exact_cap
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
    # Nothing reads a seed; the key stays so that no report byte moves
    # (CHANGES.md, the FOUND line on unread header keys).
    config = {"Q": q_max, "m": m, "psi": psi.describe(), "target": target.describe(),
              "mode": cfg.mode, "precision": cfg.precision if cfg.mode == "enclosure" else None,
              "seed": 0}
    _emit(list(row), [row], config, args.format, args.out)
    print(
        f"workers={report.workers}\n"
        f"pairs closed_form={report.closed_form_pairs} merge={report.merge_pairs} "
        f"seconds={elapsed:.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_msum(args) -> int:
    ladder = [args.Q] if args.ladder is None else _listed(args.ladder, int, "ladder")
    m = args.m
    psi = _psi_from(args)
    rows = [{"Q": entry.Q, "m": m, "pair_sum": format_rational(entry.pair_sum),
             "rhs": format_rational(entry.rhs), "ratio": _fmt(entry.ratio)}
            for entry in main_term_sum_check(psi, m, ladder)]
    config = {"subcommand": "msum", "ladder": ",".join(str(v) for v in ladder),
              "m": m, "psi": psi.describe()}
    _emit(["Q", "m", "pair_sum", "rhs", "ratio"], rows, config, args.format, args.out)
    return EXIT_OK


def _cmd_phigcd(args) -> int:
    limit, m, q = args.limit, args.m, args.q
    if limit is not None:
        ratio = phigcd_ratio_scan(limit, m)
        rows = [{"limit": limit, "m": m, "max_ratio": format_rational(ratio)}]
        config = {"subcommand": "phigcd", "limit": limit, "m": m}
        _emit(["limit", "m", "max_ratio"], rows, config, args.format, args.out)
        return EXIT_OK
    brute, divisor_form = phigcd_sum(q, m)
    rows = [{"q": q, "m": m, "brute": brute, "divisor_form": divisor_form,
             "ok": brute == divisor_form}]
    config = {"subcommand": "phigcd", "q": q, "m": m}
    _emit(["q", "m", "brute", "divisor_form", "ok"], rows, config, args.format, args.out)
    return EXIT_OK


def _cmd_counterexample(args) -> int:
    primes_text = args.primes
    if primes_text is not None:
        blocks = _listed(
            primes_text, lambda chunk: [int(p) for p in chunk.split(",") if p],
            "primes spec", sep=";",
        )
        inst = instance_from_prime_blocks(blocks)
        config = {"subcommand": "counterexample", "primes": primes_text}
    else:
        blocks_n = 1 if args.blocks is None else args.blocks
        eps_text, mode = args.eps, args.mode or "product"
        eps = None
        if eps_text is not None:
            eps = tuple(_listed(eps_text, parse_rational, "eps"))
            if len(eps) == 1 and blocks_n > 1:
                eps = eps * blocks_n
        inst = build_counterexample(blocks_n, eps, mode)
        config = {
            "subcommand": "counterexample", "blocks": blocks_n,
            "eps": eps_text or "2^-j", "mode": mode,
        }
    if args.verify:
        # A block too large to build is a resource cap, refused before any
        # block is checked or the instance is saved.
        for block in inst.blocks:
            _refuse_unbuildable(block)
    if args.save is not None:
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
            measured = verify_block_measure(inst, block.index)
            row.update(
                containment=measured.contained,
                measure=format_rational(measured.measure),
                bound=format_rational(measured.bound),
                ok=measured.ok,
            )
            all_ok = all_ok and measured.ok
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
    x, y, n = args.X, args.Y, args.n
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
    q_max = args.Q
    psi = _psi_from(args)
    target = _target_from(args, 1)
    windows_text = args.windows
    windows = [_listed(chunk, parse_rational, "window", sep=":", count=2)
               for chunk in windows_text.split(",")]
    scan = equidistribution_scan(q_max, psi, target, windows)
    if args.per_q:
        rows = [{
            "q": entry.q,
            "window": ":".join(map(format_rational, entry.window)),
            "ratio": format_rational(entry.ratio),
            "deviation": format_rational(entry.deviation),
        } for entry in scan]
        columns = ["q", "window", "ratio", "deviation"]
    else:
        # One key per window (the scan refused repeats), None until a q is measured.
        worst = dict.fromkeys(map(tuple, windows))
        for entry in scan:
            seen = worst[entry.window]
            worst[entry.window] = entry.deviation if seen is None else max(seen, entry.deviation)
        rows = [{"window": ":".join(map(format_rational, window)),
                 "max_deviation": _fmt(deviation)}
                for window, deviation in worst.items()]
        columns = ["window", "max_deviation"]
    config = {"subcommand": "equidist", "Q": q_max, "psi": psi.describe(),
              "y": target.describe(), "windows": windows_text}
    _emit(columns, rows, config, args.format, args.out)
    return EXIT_OK


def _cmd_mc(args) -> int:
    text = args.q_range
    if ".." in text:
        lo, q_top = _listed(text, int, "q-range", sep="..", count=2)
        q_range = range(lo, q_top + 1)
    else:
        q_range = _listed(text, int, "q-range")
        q_top = max(q_range)
    if not q_range:
        raise UsageError(f"empty q-range {_shown(text)}")
    m = args.m
    psi = _psi_from(args)
    target = _target_from(args, m)
    start = time.perf_counter()
    mode = "grid" if args.grid else "random"
    report = mc_coverage(psi, target, q_range, args.samples, seed=args.seed, mode=mode)
    elapsed = time.perf_counter() - start
    row = {
        "samples": args.samples,
        "hits": report.hits,
        "estimate": repr(report.estimate),
        "wilson95_lo": repr(report.wilson95[0]),
        "wilson95_hi": repr(report.wilson95[1]),
        "wilson3s_lo": repr(report.wilson3s[0]),
        "wilson3s_hi": repr(report.wilson3s[1]),
    }
    # Nothing reads Q or precision (mc has neither flag); the keys stay so that
    # no report byte moves (CHANGES.md, the FOUND line on unread header keys).
    config = {"subcommand": "mc", "q_range": text, "Q": q_top + 1, "precision": None,
              "m": m, "psi": psi.describe(), "target": target.describe(),
              "mode": mode, "seed": args.seed}
    _emit(list(row), [row], config, args.format, args.out)
    print(f"tables={report.tables} entries={report.entries} seconds={elapsed:.3f}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
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


# The flags each subcommand needs, and the pairs of its flags that exclude
# each other, by destination.  A need is one flag or a tuple of
# alternatives.  None of these flags has a parser default, so a flag is
# given when it is not None, from the command line or a config line: a
# config line only sets a default, so argparse's `required=` would refuse a
# need that the config file meets.  `_check_tables` reads both after parsing.
_NEEDS = {
    "measure": ("q", "psi"),
    "overlap": ("q", "r", "psi"),
    "pairwise": ("Q", "psi"),
    "msum": (("Q", "ladder"), "psi"),
    "phigcd": (("q", "limit"),),
    "sift": ("X", "Y", "n"),
    "equidist": ("Q", "psi"),
    "mc": ("q_range", "psi"),
}
_CONFLICTS = {
    "msum": (("Q", "ladder"),),
    "phigcd": (("q", "limit"),),
    "counterexample": (("primes", "blocks"), ("primes", "eps"), ("primes", "mode")),
}


def _check_tables(args, parser: _Parser) -> None:
    """Refuse a missing need or two flags that exclude each other, each
    named as spelled on the command line."""
    spelled = {action.dest: action.option_strings[0][2:] for action in parser._actions}
    given = {dest for dest in spelled if getattr(args, dest, None) is not None}
    for need in _NEEDS.get(args.subcommand, ()):
        alternatives = (need,) if isinstance(need, str) else need
        if given.isdisjoint(alternatives):
            flags = " or --".join(spelled[dest] for dest in alternatives)
            raise UsageError(f"{args.subcommand} needs --{flags}")
    for first, second in _CONFLICTS.get(args.subcommand, ()):
        if {first, second} <= given:
            raise UsageError(f"{args.subcommand} takes one of --{spelled[first]} "
                             f"and --{spelled[second]}, not both")


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Parser]]:
    """The parser and its subcommand parsers by name."""
    parser = _Parser(
        prog="torusapprox",
        description="Exact experiments with coprime approximation sets on the circle.",
    )
    parser.add_argument("--config", type=_PATH, help="flat key=value config file")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    commands: dict[str, _Parser] = {}

    def command(name, handler, summary, report=True):
        p = commands[name] = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        if report:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
            p.add_argument("--out", type=_PATH, help="write the report here instead of stdout")
        return p

    def family(p, target=True):
        p.add_argument("--psi", help="weight spec: const:p/q | pow:c,alpha[,raw] | "
                                     "table:path | div3 | cx:path")
        if target:
            p.add_argument("--y", default="zero",
                           help="target spec: zero | const:p/q[,..] | table:path | cx:path")

    p = command("measure", _cmd_measure, "exact measure of one approximation set")
    p.add_argument("--q", type=_MODULUS, help="denominator, integer >= 1")
    family(p)

    p = command("overlap", _cmd_overlap, "exact pair overlap with every bound term")
    p.add_argument("--q", type=_MODULUS)
    p.add_argument("--r", type=_MODULUS)
    family(p)

    p = command("pairwise", _cmd_pairwise, "pairwise overlap sum and quasi-independence ratio")
    p.add_argument("--Q", type=_INT)
    p.add_argument("--m", type=_INT, default=1)
    family(p)
    p.add_argument("--mode", choices=("exact", "enclosure"))
    p.add_argument("--precision", type=_INT)
    p.add_argument("--workers", type=_INT)
    p.add_argument("--exact-cap", type=_MODULUS)

    p = command("msum", _cmd_msum, "main-term pairwise sum against the squared weight sum")
    p.add_argument("--Q", type=_INT)
    p.add_argument("--ladder", help="comma list of Q values")
    p.add_argument("--m", type=_INT, default=1)
    family(p, target=False)

    p = command("phigcd", _cmd_phigcd, "totient-of-gcd sums: single q or ratio scan")
    p.add_argument("--q", type=_MODULUS)
    p.add_argument("--m", type=_INT, default=3)
    p.add_argument("--limit", type=_INT, help="scan q <= limit and report the max ratio")

    p = command("counterexample", _cmd_counterexample, "build and verify the block construction")
    p.add_argument("--blocks", type=_INT, help="number of blocks (default 1)")
    p.add_argument("--eps", help="comma list of per-block eps values (default 2^-j)")
    p.add_argument("--mode", choices=("product", "prime"), help="block mode (default product)")
    p.add_argument("--primes", help="explicit blocks: semicolon-separated comma lists")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--save", type=_PATH, help="write the instance JSON here")

    p = command("sift", _cmd_sift, "exact count of integers coprime to n in [X, Y]")
    p.add_argument("--X", type=_RATIONAL)
    p.add_argument("--Y", type=_RATIONAL)
    p.add_argument("--n", type=_MODULUS)

    p = command("equidist", _cmd_equidist, "exact window ratios per q")
    p.add_argument("--Q", type=_MODULUS)
    family(p)
    p.add_argument("--windows", default="0:1/2", help="comma list lo:hi of rational windows")
    p.add_argument("--per-q", action="store_true", dest="per_q")

    p = command("mc", _cmd_mc, "Monte Carlo coverage of a union of approximation sets")
    p.add_argument("--q-range", dest="q_range", help="comma list or lo..hi")
    p.add_argument("--m", type=_INT, default=1)
    p.add_argument("--samples", type=_INT, default=10_000)
    p.add_argument("--seed", type=_INT, default=0)
    family(p)
    p.add_argument("--grid", action="store_true")

    p = command("verify", _cmd_verify, "run the exhaustive verification suites", report=False)
    p.add_argument("--suite", default="all", choices=[*SUITES, "all"])

    return parser, commands


def _join_negative_values(argv: list[str]) -> list[str]:
    """Pass "--X -7/3" on as "--X=-7/3", and likewise any value that starts
    with a minus sign and a digit, such as "-3,5" or "-3..5": argparse reads
    those as flags."""
    joined: list[str] = []
    for token in argv:
        flag = joined[-1] if joined else ""
        if flag.startswith("--") and "=" not in flag and re.match(r"-\d", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def run(argv=None) -> int:
    parser, commands = _build_parser()
    argv = _join_negative_values(sys.argv[1:] if argv is None else argv)
    try:
        try:
            args, extra = parser.parse_known_args(argv)
            if args.config is not None:
                commands[args.subcommand].take_config(_load_config_file(args.config))
                args, extra = parser.parse_known_args(argv)
        except SystemExit:  # --help printed; a parse error raises UsageError
            return EXIT_OK
        if extra:
            raise UsageError(f"unrecognized arguments: {_shown(' '.join(extra))}")
        _check_tables(args, commands[args.subcommand])
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # Bad input rejected anywhere below the CLI (UsageError included).
        _report("usage error", exc)
        return EXIT_USAGE
    except BudgetError as exc:
        _report("budget refusal", exc)
        return EXIT_BUDGET
    except IdentityError as exc:
        _report("identity failure", exc)
        return EXIT_VERIFY_FAIL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
