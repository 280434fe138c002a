"""Command-line front end: classification, chain generation, table rendering.

Exit codes: 0 success, 1 failed verification, 2 malformed input or usage
error.  All numeric cells use the 3-decimal half-up rendering; undefined
ratio cells print as N/A.  Output sticks to ASCII.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .chains import Chain, GrowthRow, MethodTag, growth_table, validate_chain
from .intset import (
    _RANGE_LIMIT,
    CONWAY_SET,
    _class_from_counts,
    diffset,
    format_density,
    format_set_literal,
    parse_set_literal,
    profile,
    sumset,
)
from .method1 import generate_chain_m1, search_moduli
from .method2 import generate_chain_m2
from .method3 import generate_chain_m3
from .nathanson import build_base, k_min, size_bound

MARKDOWN_HEADER = (
    "Set",
    "Sums",
    "Diffs",
    "Cardinality",
    "Diameter",
    "Card. Ratio",
    "Diam. Ratio",
    "Density",
)
CSV_HEADER = "set,sumcard,diffcard,card,diameter,card_ratio,diam_ratio,density"
# `verify` refuses chain files longer than this before parsing them.
_FILE_BYTES_LIMIT = 1 << 28


def _cells(row: GrowthRow) -> tuple[str, ...]:
    return (
        f"A{row.index}",
        str(row.sum_card),
        str(row.diff_card),
        str(row.card),
        str(row.diameter),
        format_density(row.card_ratio),
        format_density(row.diam_ratio),
        format_density(row.density),
    )


def render_table(rows: Sequence[GrowthRow], format: str = "markdown") -> str:
    """Render growth rows as a markdown or csv table (deterministic bytes)."""
    if not rows:
        raise ValueError("no rows to render")
    body = [_cells(r) for r in rows]
    if format == "csv":
        return "\n".join([CSV_HEADER] + [",".join(cells) for cells in body]) + "\n"
    if format != "markdown":
        raise ValueError(f"unknown table format {format!r}")
    widths = [
        max(len(MARKDOWN_HEADER[c]), *(len(cells[c]) for cells in body))
        for c in range(len(MARKDOWN_HEADER))
    ]
    def line(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return "\n".join([line(MARKDOWN_HEADER), rule] + [line(cells) for cells in body]) + "\n"


def chain_to_text(chain: Chain, n: int | None = None) -> str:
    """Line-oriented chain file: a header, then one set literal per line."""
    head = f"# method={chain.method_tag.value} base={format_set_literal(chain.sets[0])}"
    if n is not None:
        head += f" n={n}"
    return "\n".join([head] + [format_set_literal(s) for s in chain.sets]) + "\n"


def parse_chain_text(text: str) -> Chain:
    """Parse the chain file format written by chain_to_text; each set line is
    read by parse_set_literal, as a --set literal is."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# method="):
        raise ValueError("chain file must start with a '# method=...' header")
    fields = dict(
        token.split("=", 1) for token in lines[0][2:].split() if "=" in token
    )
    try:
        tag = MethodTag(fields["method"])
    except (KeyError, ValueError):
        raise ValueError(f"unknown method tag in header: {lines[0]!r}") from None
    sets = []
    total = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise ValueError(f"line {lineno}: empty set line in chain file")
        sets.append(parse_set_literal(line))
        total += len(sets[-1])
        if total > _RANGE_LIMIT:
            raise ValueError(f"line {lineno}: chain file holds more than {_RANGE_LIMIT} values")
    if not sets:
        raise ValueError("chain file holds no sets")
    return Chain.from_sets(sets, tag)


def paper_chain(number: int) -> Chain:
    """The example chain behind each published growth table."""
    if number == 1:
        return generate_chain_m1(CONWAY_SET, 17, 7)
    if number == 2:
        return generate_chain_m2(build_base(4, 1, 3), 7)
    if number == 3:
        return generate_chain_m3(9)
    raise ValueError(f"no table numbered {number}")


def _cmd_classify(args: argparse.Namespace) -> int:
    A = parse_set_literal(args.set)
    sums, diffs = len(sumset(A)), len(diffset(A))
    print(f"{_class_from_counts(sums, diffs).value} {sums} {diffs}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    p = profile(parse_set_literal(args.set))
    print(
        f"card={p.card} sumcard={p.sum_card} diffcard={p.diff_card} "
        f"diameter={p.diameter} density={format_density(p.density)}"
    )
    return 0


def _cmd_search_modulus(args: argparse.Namespace) -> int:
    moduli = search_moduli(parse_set_literal(args.set))
    if moduli:
        print(" ".join(str(n) for n in moduli))
    return 0


def _build_chain(args: argparse.Namespace) -> tuple[Chain, int | None]:
    if args.method == 1:
        if args.set is None or args.n is None:
            raise ValueError("method 1 needs --set and --n")
        return generate_chain_m1(parse_set_literal(args.set), args.n, args.steps), args.n
    if args.method == 2:
        if None in (args.m, args.d, args.k):
            raise ValueError("method 2 needs --m, --d and --k")
        return generate_chain_m2(build_base(args.m, args.d, args.k), args.steps), None
    return generate_chain_m3(args.steps), None


def _cmd_chain(args: argparse.Namespace) -> int:
    chain, n = _build_chain(args)
    text = chain_to_text(chain, n)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        print(text, end="")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    with open(args.file, "rb") as f:
        data = f.read(_FILE_BYTES_LIMIT + 1)
    if len(data) > _FILE_BYTES_LIMIT:
        raise ValueError(f"chain file is longer than {_FILE_BYTES_LIMIT} bytes")
    chain = parse_chain_text(data.decode())
    report = validate_chain(chain)
    if report.ok:
        print(f"ok {len(chain)} sets")
        return 0
    for index, check, witness in report.failures:
        print(f"FAIL index={index} check={check} witness={witness}")
    return 1


def _cmd_table(args: argparse.Namespace) -> int:
    rows = growth_table(paper_chain(args.paper))
    print(render_table(rows, args.format), end="")
    return 0


def _cmd_scan_params(args: argparse.Namespace) -> int:
    if args.method != 2:
        raise ValueError("only --method 2 supports parameter scanning")
    if args.max_k < 3:
        return 0  # k_min is 3 or 4, so no base qualifies, whatever --max-m says
    # The sweep is refused before any base is built, as a long chain is.
    grid, total = [], 0
    for m in range(4, args.max_m + 1, 4):
        for d in (m // 4, 3 * m // 4):
            for k in range(k_min(m, d), args.max_k + 1):
                total += size_bound(m, k)
                if total > _RANGE_LIMIT:
                    raise ValueError(f"bases to scan could hold more than {_RANGE_LIMIT} elements")
                grid.append((m, d, k))
    for m, d, k in grid:
        # The one-member chain profiles A1 once and self-checks it.
        p = generate_chain_m2(build_base(m, d, k), 1).profiles[0]
        print(
            f"m={m} d={d} k={k} sumcard={p.sum_card} "
            f"diffcard={p.diff_card} card={p.card} diameter={p.diameter}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altchains",
        description="Sumset/difference-set arithmetic and alternating MSTD/MDTS chains.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="classify a set as MSTD, MDTS or Balanced")
    p.add_argument("--set", required=True, help="set literal, e.g. 0,2,3,4,7,11,12,14")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("profile", help="cardinality/diameter/density profile of a set")
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("search-modulus", help="admissible copy moduli for a base set")
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_search_modulus)

    p = sub.add_parser("chain", help="generate an alternating chain")
    p.add_argument("--method", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--set", help="base set literal (method 1)")
    p.add_argument("--n", type=int, help="copy modulus (method 1)")
    p.add_argument("--m", type=int, help="interval length (method 2)")
    p.add_argument("--d", type=int, help="punctured element (method 2)")
    p.add_argument("--k", type=int, help="ladder length (method 2)")
    p.add_argument("--out", help="write the chain file here instead of stdout")
    p.set_defaults(handler=_cmd_chain)

    p = sub.add_parser("verify", help="validate a stored chain file")
    p.add_argument("--file", required=True)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("table", help="regenerate a published growth table")
    p.add_argument("--paper", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("scan-params", help="sweep valid construction parameters")
    p.add_argument("--method", type=int, required=True)
    p.add_argument("--max-m", type=int, default=16)
    p.add_argument("--max-k", type=int, default=6)
    p.set_defaults(handler=_cmd_scan_params)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # argparse takes a separate `-7,0,5` for an option, so it is joined to its --set or --se.
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):
        opt, value = argv[i - 1], argv[i]
        if len(opt) > 2 and "--set".startswith(opt) and value[:1] == "-" and value[1:2].isdecimal():
            argv[i - 1 : i + 1] = [f"{opt}={value}"]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
