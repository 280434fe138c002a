#!/usr/bin/env python3
"""Regenerate the three example growth tables plus the rate summary.

Usage: python scripts/make_tables.py [--format {markdown,csv}]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from altchains import build_base, format_density, growth_rates, growth_table, profile  # noqa: E402
from altchains.cli import paper_chain, render_table  # noqa: E402

TITLES = (
    "Method 1 (Conway base, modulus 17)",
    "Method 2 (m=4, d=1, k=3)",
    "Method 3 (closed form)",
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    args = parser.parse_args()

    named_chains = [(title, paper_chain(number)) for number, title in enumerate(TITLES, start=1)]
    for title, chain in named_chains:
        print(f"## {title}")
        print(render_table(growth_table(chain), args.format), end="")
        card_rate, diam_rate = growth_rates(chain)
        limit = card_rate / diam_rate
        print(f"limiting MSTD density: {format_density(limit)} ({limit})")
        print()

    print("## Growth between consecutive MSTD members")
    print("method   first-member card/diam   card rate   diam rate")
    for title, chain in named_chains:
        p = chain.profiles[0]
        card_rate, diam_rate = growth_rates(chain)
        print(f"{title.split()[1]:<8} {p.card:>5} / {p.diameter:<12} {str(card_rate):>9} {str(diam_rate):>11}")
    # method 2 grows an 8-element, diameter-14 construction into its
    # 10-element first member; both footprints are worth reporting
    base_profile = profile(build_base(4, 1, 3).A)
    print(
        f"(method 2 underlying base: card {base_profile.card}, "
        f"diameter {base_profile.diameter})"
    )


if __name__ == "__main__":
    main()
