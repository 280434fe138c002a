import importlib
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import altchains.chains
import altchains.cli
import altchains.intset
import altchains.nathanson
from altchains import CONWAY_SET, MethodTag, generate_chain_m1, parse_set_literal
from altchains.cli import (
    chain_to_text,
    main,
    paper_chain,
    parse_chain_text,
    render_table,
)
from altchains.chains import growth_table

TABLE_1_MARKDOWN = """\
| Set | Sums | Diffs | Cardinality | Diameter | Card. Ratio | Diam. Ratio | Density |
|-----|------|-------|-------------|----------|-------------|-------------|---------|
| A1  | 26   | 25    | 8           | 14       | N/A         | N/A         | 0.571   |
| A2  | 30   | 33    | 9           | 17       | 1.125       | 1.214       | 0.529   |
| A3  | 60   | 59    | 16          | 31       | 1.778       | 1.824       | 0.516   |
| A4  | 64   | 67    | 17          | 34       | 1.063       | 1.097       | 0.500   |
| A5  | 94   | 93    | 24          | 48       | 1.412       | 1.412       | 0.500   |
| A6  | 98   | 101   | 25          | 51       | 1.042       | 1.063       | 0.490   |
| A7  | 128  | 127   | 32          | 65       | 1.280       | 1.275       | 0.492   |
"""

TABLE_1_CSV = """\
set,sumcard,diffcard,card,diameter,card_ratio,diam_ratio,density
A1,26,25,8,14,N/A,N/A,0.571
A2,30,33,9,17,1.125,1.214,0.529
A3,60,59,16,31,1.778,1.824,0.516
A4,64,67,17,34,1.063,1.097,0.500
A5,94,93,24,48,1.412,1.412,0.500
A6,98,101,25,51,1.042,1.063,0.490
A7,128,127,32,65,1.280,1.275,0.492
"""

TABLE_2_CSV = """\
set,sumcard,diffcard,card,diameter,card_ratio,diam_ratio,density
A1,32,31,10,16,N/A,N/A,0.625
A2,36,37,11,20,1.100,1.250,0.550
A3,40,39,12,24,1.091,1.200,0.500
A4,44,45,13,28,1.083,1.167,0.464
A5,48,47,14,32,1.077,1.143,0.438
A6,52,53,15,36,1.071,1.125,0.417
A7,56,55,16,40,1.067,1.111,0.400
"""

TABLE_3_CSV = """\
set,sumcard,diffcard,card,diameter,card_ratio,diam_ratio,density
A1,98,97,23,56,N/A,N/A,0.411
A2,102,103,24,60,1.043,1.071,0.400
A3,106,105,25,64,1.042,1.067,0.391
A4,110,111,26,65,1.040,1.016,0.400
A5,114,113,27,66,1.038,1.015,0.409
A6,118,119,28,70,1.037,1.061,0.400
A7,122,121,29,74,1.036,1.057,0.392
A8,126,127,30,75,1.034,1.014,0.400
A9,130,129,31,76,1.033,1.013,0.408
"""


class TestClassify:
    def test_conway(self, capsys):
        assert main(["classify", "--set", "0,2,3,4,7,11,12,14"]) == 0
        assert capsys.readouterr().out == "MSTD 26 25\n"

    def test_missing_value(self, capsys):
        assert main(["classify", "--set"]) == 2

    def test_bad_literal(self, capsys):
        assert main(["classify", "--set", "1,x,3"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_set(self, capsys):
        assert main(["classify", "--set", ""]) == 0
        assert capsys.readouterr().out == "Balanced 0 0\n"

    def test_one_kernel_pass(self, capsys, monkeypatch):
        calls = []
        for module in (altchains.cli, altchains.intset):
            for name in ("sumset", "diffset"):
                original = getattr(module, name)
                def counted(A, original=original, name=name):
                    calls.append(name)
                    return original(A)
                monkeypatch.setattr(module, name, counted)
        assert main(["classify", "--set", "0,2,3,4,7,11,12,14"]) == 0
        assert capsys.readouterr().out == "MSTD 26 25\n"
        assert sorted(calls) == ["diffset", "sumset"]

    def test_oversized_literal(self, capsys, monkeypatch):
        monkeypatch.setattr(altchains.intset, "_RANGE_LIMIT", 100)
        for literal in ["0..59,100..159", "5,0..99", "0..99,5", ",".join(map(str, range(101)))]:
            assert main(["classify", "--set", literal]) == 2
            assert "holds more than 100 values" in capsys.readouterr().err
        assert main(["classify", "--set", "0..98,5"]) == 0

    def test_wide_set_over_pair_budget(self, capsys):
        literal = ",".join(str(v) for v in range(0, 2049 * 2**25, 2**25))
        assert main(["classify", "--set", literal]) == 2
        assert "|A| = 2049" in capsys.readouterr().err


class TestProfile:
    def test_conway(self, capsys):
        assert main(["profile", "--set", "0,2,3,4,7,11,12,14"]) == 0
        out = capsys.readouterr().out
        assert out == "card=8 sumcard=26 diffcard=25 diameter=14 density=0.571\n"

    def test_singleton(self, capsys):
        assert main(["profile", "--set", "5"]) == 0
        assert "density=N/A" in capsys.readouterr().out

    def test_empty_rejected(self, capsys):
        assert main(["profile", "--set", ""]) == 2

    def test_bitset_work_bounded(self, capsys):
        # 4 * 10**5 shifts of a 4 * 10**5-bit mask pass the 2**36 limit.
        assert main(["profile", "--set", "0..399999"]) == 2
        assert capsys.readouterr() == ("", (
            "error: |A| = 400000 is too large for a set of diameter 399999: "
            "|A|*(diameter+1) exceeds the limit of 68719476736\n"
        ))


class TestSearchModulus:
    def test_conway(self, capsys):
        assert main(["search-modulus", "--set", "0,2,3,4,7,11,12,14"]) == 0
        assert capsys.readouterr().out == "17 18 20\n"

    def test_not_mstd(self, capsys):
        assert main(["search-modulus", "--set", "0,1,2"]) == 2

    def test_wide_sumset_refusal_names_the_sumset(self, capsys):
        # 320 elements hash, but their 2054 sums are past the pair budget.
        literal = ",".join(str(10**6 * j + c) for j in range(40) for c in CONWAY_SET)
        assert main(["search-modulus", "--set", literal]) == 2
        assert capsys.readouterr() == ("", (
            "error: |A+A| = 2054 is too large for a set of diameter above 16777216: "
            "its 4218916 pairs exceed the limit of 4194304\n"
        ))

    def test_dense_base_answers_in_time(self, capsys):
        # build_base(2**14, 2**12, 4): the 73728 moduli in (73728, 147456] by
        # four products; trying each in turn ran for over an hour.
        literal = "0..4095,4097..16384,28672,45056,57345..69631,69633..73728"
        began = time.perf_counter()
        assert main(["search-modulus", "--set", literal]) == 0
        assert time.perf_counter() - began < 10
        assert len(capsys.readouterr().out.split()) == 40957

    def test_long_candidate_loop_refused(self, capsys):
        # {a + 150b + 22500c : a, b, c in the Conway set}: A+A packs, but the
        # products would be 317114 slots wide, so each candidate is tried in
        # turn, and 40053 of them would take minutes.
        literal = ",".join(
            str(a + 150 * b + 22500 * c) for a in CONWAY_SET for b in CONWAY_SET for c in CONWAY_SET
        )
        began = time.perf_counter()
        assert main(["search-modulus", "--set", literal]) == 2
        assert time.perf_counter() - began < 5
        assert capsys.readouterr() == ("", (
            "error: searching 40053 moduli over |A+A| = 17576 and |A-A| = 15625 takes "
            "1370813925 steps, past the limit of 268435456\n"
        ))


class TestTable:
    def test_table1_markdown_golden(self, capsys):
        assert main(["table", "--paper", "1"]) == 0
        assert capsys.readouterr().out == TABLE_1_MARKDOWN

    @pytest.mark.parametrize(
        "paper, golden", [(1, TABLE_1_CSV), (2, TABLE_2_CSV), (3, TABLE_3_CSV)]
    )
    def test_csv_goldens(self, capsys, paper, golden):
        assert main(["table", "--paper", str(paper), "--format", "csv"]) == 0
        assert capsys.readouterr().out == golden

    def test_method1_density_column(self, capsys):
        main(["table", "--paper", "1", "--format", "csv"])
        lines = capsys.readouterr().out.splitlines()[1:]
        densities = ",".join(line.split(",")[-1] for line in lines)
        assert densities == "0.571,0.529,0.516,0.500,0.500,0.490,0.492"

    def test_unknown_paper(self, capsys):
        assert main(["table", "--paper", "4"]) == 2
        with pytest.raises(ValueError, match="no table numbered 4"):
            paper_chain(4)

    def test_rendering_is_deterministic(self, capsys):
        main(["table", "--paper", "3"])
        first = capsys.readouterr().out
        main(["table", "--paper", "3"])
        assert capsys.readouterr().out == first


class TestRenderTable:
    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError, match="no rows to render"):
            render_table([])

    def test_one_row_csv(self, conway):
        rows = growth_table(generate_chain_m1(conway, 17, 1))
        text = render_table(rows, "csv")
        assert text.splitlines() == [
            "set,sumcard,diffcard,card,diameter,card_ratio,diam_ratio,density",
            "A1,26,25,8,14,N/A,N/A,0.571",
        ]

    def test_unknown_format(self, conway):
        rows = growth_table(generate_chain_m1(conway, 17, 1))
        with pytest.raises(ValueError):
            render_table(rows, "html")


class TestChainVerbAndFiles:
    def test_roundtrip_through_file(self, capsys, tmp_path):
        path = tmp_path / "chain.txt"
        args = [
            "chain", "--method", "1", "--set", "0,2,3,4,7,11,12,14",
            "--n", "17", "--steps", "7", "--out", str(path),
        ]
        assert main(args) == 0
        assert main(["verify", "--file", str(path)]) == 0
        assert capsys.readouterr().out == "ok 7 sets\n"

    def test_chain_stdout_parses_back(self, capsys):
        assert main(["chain", "--method", "3", "--steps", "5"]) == 0
        text = capsys.readouterr().out
        chain = parse_chain_text(text)
        assert chain.method_tag is MethodTag.METHOD3
        assert len(chain) == 5

    def test_header_carries_modulus(self, capsys):
        main(["chain", "--method", "1", "--set", "0,2,3,4,7,11,12,14",
              "--n", "17", "--steps", "3"])
        head = capsys.readouterr().out.splitlines()[0]
        assert head == "# method=Method1 base=0,2,3,4,7,11,12,14 n=17"

    def test_method2_chain(self, capsys):
        args = ["chain", "--method", "2", "--m", "4", "--d", "1", "--k", "3",
                "--steps", "3"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "-1,0,2,3,4,7,11,12,14,15"
        assert lines[2] == "-1,0,2,3,4,7,11,12,14,15,19"

    def test_method2_constraint_violation(self, capsys):
        args = ["chain", "--method", "2", "--m", "6", "--d", "1", "--k", "3",
                "--steps", "3"]
        assert main(args) == 2
        assert "divisible by 4" in capsys.readouterr().err

    def test_method1_missing_options(self, capsys):
        assert main(["chain", "--method", "1", "--steps", "3"]) == 2

    def test_method2_missing_options(self, capsys):
        assert main(["chain", "--method", "2", "--m", "4", "--d", "1", "--steps", "3"]) == 2
        assert capsys.readouterr() == ("", "error: method 2 needs --m, --d and --k\n")

    def test_verify_flags_filled_hole(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# method=External base=0,2\n0,2\n0,1,2\n")
        assert main(["verify", "--file", str(path)]) == 1
        out = capsys.readouterr().out
        assert "check=no-filling-in witness=1" in out

    def test_verify_missing_file(self, capsys, tmp_path):
        assert main(["verify", "--file", str(tmp_path / "nope.txt")]) == 2

    def test_verify_malformed_header(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0,2,3\n0,2,3,9\n")
        assert main(["verify", "--file", str(path)]) == 2

    def test_verify_unknown_tag(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# method=Nope base=0\n0,2\n")
        assert main(["verify", "--file", str(path)]) == 2

    def test_verify_header_only(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# method=External base=0,2\n")
        assert main(["verify", "--file", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: chain file holds no sets\n")

    def test_chain_text_format(self, conway):
        chain = generate_chain_m1(conway, 17, 2)
        text = chain_to_text(chain, 17)
        assert text == (
            "# method=Method1 base=0,2,3,4,7,11,12,14 n=17\n"
            "0,2,3,4,7,11,12,14\n"
            "0,2,3,4,7,11,12,14,17\n"
        )

    def test_parse_rejects_blank_set_line(self):
        with pytest.raises(ValueError):
            parse_chain_text("# method=External base=0,2\n0,2\n\n0,1,2\n")

    def test_chain_steps_bounded(self, capsys, monkeypatch):
        # Without the bound this would try to build 10**9 members.
        monkeypatch.setattr(altchains.chains, "_RANGE_LIMIT", 100)
        began = time.perf_counter()
        assert main(["chain", "--method", "3", "--steps", "1000000000"]) == 2
        assert time.perf_counter() - began < 5
        assert capsys.readouterr().err.startswith("error: a chain of 1000000000 steps holds more")

    def test_chain_with_a_refused_member_fails_fast(self, capsys):
        # Member 512 of the Conway set dilated by 10**8 holds 2049 elements,
        # past the hash path's pair limit.  Profiling the 511 members before
        # it would take nearly a minute, so it must be refused first.
        base = ",".join(str(10**8 * a) for a in CONWAY_SET)
        began = time.perf_counter()
        args = ["chain", "--method", "1", "--set", base, "--n", "1700000000", "--steps", "801"]
        assert main(args) == 2
        assert time.perf_counter() - began < 5
        assert capsys.readouterr() == ("", (
            "error: |A| = 2049 is too large for a set of diameter above 16777216: "
            "its 4198401 pairs exceed the limit of 4194304\n"
        ))

    def test_verify_refuses_long_file(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "chain.txt"
        path.write_text(chain_to_text(generate_chain_m1(altchains.CONWAY_SET, 17, 3), 17))
        size = path.stat().st_size
        monkeypatch.setattr(altchains.cli, "_FILE_BYTES_LIMIT", size)
        assert main(["verify", "--file", str(path)]) == 0
        assert capsys.readouterr().out == "ok 3 sets\n"
        monkeypatch.setattr(altchains.cli, "_FILE_BYTES_LIMIT", size - 1)
        assert main(["verify", "--file", str(path)]) == 2
        assert capsys.readouterr().err == f"error: chain file is longer than {size - 1} bytes\n"

    def test_chain_file_values_bounded(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(altchains.cli, "_RANGE_LIMIT", 100)
        # Members of 8, 9, 16, 17, 24, 25 and 32 elements: 99 values through
        # line 7, 131 through line 8.
        text = chain_to_text(generate_chain_m1(altchains.CONWAY_SET, 17, 7), 17)
        assert len(parse_chain_text(text.rsplit("\n", 2)[0] + "\n")) == 6
        with pytest.raises(ValueError, match="line 8: chain file holds more than 100 values"):
            parse_chain_text(text)
        path = tmp_path / "chain.txt"
        path.write_text(text)
        assert main(["verify", "--file", str(path)]) == 2
        assert "line 8: chain file holds more than 100 values" in capsys.readouterr().err

    def test_hostile_rebuilds_refused_before_any(self, capsys, monkeypatch, tmp_path):
        # Every member drops or restores 500 inside the hull, so each is
        # rebuilt from the kernel: 200 members of 10**6 work each.
        full = ",".join(map(str, range(1000)))
        holed = ",".join(str(v) for v in range(1000) if v != 500)
        path = tmp_path / "hostile.txt"
        path.write_text("# method=External base=0\n" + f"{full}\n{holed}\n" * 100)
        monkeypatch.setattr(altchains.chains, "_BITSET_WORK_LIMIT", 10**7)
        began = time.perf_counter()
        assert main(["verify", "--file", str(path)]) == 2
        assert time.perf_counter() - began < 1
        assert capsys.readouterr() == ("", (
            "error: rebuilding the chain's members from the kernel exceeds the work "
            "limit of 10000000\n"
        ))


def _outcome(parse, line):
    """The IntSet that parse gives for line, or the text of its ValueError."""
    try:
        return parse(line)
    except ValueError as exc:
        return str(exc)


# Plain lines, as chain_to_text writes them, with values past the element bound.
_PLAIN_LINES = st.lists(st.integers(-(2**63), 2**63), min_size=1, max_size=20).map(
    lambda vs: ",".join(map(str, vs))
)
# Lines near the plain form: ranges, spaces, signs, stray separators and
# non-ASCII digits, as free text and as plain tokens mixed with near-misses.
_NEAR_PLAIN_LINES = st.one_of(
    st.text(alphabet="0123456789-,.+ _\t\u0663\uff11x", max_size=30),
    st.lists(
        st.one_of(
            st.integers(-(10**6), 10**6).map(str),
            st.sampled_from(["+5", " 3", "4 ", "1..3", "\u0663", "", "1_0", "--1", "-", "5.0"]),
        ),
        min_size=1,
        max_size=6,
    ).map(",".join),
)


# A pattern that matches nothing: patched in for intset._PLAIN, it sends
# every literal through parse_set_literal's token loop.
_NEVER = re.compile(r"(?!)")


def _token_loop(line):
    """_outcome(parse_set_literal, line) with the plain path shut off."""
    with mock.patch.object(altchains.intset, "_PLAIN", _NEVER):
        return _outcome(parse_set_literal, line)


class TestChainLineReader:
    """parse_set_literal, the one reader of --set literals and chain-file
    lines, reads a plain literal at C speed and every other one token by
    token; on every literal its plain path answers as the token loop does."""

    @given(st.one_of(_PLAIN_LINES, _NEAR_PLAIN_LINES))
    @example("0,2,3,4,7,11,12,14")
    @example("7,0,7,-0,007")
    @example("1..3")
    @example(" 0,2")
    @example("0,,2")
    @example("-")
    @example("\u0663,1")
    @example("9" * 5000)
    @example(f"{2**62},0")
    def test_matches_parse_set_literal(self, line):
        assert _outcome(parse_set_literal, line) == _token_loop(line)

    def test_plain_lines_skip_parse_set_literal(self, monkeypatch, capsys):
        # Plain chain-file lines and a plain --set literal never reach the
        # token loop; a range does.
        text = chain_to_text(generate_chain_m1(CONWAY_SET, 17, 7), 17)
        expected = parse_chain_text(text)

        class Refuse:
            def fullmatch(self, token):
                raise AssertionError(f"token {token!r} reached the token loop")

        monkeypatch.setattr(altchains.intset, "_TOKEN", Refuse())
        assert parse_chain_text(text) == expected
        assert main(["classify", "--set", "-7,0,5,8,15"]) == 0
        assert capsys.readouterr().out == "MDTS 14 17\n"
        with pytest.raises(AssertionError, match="reached the token loop"):
            parse_set_literal("0..3")

    def test_value_cap_per_line(self, monkeypatch):
        monkeypatch.setattr(altchains.intset, "_RANGE_LIMIT", 100)
        for n in (99, 100, 101, 150):
            line = ",".join(map(str, range(n)))
            assert _outcome(parse_set_literal, line) == _token_loop(line)
        with pytest.raises(ValueError, match="set literal holds more than 100 values"):
            parse_set_literal(",".join(["0"] * 101))
        with pytest.raises(ValueError, match="set literal holds more than 100 values"):
            parse_chain_text("# method=Method3\n" + ",".join(["0"] * 101) + "\n")


class TestScanParams:
    def test_sweep_to_m8(self, capsys):
        assert main(["scan-params", "--method", "2", "--max-m", "8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # m=4: k in 3..6 for d=1 plus k in 4..6 for d=3; same shape at m=8
        assert len(lines) == 14
        assert lines[0] == "m=4 d=1 k=3 sumcard=32 diffcard=31 card=10 diameter=16"
        assert all(line.startswith("m=") for line in lines)

    def test_only_method2_supported(self, capsys):
        assert main(["scan-params", "--method", "1"]) == 2

    @pytest.mark.parametrize("max_k", ["2", "-5"])
    def test_no_qualifying_k_answers_at_once(self, capsys, max_k):
        # k is at least 3, so no base qualifies, however far --max-m reaches.
        began = time.perf_counter()
        args = ["scan-params", "--method", "2", "--max-m", str(10**12), "--max-k", max_k]
        assert main(args) == 0
        assert time.perf_counter() - began < 1
        assert capsys.readouterr() == ("", "")

    def test_shortest_ladder_still_scanned(self, capsys):
        assert main(["scan-params", "--method", "2", "--max-m", "8", "--max-k", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" sumcard")[0] for line in lines] == ["m=4 d=1 k=3", "m=8 d=2 k=3"]

    def test_sweep_bounded_before_building(self, capsys, monkeypatch):
        # Bases of m = 4 and 8 with k <= 4 could hold 10+11+11 + 18+19+19 = 88
        # elements; m = 12 adds 26 more.
        monkeypatch.setattr(altchains.cli, "_RANGE_LIMIT", 100)
        assert main(["scan-params", "--method", "2", "--max-m", "8", "--max-k", "4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6
        assert main(["scan-params", "--method", "2", "--max-m", "12", "--max-k", "4"]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: bases to scan could hold more than 100 elements\n")

    @pytest.mark.parametrize("mdk", [("400", "100", "3"), ("4", "1", "1000")])
    def test_method2_base_bounded(self, capsys, monkeypatch, mdk):
        monkeypatch.setattr(altchains.nathanson, "_RANGE_LIMIT", 100)
        m, d, k = mdk
        args = ["chain", "--method", "2", "--m", m, "--d", d, "--k", k, "--steps", "3"]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: a base for m={m}, k={k} could hold more than 100 elements\n"
        )


REPO = Path(__file__).resolve().parents[1]

# The benchmark's set-up, twelve times over: drop every altchains module,
# import the package and its CLI afresh (from byte code after the first pass),
# and build and check a chain with it.
SET_UP_SCRIPT = """
import importlib, sys, tempfile
from array import array
with tempfile.TemporaryDirectory() as prefix:
    sys.pycache_prefix = prefix
    sys.dont_write_bytecode = False
    for _ in range(12):
        for name in [n for n in sys.modules if n == "altchains" or n.startswith("altchains.")]:
            del sys.modules[name]
        ac = importlib.import_module("altchains")
        importlib.import_module("altchains.cli")
        A = ac.make_set(array("q", (0, 2, 3, 4, 7, 11, 12, 14)))
        assert ac.validate_chain(ac.generate_chain_m1(A, 17, 11)).ok
"""


class TestPublicSurface:
    """The README example and the module entry point, in a fresh interpreter."""

    def _run(self, args, tmp_path, **env_vars):
        env = {**os.environ, "PYTHONPATH": str(REPO / "src"), **env_vars}
        return subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)

    def test_readme_library_block(self, tmp_path):
        section = (REPO / "README.md").read_text().split("## Library", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        proc = self._run(["-c", block + "import altchains, altchains.cli\n"], tmp_path)
        assert proc.returncode == 0, proc.stderr

    def test_module_entry_point(self, tmp_path):
        proc = self._run(["-m", "altchains.cli", "classify", "--set=0,2,3,4,7,11,12,14"],
                         tmp_path)
        assert (proc.returncode, proc.stdout) == (0, "MSTD 26 25\n"), proc.stderr

    def test_import_leaves_heavy_modules_out(self, tmp_path):
        # -S keeps site's own imports out, so sys.modules shows the package's.
        script = (
            "import sys, altchains.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'pathlib', 'typing'} & set(sys.modules)))\n"
        )
        proc = self._run(["-S", "-c", script], tmp_path)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    @pytest.mark.parametrize("seed", ["0", "1", "12345"])
    def test_repeated_fresh_imports(self, tmp_path, seed):
        proc = self._run(["-c", SET_UP_SCRIPT], tmp_path, PYTHONHASHSEED=seed)
        assert proc.returncode == 0, proc.stderr

    def test_installed_entry_point(self, monkeypatch, capsys):
        # What `pip install .` puts on PATH as `altchains`: the target named
        # under [project.scripts], called with no arguments.
        text = (REPO / "pyproject.toml").read_text()
        scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
        module, attr = re.search(r'^altchains = "([\w.]+):(\w+)"$', scripts, re.M).groups()
        entry = getattr(importlib.import_module(module), attr)
        monkeypatch.setattr(sys, "argv", ["altchains", "classify", "--set", "0,2,3,4,7,11,12,14"])
        assert entry() == 0
        assert capsys.readouterr().out == "MSTD 26 25\n"

    @pytest.mark.parametrize(
        "args, head",
        [
            (["make_tables.py"], "## Method 1 (Conway base, modulus 17)\n| Set | Sums |"),
            (["make_tables.py", "--format", "csv"],
             "## Method 1 (Conway base, modulus 17)\nset,sumcard,"),
            (["density_convergence.py", "--max-probe", "51"],
             "## method 1 (Conway base, modulus 17)\nprobe  11: "),
        ],
        ids=["tables-markdown", "tables-csv", "density-convergence"],
    )
    def test_scripts(self, tmp_path, args, head):
        proc = self._run([str(REPO / "scripts" / args[0]), *args[1:]], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(head), proc.stdout[:200]


class TestUsage:
    def test_no_verb(self):
        assert main([]) == 2

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_verb(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "verb, literal, out, err",
        [
            ("classify", "-7,0,5,8,15", "MDTS 14 17\n", ""),
            ("classify", "-3..-1,5", "MDTS 9 11\n", ""),
            ("profile", "-7,0,5,8,15",
             "card=5 sumcard=14 diffcard=17 diameter=22 density=0.227\n", ""),
            ("search-modulus", "-7,0,5,8,15", "",
             "error: base must contain 0 as its minimum element\n"),
        ],
    )
    def test_negative_set_literal_either_way(self, capsys, verb, literal, out, err):
        # A separate literal that starts with a minus sign is joined to its --set.
        for argv in ([verb, "--set", literal], [verb, f"--set={literal}"]):
            assert main(argv) == (2 if err else 0)
            assert capsys.readouterr() == (out, err)

    @pytest.mark.parametrize("argv", [
        ["classify", "--set", "-h"],
        ["chain", "--method", "1", "--set", "--n", "17", "--steps", "1"],
    ])
    def test_set_before_an_option_still_lacks_its_value(self, capsys, argv):
        assert main(argv) == 2
        assert "argument --set: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--se", "--s"])
    def test_negative_set_literal_after_an_abbreviation(self, capsys, option):
        # argparse accepts abbreviations of --set, so they take a separate literal too.
        assert main(["classify", option, "-7,0,5,8,15"]) == 0
        assert capsys.readouterr() == ("MDTS 14 17\n", "")

    def test_ambiguous_abbreviation_still_refused(self, capsys):
        # In `chain`, --s could be --set or --steps.
        assert main(["chain", "--method", "1", "--s", "-7,0,5,8,15", "--n", "17"]) == 2
        assert "ambiguous option: --s" in capsys.readouterr().err
