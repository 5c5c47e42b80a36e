import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from conftest import PEAK_KIB, MATRIX_PARAMS, admissible_descriptors
import lcft
from lcft import brauer, checks, cli, reciprocity as rc
from lcft.extension import (PRECISION_CAP, GaloisElement,
                            TameAbelianExtension)
from lcft.ffield import FieldTower
from lcft.series import LaurentSeries


def _write(tmp_path, text, name="ext.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


UNRAM = "p=3\nt=1\nf=2\ne=1\nu0=1\nprecision=32\n"
C9 = "p=2\nt=2\nf=3\ne=3\nu0=g\nprecision=32\nseed=5\nsamples=15\n"


def test_validate_ok(tmp_path, capsys):
    code = cli.main(["validate", _write(tmp_path, UNRAM)])
    out = capsys.readouterr().out
    assert code == 0
    assert "degree 2" in out


def test_validate_wild_exits_one(tmp_path, capsys):
    cfg = _write(tmp_path, "p=2\nt=1\nf=1\ne=2\nu0=1\n")
    assert cli.main(["validate", cfg]) == 1
    assert "wild" in capsys.readouterr().err


def test_field_size_over_the_cap_exits_one(tmp_path, capsys):
    # 2^21 is checked against the cap before any primality test of p
    cfg = _write(tmp_path, "p=2097152\nt=1\nf=1\ne=1\nu0=1\n")
    assert cli.main(["validate", cfg]) == 1
    assert "exceeds the cap" in capsys.readouterr().err


def test_precision_over_the_cap_exits_one(tmp_path, capsys, monkeypatch):
    cfg = _write(tmp_path, UNRAM)
    assert cli.main(["validate", cfg, "--precision", str(PRECISION_CAP)]) == 0
    capsys.readouterr()

    def refuse(self, *args):
        raise AssertionError("built before the caps were checked")

    # checked with the other caps, before any series is built (a window of
    # precision=1000000000 would take about 8 GB) and before the tower's
    # tables are (seconds and tens of MB at the size cap)
    monkeypatch.setattr(LaurentSeries, "__init__", refuse)
    monkeypatch.setattr(FieldTower, "_build_tables", refuse)
    assert cli.main(["validate", cfg, "--precision",
                     str(PRECISION_CAP + 1)]) == 1
    err = capsys.readouterr().err
    assert f"precision {PRECISION_CAP + 1} exceeds the cap" in err


def test_comment_and_blank_lines_are_skipped(tmp_path, capsys):
    cfg = _write(tmp_path, "# a descriptor\n\n" + UNRAM.replace(
        "e=1\n", "e=1   # unramified\n\n"))
    assert cli.main(["validate", cfg]) == 0
    assert "degree 2" in capsys.readouterr().out


@pytest.mark.parametrize("text, message", [
    ("p=3\nt=1\nf=2\nu0=1\n", "missing descriptor key"),
    ("p=2\nt=2\nf=3\ne=3\nu0=1,0,1,1,1,1,1\n", "longer than the degree"),
    ("p=3\nt=1\nf=2\ne=1\nu0=0,0\n", "u0 must be a unit"),
    ("p=3\nt=1\nf=2\ne=0\nu0=1\n", "must be positive"),
    # u0 text in none of the four forms names them and quotes the text
    *((f"p=3\nt=1\nf=2\ne=1\nu0={u0}\n", f"field element {u0!r} is none of "
       "g^k, g, an integer or a comma-separated coefficient list")
      for u0 in ("abc", "g^x", "1,2,x", "",
                 # int() reads these as g^10, 3 and 13: only ASCII digits
                 # and a sign make an integer
                 "g^1_0", "\u0663", "1_3,0")),
])
def test_bad_descriptor_exits_one(tmp_path, capsys, text, message):
    assert cli.main(["validate", _write(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert "invalid extension" in err and message in err


def test_missing_config_exits_three(capsys):
    assert cli.main(["galois", "/does/not/exist.cfg"]) == 3
    assert "config error" in capsys.readouterr().err


def test_malformed_config_exits_three(tmp_path, capsys):
    cfg = _write(tmp_path, "p 3\n")
    assert cli.main(["validate", cfg]) == 3


@pytest.mark.parametrize("text, line, message", [
    # a misspelt key used to run silently at the default precision
    (UNRAM + "precison=8\n", 7, "unknown key 'precison'"),
    ("p=3\nt=1\nf=2\nE=1\nu0=1\n", 4, "unknown key 'E'"),
    # a repeated key used to keep its last value silently
    ("p=3\nt=1\nf=2\ne=1\ne=2\nu0=1\n", 5, "key 'e' given twice"),
    (UNRAM + "# twice\nprecision = 8\n", 8, "key 'precision' given twice"),
])
def test_bad_config_key_exits_three(tmp_path, capsys, text, line, message):
    cfg = _write(tmp_path, text)
    assert cli.main(["validate", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"{cfg}:{line}: {message}" in err
    with pytest.raises(ValueError, match=f":{line}: "):
        cli.parse_config(cfg)


def test_every_config_key_is_accepted(tmp_path):
    cfg = _write(tmp_path, C9 + "character=2\n")
    assert sorted(cli.parse_config(cfg)) == sorted(cli.CONFIG_KEYS)


C9_SHORT = "p=2\nt=2\nf=3\ne=3\nu0=g\nprecision=8\n"
CAP2 = "p=2\nt=10\nf=2\ne=31\nu0=g\nprecision=8\n"
E58 = "p=59\nt=1\nf=1\ne=58\nu0=g\nprecision=8\n"
E63 = "p=2\nt=6\nf=1\ne=63\nu0=1\nprecision=8\n"


# the console commands under a second: config text, arguments after the
# config, and the exit code
@pytest.mark.parametrize("text, args, code", [
    (C9_SHORT, ["check", "--samples", "3"], 0),
    # the character path: closed-form characters through the entry point
    (C9_SHORT, ["hasse"], 0),
    (C9_SHORT, ["hasse", "--json"], 0),
    (C9_SHORT, ["galois", "--json"], 0),
    # the norm-group presentation through the entry point
    (C9_SHORT, ["norm-group", "--json"], 0),
    # the two u0 text forms no workload uses: a generator power and a
    # coefficient list
    (C9_SHORT.replace("u0=g", "u0=g^5"), ["galois", "--json"], 0),
    (C9_SHORT.replace("u0=g", "u0=1,0,1"), ["galois", "--json"], 0),
    # a coefficient list longer than the degree is an invalid descriptor
    ("p=2\nt=2\nf=3\ne=3\nu0=1,0,1,1,1,1,1\n", ["validate"], 1),
    # malformed arguments are a parse failure, not a property failure
    (C9_SHORT, ["check", "--samples", "abc"], 3),
    # field tables at the size cap: the p = 2 walk
    (CAP2, ["validate"], 0),
    # the checks on the cap tower's array-backed Zech table
    (CAP2, ["check", "--samples", "3"], 0),
    # the congruence search at q = 2^10: its powers cut to the 1-unit
    # exponent
    (CAP2, ["recip", "--json"], 0),
    # the p = 2 lane walk at an odd degree near the cap: 1024 lanes of 512
    # steps, one slot more than the 2^19 - 1 powers
    ("p=2\nt=19\nf=1\ne=1\nu0=1\n", ["validate"], 0),
    # the largest crossed product of the benchmark (degree 58)
    (E58, ["check", "--samples", "3"], 0),
    (E58, ["hasse"], 0),
    # the norm's stages with a zero between the ones of a prime:
    # 58 = 2 * 29 and 29 = 0b11101, 1 + 7 products
    (E58, ["norm-group", "--json"], 0),
    # the most norm stages (63 = 3 * 3 * 7, 2 + 2 + 4 products), the
    # largest degree of the benchmark
    (E63, ["check", "--samples", "3"], 0),
    # the Hasse-invariant table at the largest degree of the benchmark
    (E63, ["hasse"], 0),
    # a crossed-product slot whose window cancels is O(alpha^N), not an
    # empty slot (sample 82 of seed 1803)
    ("p=5\nt=1\nf=1\ne=4\nu0=1\nprecision=32\n",
     ["check", "--seed", "1803", "--samples", "100"], 0),
    # the square kernel at precision 32: odd p, twisted by zeta of order 6
    ("p=7\nt=1\nf=2\ne=6\nu0=1\nprecision=32\n",
     ["check", "--samples", "100"], 0),
    # characteristic-2 powers at precision 32: every squaring a spread
    (C9_SHORT.replace("precision=8", "precision=32"),
     ["check", "--samples", "100"], 0),
    # the norm on shrinking log windows: e = 15 = 3 * 5, 3 twisted
    # squares and 2 y-steps, on 8 and then 3 terms, on norms at
    # valuations -3..3
    ("p=2\nt=4\nf=1\ne=15\nu0=1\nprecision=8\n",
     ["check", "--samples", "200", "--seed", "1803"], 0),
    # the cap descriptors with a real Frobenius: walks down to valuation
    # -f, so a != 0 on the closed form
    ("p=2\nt=10\nf=2\ne=1\nu0=1\nprecision=8\n",
     ["check", "--samples", "10"], 0),
    ("p=2\nt=1\nf=20\ne=1\nu0=1\nprecision=8\n",
     ["check", "--samples", "10"], 0),
    # the reciprocity table as text
    (C9_SHORT, ["recip"], 0),
])
def test_console_command_table(tmp_path, capsys, text, args, code):
    argv = [args[0], _write(tmp_path, text)] + args[1:]
    try:
        got = cli.main(argv)
    except SystemExit as exc:       # argparse exits from inside main
        got = exc.code
    out = capsys.readouterr().out
    assert got == code, (argv, out)
    if code == 0 and "--json" in args:
        json.loads(out)


# One console command in its own process. It prints to stderr, last, how
# far the process's peak RSS (VmHWM, in KiB) rose from after the import,
# as _BUILD_PEAK_PROBE in test_ffield.py does, and exits with the
# command's code. The import's own growth depends on the Python version.
_CAP_PROBE = PEAK_KIB + """
import sys

from lcft import cli
before = peak_kib()
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(peak_kib() - before, file=sys.stderr)
sys.exit(code)
"""


# The console commands at the caps, each a subprocess under a wall-time
# and a peak-memory bound: config text, arguments after the config, exit
# code, seconds and MB. Over three to six runs each on a shared 2-vCPU
# host (Python 3.11), wall times spread by up to 1.7x between runs (the
# range is in each comment); every bound is at least 3.4x the slowest
# run and under the minute that CI once gave each row. The peak's growth
# after the import is in each comment: three runs on Python 3.11.7, which
# agreed within 0.2 MB, then two each on 3.10.13, 3.12.1 and 3.13.0,
# which read up to 0.9 MB higher. A tower of about 2^20 entries keeps a
# 4 MB Zech array, a prime field that size a 4 MB log array beside it,
# and the 3^12 tower a 2.1 MB Zech array. Each bound at those towers sits
# 1.0-1.6 MB above the highest reading, less than a second such table
# would add.
CAP_ROWS = [
    # field tables at the size cap: the odd-p walk (1.1-1.5 s, 4.0-5.0 MB)
    pytest.param("p=3\nt=12\nf=1\ne=2\nu0=1\n", ["validate"], 0, 10, 6,
                 id="cap3-validate"),
    # the prime cap's set-up alone, which bigp-check's budget would hide:
    # the closed-form walk of F_p (0.38-0.51 s over six runs, 8.2-9.0 MB;
    # the digit walk it replaced took 0.71-0.99 s)
    pytest.param("p=1048573\nt=1\nf=1\ne=4\nu0=1\n", ["validate"], 0, 2,
                 10.5, id="bigp-validate"),
    # the same tower over the precision cap, refused before its tables are
    # built (0.09-0.16 s, 0.1-0.9 MB); building them first took 1.2-1.9 s
    # and about 4 MB
    pytest.param("p=3\nt=12\nf=1\ne=2\nu0=1\n",
                 ["validate", "--precision", "1000000000"], 1, 1, 2,
                 id="cap3-validate-precision-over-cap"),
    # the totally-ramified laws at the cap: all 2^20 - 1 units of k*
    # walked on logs (2.7-4.4 s, 6.0-6.9 MB)
    pytest.param("p=2\nt=20\nf=1\ne=3\nu0=g\nprecision=8\n",
                 ["check", "--samples", "10"], 0, 20, 8.5, id="cap20-check"),
    # the root's longest exponent: p > 32 terms, so p^s = p = 1048573, the
    # largest prime under the cap (3.4-5.3 s, 8.2-9.0 MB)
    pytest.param("p=1048573\nt=1\nf=1\ne=4\nu0=1\nprecision=32\n",
                 ["check"], 0, 25, 10.5, id="bigp-check"),
    # the unramified law at the cap: 4 x (2^20 - 1) classes of k* walked
    # on logs (10.9-14.7 s, 6.0-6.9 MB)
    pytest.param("p=2\nt=20\nf=1\ne=1\nu0=1\nprecision=8\n",
                 ["check", "--samples", "10"], 0, 50, 8.5,
                 id="unram20-check"),
    # the precision cap, on a small tower where the windows are all the
    # work (0.6-1.0 s, 0.2-1.0 MB) and on the prime cap, the slowest
    # descriptor per term (10.5-15.0 s, 8.2-9.1 MB)
    pytest.param("p=5\nt=1\nf=1\ne=4\nu0=1\n",
                 ["check", "--precision", str(PRECISION_CAP)], 0, 10, 2,
                 id="e4-check-precision-cap"),
    pytest.param("p=1048573\nt=1\nf=1\ne=4\nu0=1\n",
                 ["check", "--precision", str(PRECISION_CAP)], 0, 55, 10.5,
                 id="bigp-check-precision-cap"),
    # the degree cap e*f = 64 with the size and precision caps at once:
    # 1048193 = 1 mod 64, the largest such prime under the size cap
    # (3.2-3.5 s over five runs, 8.4-9.5 MB)
    pytest.param("p=1048193\nt=1\nf=1\ne=64\nu0=g\n",
                 ["check", "--precision", str(PRECISION_CAP), "--samples",
                  "10"], 0, 15, 11, id="deg64-all-caps-check"),
    # the degree cap on a small tower, where 64 divides 17^4 - 1
    # (0.76-0.90 s over five runs, 0.7-1.6 MB)
    pytest.param("p=17\nt=4\nf=1\ne=64\nu0=g\nprecision=32\n", ["check"], 0,
                 5, 2.5, id="deg64-check"),
]


@pytest.mark.skipif(not os.environ.get("LCFT_CAP_ROWS"),
                    reason="about a minute: set LCFT_CAP_ROWS=1 to run")
@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc")
@pytest.mark.parametrize("text, args, code, wall_s, peak_mb", CAP_ROWS)
def test_cap_rows_in_time_and_memory(tmp_path, text, args, code, wall_s,
                                     peak_mb):
    argv = [args[0], _write(tmp_path, text)] + args[1:]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(lcft.__file__)))
    start = time.monotonic()
    child = subprocess.run([sys.executable, "-c", _CAP_PROBE, *argv],
                           env=env, capture_output=True, text=True,
                           timeout=2 * wall_s)
    elapsed = time.monotonic() - start
    assert child.returncode == code, child.stderr
    growth_mb = int(child.stderr.split()[-1]) / 1024
    assert elapsed < wall_s, f"{argv} took {elapsed:.1f} s"
    assert growth_mb < peak_mb, f"peak RSS grew by {growth_mb:.1f} MB"


# SHA-256 of stdout, taken when every element view read a stored
# exponential table. Elements print through the coefficient view: at the
# 2^20 tower only those of F_2, on the prime field F_59 every one.
@pytest.mark.parametrize("text, command, digest", [
    (CAP2, "galois",
     "c2e77c0b5af0eb005325caef176be9da807dc31edd0fa1d49f45ff7f362f3c14"),
    (CAP2, "recip",
     "57a4407d3ec8f6fc819dba3e890955eb04217b82c47e8aa4d601d4a76afe1f32"),
    (E58, "galois",
     "b8fedcfe4a916833e1a9fa10c4ff972513fc148d382e97f298c0368bc736819d"),
    (E58, "recip",
     "a62fa543aefdd7d74014bbb958586e2ce43d402c5b2e86f87fb9181797a4a20a"),
], ids=["2^20-galois", "2^20-recip", "59-galois", "59-recip"])
def test_json_output_is_pinned(tmp_path, capsys, text, command, digest):
    assert cli.main([command, _write(tmp_path, text), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The 89 descriptors of the benchmark's three workloads, each with its
# precision and sample count: the acceptance matrix at 32 terms and 100
# samples, the three of high degree and the 78 admissible ones with
# p^(t*f) <= 16 at 8 terms and 10 samples.
WORKLOAD_DESCRIPTORS = [
    *((d, 32, 100) for d in MATRIX_PARAMS.values()),
    *((d, 8, 10) for d in [(2, 6, 1, 63, "1"), (59, 1, 1, 58, "g"),
                           (2, 10, 2, 31, "g")]),
    *((d, 8, 10) for d in admissible_descriptors(16)),
]
DIGEST_COMMANDS = (["validate"], ["galois"], ["recip"], ["norm-group"],
                   ["hasse"], ["check", "--seed", "1"])


def test_json_output_over_the_workload_descriptors_is_pinned(tmp_path,
                                                             capsys):
    # one SHA-256 over the --json output of six commands on every
    # workload descriptor, 534 runs in process: a change that keeps the
    # output byte-identical keeps this digest
    assert len(WORKLOAD_DESCRIPTORS) == 89
    digest = hashlib.sha256()
    for (p, t, f, e, u0), precision, samples in WORKLOAD_DESCRIPTORS:
        cfg = _write(tmp_path, f"p={p}\nt={t}\nf={f}\ne={e}\nu0={u0}\n"
                               f"precision={precision}\n")
        for command, *flags in DIGEST_COMMANDS:
            code = cli.main([command, cfg, "--json", "--samples",
                             str(samples), *flags])
            assert code == 0, (command, p, t, f, e, u0)
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == \
        "b53a3e2a71066a18f6398cf57c16e2e4adda33fedd3ac41f35dc44dd135f498e"


def test_recip_table_contains_frobenius_row(tmp_path, capsys):
    code = cli.main(["recip", _write(tmp_path, UNRAM), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    rows = [r for r in payload["table"] if r["valuation"] == 1]
    assert {"valuation": 1, "unit": "1", "galois": {"a": 1, "c": "1"},
            "search_agrees": True} in rows
    assert all(r["search_agrees"] for r in payload["table"])


def test_recip_with_the_search_sign_dropped_exits_two(tmp_path, capsys,
                                                      monkeypatch):
    # f = 1: the representatives sit at valuation 0, where the sign is 1,
    # so only criterion 1's v + f and v + 2f reach the dropped sign
    monkeypatch.setattr(rc, "_sign_constant", lambda ext: ext.tower.one())
    cfg = _write(tmp_path, "p=7\nt=1\nf=1\ne=2\nu0=1\nprecision=8\n")
    assert cli.main(["recip", cfg, "--json"]) == cli.EXIT_PROPERTY
    table = json.loads(capsys.readouterr().out)["table"]
    assert len(table) == 2
    assert not any(row["search_agrees"] for row in table)
    assert cli.main(["recip", cfg]) == cli.EXIT_PROPERTY
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2
    assert all(row.endswith("<- MISMATCH") for row in rows), rows


def test_descriptor_round_trip_through_json(tmp_path, capsys):
    code = cli.main(["validate", _write(tmp_path, C9), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    again = cli.build_extension(payload["descriptor"])
    assert again.descriptor() == payload["descriptor"]


def test_norm_group_json(tmp_path, capsys):
    code = cli.main(["norm-group", _write(tmp_path, C9), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariant_factors"] == [9]
    assert payload["quotient_order"] == 9
    assert len(payload["coset_representatives"]) == 9


def test_galois_command(tmp_path, capsys):
    code = cli.main(["galois", _write(tmp_path, C9), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 9
    assert payload["structure"] == [9]
    assert len(payload["ramification"]["0"]) == 3
    assert len(payload["ramification"]["1"]) == 1


def test_hasse_command(tmp_path, capsys):
    code = cli.main(["hasse", _write(tmp_path, C9), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["character_order"] == 9
    assert len(payload["table"]) == 9
    invariants = {(row["invariant_numerator"], row["invariant_denominator"])
                  for row in payload["table"]}
    assert (0, 1) in invariants
    assert any(den == 9 for _, den in invariants)


def test_hasse_evaluates_each_representative_once(tmp_path, capsys,
                                                  monkeypatch):
    hasse_invariant = brauer.hasse_invariant
    seen = []

    def counted(chi, b):
        seen.append(b)
        return hasse_invariant(chi, b)

    monkeypatch.setattr(brauer, "hasse_invariant", counted)
    assert cli.main(["hasse", _write(tmp_path, C9), "--json"]) == 0
    table = json.loads(capsys.readouterr().out)["table"]
    # one call per row, in the table's order
    assert [(b.valuation, str(b.unit)) for b in seen] == \
        [(row["b"]["valuation"], row["b"]["unit"]) for row in table]
    assert len(seen) == 9


@pytest.mark.parametrize("index", ["-1", "-2", "9"])
def test_hasse_character_out_of_range_exits_three(tmp_path, capsys, index):
    # C9 has 9 characters, so only indices 0 .. 8 are valid
    code = cli.main(["hasse", _write(tmp_path, C9 + f"character={index}\n")])
    assert code == 3
    assert "error: character index" in capsys.readouterr().err


def test_check_passes_and_embeds_seed(tmp_path, capsys):
    code = cli.main(["check", _write(tmp_path, C9), "--json",
                     "--samples", "10"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["passed"] is True
    assert payload["seed"] == 5
    assert len(payload["results"]) == 15


def test_check_text_header_names_the_descriptor_seed_and_samples(
        tmp_path, capsys):
    # the header alone reproduces the run: p, t, f, e, u0 and precision,
    # the seed and the sample count
    assert cli.main(["check", _write(tmp_path, C9), "--samples", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("property suite on p=2, t=2, f=3, e=3, u0=g, "
                        "precision=32 (seed=5, samples=10):")
    assert lines[-1] == "ALL CHECKS PASSED"
    assert len(lines) == 17


def test_check_text_names_each_law_that_did_not_run(tmp_path, capsys):
    # C9 has e = 3 and f = 3, so neither the unramified law nor the totally
    # ramified laws apply; the text says so, where --json keeps the
    # passing result with its "skipped: " detail
    assert cli.main(["check", _write(tmp_path, C9), "--samples", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("  SKIP ")] == [
        "  SKIP totally-ramified-laws: f > 1",
        "  SKIP unramified-law: e > 1"]
    assert sum(line.startswith("  PASS ") for line in lines) == 13
    assert cli.main(["check", _write(tmp_path, C9), "--samples", "10",
                     "--json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [(r["name"], r["passed"], r["detail"]) for r in results
            if r["detail"].startswith("skipped")] == [
        ("unramified-law", True, "skipped: e > 1"),
        ("totally-ramified-laws", True, "skipped: f > 1")]


def test_check_deterministic_output(tmp_path, capsys):
    cfg = _write(tmp_path, UNRAM)
    cli.main(["check", cfg, "--json", "--samples", "10", "--seed", "3"])
    first = capsys.readouterr().out
    cli.main(["check", cfg, "--json", "--samples", "10", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_check_failure_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        checks, "run_checks",
        lambda ext, samples=100, seed=0: [
            checks.CheckResult("forced", False, "injected failure")])
    monkeypatch.setattr(cli.checks, "run_checks", checks.run_checks)
    assert cli.main(["check", _write(tmp_path, UNRAM)]) == 2
    assert "FAIL forced" in capsys.readouterr().out


RAM_E4 = "p=5\nt=1\nf=1\ne=4\nu0=1\nprecision=8\n"


@pytest.mark.parametrize("command", ["check", "recip"])
def test_a_search_that_raises_exits_two(tmp_path, capsys, monkeypatch,
                                        command):
    # with no probe table the search finds no match and raises: a property
    # failure, not an invalid descriptor. ``recip`` reports it on one
    # stderr line; ``check`` reports it as the FAIL line of each check
    # that searches, and runs the other checks
    monkeypatch.setattr(rc, "_probe_table", lambda ext: (
        ext.uniformizer(), ext.constant(ext.tower.generator()), {}))
    cfg = _write(tmp_path, RAM_E4)
    assert cli.main([command, cfg, "--samples", "10"]) == cli.EXIT_PROPERTY
    out, err = capsys.readouterr()
    message = "ArithmeticError: congruence search found 0 matches"
    if command == "recip":
        assert err.startswith(f"property failure: {message}"), err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        return
    assert err == ""
    failed = [line.strip() for line in out.splitlines()
              if line.startswith("  FAIL ")]
    assert [line.split(":")[0] for line in failed] == [
        "FAIL oracle-agreement", "FAIL uniformizer-independence"]
    assert all(f": raised {message}" in line for line in failed), failed
    # e = 4 > 1, so the unramified law did not run
    assert out.count("  PASS ") == 12 and out.endswith("SUITE FAILED\n")
    assert out.count("  SKIP ") == 1
    assert "  SKIP unramified-law: e > 1\n" in out


@pytest.mark.parametrize("command", ["check", "recip"])
def test_a_value_error_from_the_library_exits_two(tmp_path, capsys,
                                                  monkeypatch, command):
    # a closed form one step off in c builds a pair outside the group:
    # GaloisElement's own ValueError, a property failure, not bad input
    closed_form = rc.reciprocity_map

    def shifted(ext, b):
        g = closed_form(ext, b)
        return GaloisElement(ext, g.a, g.c_log + 1)

    monkeypatch.setattr(rc, "reciprocity_map", shifted)
    cfg = _write(tmp_path, "p=7\nt=1\nf=2\ne=6\nu0=1\nprecision=8\n")
    assert cli.main([command, cfg, "--samples", "10"]) == cli.EXIT_PROPERTY
    out, err = capsys.readouterr()
    message = ("ValueError: pair fails the membership constraint "
               "c^e = u0^(q^a - 1)")
    if command == "recip":
        assert err == f"property failure: {message}\n"
        return
    # each check that reaches the closed form here fails on its own line
    assert err == ""
    assert [line.strip() for line in out.splitlines()
            if line.startswith("  FAIL ")] == [
        f"FAIL {name}: raised {message}"
        for name in ("hasse-layer", "kernel-and-bijection", "oracle-agreement",
                     "reciprocity-homomorphism", "reciprocity-power-law")]


def test_a_failed_assertion_exits_two(tmp_path, capsys, monkeypatch):
    def broken(ext, samples, seed):
        raise AssertionError("sigma^f must land in inertia")

    monkeypatch.setattr(checks, "run_checks", broken)
    assert cli.main(["check", _write(tmp_path, RAM_E4)]) == cli.EXIT_PROPERTY
    assert capsys.readouterr().err == (
        "property failure: AssertionError: sigma^f must land in inertia\n")


@pytest.mark.parametrize("precision", ["0", "-1"])
def test_nonpositive_precision_exits_one(tmp_path, capsys, precision):
    cfg = _write(tmp_path, UNRAM)
    assert cli.main(["validate", cfg, "--precision", precision]) == 1
    assert "invalid extension" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["-1", "0"])
def test_nonpositive_samples_flag_exits_three(tmp_path, capsys, samples):
    cfg = _write(tmp_path, UNRAM)
    assert cli.main(["check", cfg, "--samples", samples]) == 3
    assert "error: samples must be positive" in capsys.readouterr().err


def test_nonpositive_samples_config_exits_three(tmp_path, capsys):
    cfg = _write(tmp_path, UNRAM + "samples=-3\n")
    assert cli.main(["check", cfg]) == 3
    assert "error: samples must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "p=x", "t=1.5", "f=", "e=three", "precision=x",
    "seed=x", "samples=1.5", "character=g",
    # int() reads these as 13, 10 and 32
    "p=1_3", "seed=1_0", "precision=\u06632"])
def test_non_integer_config_setting_exits_three(tmp_path, capsys, line):
    # the bad line replaces its key's line of UNRAM or comes last, and it
    # is named before any command runs
    key, value = line.split("=")
    lines = [k for k in UNRAM.splitlines() if not k.startswith(key + "=")]
    cfg = _write(tmp_path, "\n".join(lines + [line]) + "\n")
    assert cli.main(["check", cfg]) == cli.EXIT_IO
    assert capsys.readouterr().err == (
        f"config error: {cfg}:{len(lines) + 1}: key {key!r} must be an "
        f"integer, got {value!r}\n")


@pytest.mark.parametrize("flag, value", [
    ("--seed", "1_0"), ("--samples", "1_0"), ("--precision", "\u0663"),
    ("--seed", "x")])
def test_non_integer_flag_exits_three(tmp_path, capsys, flag, value):
    # int() reads 1_0 as 10 and the Arabic-Indic three as 3
    cfg = _write(tmp_path, UNRAM)
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", cfg, flag, value])
    assert exc.value.code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert err.endswith(f"argument {flag}: invalid int value: {value!r}\n")


def test_descriptor_text_round_trip(tmp_path):
    ext = TameAbelianExtension.from_parameters(2, 2, 3, 3, "g", 16)
    cfg = _write(tmp_path, "".join(
        f"{k}={v}\n" for k, v in ext.descriptor().items()))
    raw = cli.parse_config(cfg)
    again = cli.build_extension(raw)
    assert again.descriptor() == ext.descriptor()


@pytest.mark.parametrize("argv", [
    ["check", "CFG", "--samples", "abc"],
    ["check", "CFG", "--seed", "1.5"],
    ["check", "CFG", "--precision", "x"],
    ["frobnicate", "CFG"],
    ["check"],
])
def test_malformed_arguments_exit_three(tmp_path, capsys, argv):
    # argparse's own exit code, 2, is the property-suite failure's
    cfg = _write(tmp_path, UNRAM)
    with pytest.raises(SystemExit) as exc:
        cli.main([cfg if a == "CFG" else a for a in argv])
    assert exc.value.code == cli.EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: lcft" in capsys.readouterr().out


def test_closed_stdout_exits_three_without_a_traceback(tmp_path):
    # the reader is gone before the child writes, as in
    # ``lcft galois c9.cfg --json | head -2``
    cfg = _write(tmp_path, C9)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(lcft.__file__)))
    with open(tmp_path / "stderr", "w") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "lcft.cli", "galois", cfg, "--json"],
            stdout=subprocess.PIPE, stderr=err, env=env)
        child.stdout.close()
        code = child.wait(timeout=120)
    stderr = (tmp_path / "stderr").read_text()
    assert code == cli.EXIT_IO, stderr
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr
