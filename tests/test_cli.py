import ast
import contextlib
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
from decimal import Decimal
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import randfca
import randfca.cli
from randfca import (
    CxtDocument,
    ExpectationReport,
    FormalContext,
    InternalError,
    contranomial,
    enumerate_concepts,
    write_cxt,
)
from randfca.cli import main
from randfca.errors import quote
from test_expectation import fraction_loop


@pytest.fixture(scope="module")
def schema():
    text = resources.files("randfca").joinpath("report_schema.json").read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


cached_fraction_loop = functools.cache(fraction_loop)

FINITE_GRID = ["0", "1e-300", "0.5", repr(1 - 2**-30), "1"]

# Each command that takes --p and --q, with its other required options
# but --n.
PROBABILITY_COMMANDS = [
    ["expect"],
    ["gen", "--seed", "1"],
    ["mc", "--samples", "2", "--seed", "1"],
]


class TestExpect:
    def test_prints_known_value(self, capsys):
        code, out, _ = run(capsys, "expect", "--n", "2", "--p", "0.5", "--q", "0.5")
        assert code == 0
        assert "1.25" in out

    def test_json_envelope(self, capsys, schema):
        envelope = run_json(capsys, "expect", "--n", "2", "--p", "0.5", "--q", "0.5", "--json")
        jsonschema.validate(envelope, schema)
        assert envelope["payload"]["value"] == 1.25
        assert envelope["payload"]["terms_evaluated"] == 5

    def test_rational_mode(self, capsys, schema):
        envelope = run_json(
            capsys, "expect", "--n", "2", "--p", "1/2", "--q", "1/2", "--rational", "--json"
        )
        jsonschema.validate(envelope, schema)
        assert envelope["payload"]["exact"] == "5/4"

    def test_json_floats_round_trip(self, capsys):
        from randfca import ModelParams, expected_concepts

        envelope = run_json(capsys, "expect", "--n", "7", "--p", "0.3", "--q", "0.6", "--json")
        exact = expected_concepts(ModelParams(7, 0.3, 0.6))
        assert envelope["payload"]["value"] == exact.value
        assert envelope["payload"]["log_value"] == exact.log_value

    def test_bad_n_is_an_input_error(self, capsys):
        code, _, err = run(capsys, "expect", "--n", "0", "--p", "0.5", "--q", "0.5")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("json_mode", [False, True])
    @pytest.mark.parametrize(
        "n,p,q",
        [
            (1, "1/3", "2/5"),  # the value 1, printed as an integer
            # Numerator and denominator have more than 4300 digits, the
            # interpreter's default limit for converting an int to str.
            (40, "1/3", "999999999999999999/1000000000000000000"),
        ],
    )
    def test_exact_value_is_printed_in_full(self, capsys, json_mode, n, p, q):
        argv = ["expect", "--rational", "--n", str(n), "--p", p, "--q", q]
        code, out, err = run(capsys, *argv, *(["--json"] if json_mode else []))
        assert (code, err) == (0, "")
        if json_mode:
            text = json.loads(out)["payload"]["exact"]
        else:
            (line,) = [line for line in out.splitlines() if line.startswith("exact: ")]
            text = line.removeprefix("exact: ")
        want = cached_fraction_loop(n, Fraction(p), Fraction(q))
        numerator, _, denominator = text.partition("/")
        got = (int(Decimal(numerator)), int(Decimal(denominator or "1")))
        assert got == (want.numerator, want.denominator)
        assert len(denominator) > 4300 or want.denominator == 1

    def test_exact_denominator_over_budget_exits_one_at_once(self, capsys):
        # The common denominator would have about 144000 bits.
        p, q = "123456789012345678/999999999999999989", "999999999999999999/1000000000000000000"
        started = time.perf_counter()
        code, out, err = run(capsys, "expect", "--rational", "--n", "96", "--p", p, "--q", q)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (1, "")
        assert err.startswith("error: exact evaluation supports a common denominator")

    def test_long_probability_is_quoted_short(self, capsys):
        # 5000 digits, past the interpreter's 4300-digit limit for int().
        code, out, err = run(capsys, "expect", "--rational", "--n", "2", "--p", "1" * 5000, "--q", "1/2")
        assert (code, out) == (1, "")
        assert err == f"error: cannot parse probability {'1' * 40!r}... (5000 characters)\n"
        # A float probability, read by ModelParams, is quoted the same way.
        p = "x" * 301
        code, out, err = run(capsys, "mc", "--n", "2", "--p", p, "--q", ".5", "--samples", "2", "--seed", "1")
        assert (code, out) == (1, "")
        assert err == f"error: cannot parse probability {'x' * 40!r}... (301 characters)\n"

    @pytest.mark.parametrize("p", ["1e-9999999", "0e99999999", "1E+32769"])
    def test_probability_exponent_is_bounded_before_parsing(self, capsys, p):
        started = time.perf_counter()
        code, out, err = run(capsys, "expect", "--rational", "--n", "2", "--q", "1/2", "--p", p)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: probability {p!r} has an exponent beyond ±32768\n"

    def test_probability_exponent_at_the_bound_is_parsed(self, capsys):
        code, out, _ = run(capsys, "expect", "--rational", "--n", "1", "--q", "1/2", "--p", "0e-32768")
        assert (code, "\nexact: 1\n" in out) == (0, True)

    # 1e5000 is past the float range; the other has 3003 characters.
    @pytest.mark.parametrize("p", ["1e5000", "1." + "0" * 3000 + "1"], ids=["1e5000", "3003-chars"])
    def test_rational_probability_out_of_range_is_an_input_error(self, capsys, p):
        code, out, err = run(capsys, "expect", "--rational", "--n", "2", "--q", "1/2", "--p", p)
        assert (code, out) == (1, "")
        assert err.startswith("error: --p must be in [0, 1], got ")
        assert len(err) < 200

    # Without --rational, ModelParams reads --p and --q, for every command
    # that takes them; these are its refusals, byte for byte.
    @pytest.mark.parametrize(
        "option,value,message",
        [
            ("--p", "abc", "cannot parse probability 'abc'"),
            ("--p", "1.5", "p must be in [0, 1], got 1.5"),
            ("--p", "nan", "p must be in [0, 1], got nan"),
            ("--p", "inf", "p must be in [0, 1], got inf"),
            ("--p", "-0.1", "p must be in [0, 1], got -0.1"),
            ("--p", "1e999", "p must be in [0, 1], got inf"),
            ("--q", "2", "q must be in [0, 1], got 2.0"),
        ],
    )
    def test_float_probability_refusals(self, capsys, option, value, message):
        for command in PROBABILITY_COMMANDS:
            # argparse keeps an option's last value.
            argv = [*command, "--n", "3", "--p", "0.5", "--q", "0.5", option, value]
            assert (command[0], *run(capsys, *argv)) == (command[0], 1, "", f"error: {message}\n")

    def test_n_is_checked_before_the_probabilities(self, capsys):
        for command in PROBABILITY_COMMANDS:
            argv = [*command, "--n", "0", "--p", "abc", "--q", "0.5"]
            want = (command[0], 1, "", "error: n must be >= 1, got 0\n")
            assert (command[0], *run(capsys, *argv)) == want

    @pytest.mark.parametrize("n", ["2001", "1000000000"])
    def test_n_past_the_float_bound_exits_one_at_once(self, capsys, n):
        started = time.perf_counter()
        code, out, err = run(capsys, "expect", "--n", n, "--p", "0.5", "--q", "0.5")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: float evaluation supports n <= 2000, got {n}\n"

    def test_exact_size_is_refused_before_the_float_sum(self, capsys, monkeypatch):
        def boom(params):
            raise AssertionError("the float sum ran")

        monkeypatch.setattr("randfca.cli.expected_concepts", boom)
        code, out, err = run(capsys, "expect", "--rational", "--n", "200", "--p", "1/2", "--q", "1/2")
        assert (code, out) == (1, "")
        assert err == "error: exact evaluation supports n <= 192, got 200\n"

    # 1 <= E <= 2**(n // 2), so every expect report holds finite numbers and
    # is never zero, from p or q of 0 and 1e-300 up to 1 - 2**-30 and 1, and
    # at the largest n.
    @pytest.mark.parametrize(
        "n,p,q",
        [(n, p, q) for n in (1, 2, 40, 200) for p in FINITE_GRID for q in FINITE_GRID]
        + [(2000, "0.1", "1")],
    )
    def test_json_values_are_finite_numbers(self, capsys, schema, n, p, q):
        envelope = run_json(capsys, "expect", "--json", "--n", str(n), "--p", p, "--q", q)
        jsonschema.validate(envelope, schema)
        for key in ("value", "log_value"):
            value = envelope["payload"][key]
            assert type(value) is float and math.isfinite(value)
        assert envelope["payload"]["is_zero"] is False

    def test_non_finite_value_is_an_internal_error(self, capsys, monkeypatch):
        def infinite(params):
            return ExpectationReport(params, math.inf, math.inf, 1, 0)

        monkeypatch.setattr("randfca.cli.expected_concepts", infinite)
        code, out, err = run(capsys, "expect", "--json", "--n", "2", "--p", "0.5", "--q", "0.5")
        assert (code, out) == (2, "")
        assert err.startswith("internal error: ValueError: ")


class TestParserReuse:
    def test_calls_in_a_row_match_fresh_imports(self, capsys, monkeypatch):
        # A fixed width, so that argparse wraps usage lines alike in both.
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ, PYTHONPATH=str(Path(randfca.__file__).resolve().parents[1]))
        calls = [
            (0, ("asymptotic", "--ns", "10,100,1000")),
            (1, ("expect", "--n", "2", "--p", "0.5")),  # usage error: --q is missing
            (0, ("expect", "--n", "7", "--p", "1/3", "--q", "2/5", "--rational")),
        ]
        for code, argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "randfca", *argv],
                capture_output=True,
                env=env,
                timeout=60,
            )
            want = (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode())
            assert want[0] == code, want
            assert run(capsys, *argv) == want, argv


def test_import_leaves_the_process_pool_unloaded():
    # No command loads concurrent.futures or multiprocessing: `mc --workers W`
    # forks its own children, and only then loads pickle, which start-up
    # would otherwise pay for. Modules that the interpreter's own start-up
    # loads are already there before the import, so they drop out. With
    # `mc`'s modules loaded too, the runtime is still the standard library:
    # every added module is randfca's own, built in, or under stdlib but not
    # in site-packages (which may lie inside it). Start-up loads no json
    # either: only a command that writes JSON loads it.
    code = textwrap.dedent(
        """\
        import os, sys, sysconfig
        from pathlib import Path
        sys.path.insert(0, sys.argv[1])

        def added(before):
            return sorted(set(sys.modules) - before)

        def foreign(names):
            paths = sysconfig.get_paths()
            stdlib = Path(paths["stdlib"]).resolve()
            site = {Path(paths[key]).resolve() for key in ("purelib", "platlib")}
            for name in names:
                module = sys.modules[name]
                if name.split(".")[0] == "randfca" or name in sys.builtin_module_names:
                    continue
                path = getattr(module, "__file__", None)
                parents = Path(path).resolve().parents if path else ()
                if stdlib not in parents or site.intersection(parents):
                    yield name

        before = set(sys.modules)
        import randfca.cli
        print(" ".join(added(before)))
        from randfca import ModelParams, estimate
        os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs, so estimate forks
        estimate(ModelParams(6, .5, .5), 20, 1, workers=2)
        print(" ".join(added(before)))
        print(" ".join(foreign(added(before))))
        """
    )
    src = str(Path(randfca.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    at_import, with_mc, foreign = (line.split() for line in result.stdout.split("\n")[:3])
    assert "randfca.cli" in at_import
    unwanted = (
        "concurrent", "multiprocessing", "pickle", "statistics", "dataclasses", "inspect",
        "fractions", "decimal", "json",
    )
    assert [name for name in at_import if name.split(".")[0] in unwanted] == []
    assert "pickle" in with_mc
    assert [name for name in with_mc if name.split(".")[0] in unwanted[:2]] == []
    assert foreign == []


def test_exact_arithmetic_is_loaded_by_the_commands_that_use_it():
    # `asymptotic` rounds its gaps through decimal, and `expect --rational`
    # sums over fractions; neither module is loaded before its command runs.
    code = textwrap.dedent(
        """\
        import contextlib, io, json, sys
        sys.path.insert(0, sys.argv[1])
        from randfca.cli import main

        def loaded():
            return [name for name in ("decimal", "fractions") if name in sys.modules]

        print(loaded())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["asymptotic", "--json", "--ns", "10,100,1000"])
        print([row["gap_3dp"] for row in json.loads(out.getvalue())["payload"]["rows"]])
        print(loaded())
        with contextlib.redirect_stdout(io.StringIO()):
            main(["expect", "--rational", "--n", "4", "--p", "1/2", "--q", "1/2"])
        print(loaded())
        """
    )
    src = str(Path(randfca.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-I", "-c", code, src], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:4] == [
        "[]", "[1.467, 0.86, 0.646]", "['decimal']", "['decimal', 'fractions']"
    ]


class TestAsymptotic:
    def test_reference_gaps(self, capsys, schema):
        envelope = run_json(capsys, "asymptotic", "--ns", "10,100,1000", "--json")
        jsonschema.validate(envelope, schema)
        gaps = [row["gap_3dp"] for row in envelope["payload"]["rows"]]
        assert gaps == [1.467, 0.860, 0.646]

    def test_caret_and_scientific_forms(self, capsys):
        a = run_json(capsys, "asymptotic", "--ns", "10^4,1e5", "--json")
        ns = [row["n"] for row in a["payload"]["rows"]]
        assert ns == [10000, 100000]

    def test_default_table_has_ten_rows(self, capsys):
        code, out, _ = run(capsys, "asymptotic")
        assert code == 0
        assert len(out.strip().splitlines()) == 11  # header + 10 rows

    def test_bad_ns_rejected(self, capsys):
        code, _, err = run(capsys, "asymptotic", "--ns", "ten")
        assert code == 1

    @pytest.mark.parametrize(
        "ns",
        [
            "1e15", "10^15", "1e18", "1000000000001",  # past the split term's accuracy
            "1e400", "10^400",  # used to overflow with a traceback
            "10^1000000000",  # refused before the power is built
            "1^-1",  # a negative exponent gives no integer
        ],
    )
    def test_out_of_range_ns_is_an_input_error(self, capsys, ns):
        code, out, err = run(capsys, "asymptotic", "--ns", ns)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("ns", ["", ",", " , ,", "," * 100])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_ns_without_a_value_is_an_input_error(self, capsys, ns, json_flag):
        code, out, err = run(capsys, "asymptotic", "--ns", ns, *json_flag)
        assert (code, out) == (1, "")
        assert err == f"error: --ns {quote(ns)} lists no n value\n"

    def test_default_json_rows(self, capsys):
        # (n, a, b, c, d, log_term, gap, gap_3dp, exceeds_threshold) per row.
        want = [
            (10, 3, 3, 2, 2, -3.569322727637537, 1.4666377839817168, 1.467, False),
            (10**2, 6, 6, 44, 44, 4.292458863480693, 0.8597056329217763, 0.86, False),
            (10**3, 9, 9, 491, 491, 24.369783002250344, 0.6460000209802571, 0.646, False),
            (10**4, 13, 13, 4987, 4987, 53.121005569784835, 0.5659493723762461, 0.566, False),
            (10**5, 16, 16, 49984, 49984, 99.93104732164498, 0.47741791895619334, 0.477, False),
            (10**6, 19, 19, 499981, 499981, 160.70239891878364, 0.41640180135766314, 0.416, False),
            (10**7, 23, 23, 4999977, 4999977, 230.18239210133257, 0.3858561564527796, 0.386, False),
            (10**8, 26, 26, 49999974, 49999974, 319.8145877221333, 0.34670041994187006, 0.347, False),
            (10**9, 29, 29, 499999971, 499999971, 423.845956841551, 0.31590390801383994, 0.316, False),
            (10**10, 33, 33, 4999999967, 4999999967, 536.109349782857, 0.29911387105045195, 0.299, True),
        ]
        keys = ["n", "a", "b", "c", "d", "log_term", "gap", "gap_3dp", "exceeds_threshold"]
        rows = run_json(capsys, "asymptotic", "--json")["payload"]["rows"]
        assert [list(row) for row in rows] == [keys] * len(want)
        for row, values in zip(rows, want):
            expected = dict(zip(keys, values))
            for key in ("log_term", "gap"):
                assert row.pop(key) == pytest.approx(expected.pop(key), rel=1e-12)
            assert row == expected

    def test_largest_supported_n(self, capsys):
        (row,) = run_json(capsys, "asymptotic", "--ns", "10^12", "--json")["payload"]["rows"]
        assert row["n"] == 10**12

    @pytest.mark.parametrize("warnings", [[], ["-W", "error"]])
    def test_n1_is_refused_before_any_term_warns(self, warnings):
        env = dict(os.environ, PYTHONPATH=str(Path(randfca.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, *warnings, "-m", "randfca", "asymptotic", "--ns", "10,1"],
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (1, b"")
        assert result.stderr == b"error: relative gap requires n >= 2, got 1\n"


class TestGenAndConcepts:
    def test_pipeline_is_deterministic(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "sample.cxt"
        outputs = []
        for _ in range(2):
            code, _, _ = run(
                capsys, "gen", "--n", "9", "--p", "0.5", "--q", "0.5",
                "--seed", "31", "--out", str(path),
            )
            assert code == 0
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes())))
            code, out, _ = run(capsys, "concepts", "--count-only")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_gen_past_the_draw_bound_exits_one_at_once(self, capsys):
        started = time.perf_counter()
        code, out, err = run(capsys, "gen", "--n", "5001", "--p", "0.5", "--q", "0.5", "--seed", "1")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (1, "")
        assert err == "error: drawing a context supports n <= 5000, got 5001\n"

    def test_gen_labels_and_json_format(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--n", "6", "--p", "0.5", "--q", "0.5",
            "--seed", "3", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert set(document) == {"objects", "attributes", "rows"}
        assert all(label.startswith("g") for label in document["objects"])
        assert all(label.startswith("m") for label in document["attributes"])

    def test_concepts_from_file(self, capsys, tmp_path, schema):
        path = tmp_path / "ctx.cxt"
        path.write_text("B\n\n2\n2\n\na\nb\nx\ny\nX.\n.X\n")
        envelope = run_json(capsys, "concepts", "--in", str(path), "--json")
        jsonschema.validate(envelope, schema)
        assert envelope["payload"]["count"] == 4
        code, out, _ = run(capsys, "concepts", "--in", str(path), "--algo", "scan")
        assert code == 0
        assert "concepts: 4" in out

    @pytest.mark.parametrize("algo", ["cbo", "scan"])
    def test_count_only(self, capsys, tmp_path, schema, algo):
        path = tmp_path / "ctx.cxt"
        path.write_text("B\n\n2\n2\n\na\nb\nx\ny\nX.\n.X\n")
        code, out, _ = run(capsys, "concepts", "--in", str(path), "--algo", algo, "--count-only")
        assert code == 0
        assert out == "4\n"
        envelope = run_json(
            capsys, "concepts", "--in", str(path), "--algo", algo, "--count-only", "--json"
        )
        jsonschema.validate(envelope, schema)
        assert envelope["params"] == {"in": str(path), "algo": algo, "count_only": True}
        assert envelope["payload"] == {"count": 4}

    def test_count_only_scan_guard_exits_one(self, capsys, tmp_path):
        path = tmp_path / "wide.cxt"
        g = 21
        labels = "".join(f"g{i}\n" for i in range(g))
        path.write_text(f"B\n\n{g}\n1\n\n{labels}m\n" + ".\n" * g)
        code, out, err = run(capsys, "concepts", "--in", str(path), "--algo", "scan", "--count-only")
        assert code == 1
        assert out == ""
        assert "closure-scan supports object count <= 20, got 21" in err
        code, out, _ = run(capsys, "concepts", "--in", str(path), "--count-only")
        assert (code, out) == (0, "2\n")

    def test_parse_error_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.cxt"
        path.write_text("Z\n")
        code, _, err = run(capsys, "concepts", "--in", str(path))
        assert code == 1
        assert "line 1" in err

    @pytest.mark.parametrize("count", ["1_0", pytest.param("1" * 5000, id="5000-digits")])
    def test_count_that_is_not_ascii_digits_exits_one_at_its_line(self, capsys, tmp_path, count):
        path = tmp_path / "bad.cxt"
        path.write_text(f"B\n\n{count}\n1\n\ng\nm\nX\n")
        code, out, err = run(capsys, "concepts", "--in", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("error: line 3: expected object count as a decimal integer")
        assert len(err) < 200

    def test_non_utf8_file_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.cxt"
        path.write_bytes(b"B\n\n1\n1\n\ng\xff\nm\nX\n")
        code, out, err = run(capsys, "concepts", "--in", str(path), "--json")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        assert "not valid UTF-8" in err

    @pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
    def test_non_utf8_stdin_exits_one(self, locale):
        # The POSIX locale decodes stdin with surrogateescape and a UTF-8
        # locale strictly; either way the bytes must be refused as input.
        env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
        env.update(LC_ALL=locale, PYTHONPATH=str(Path(randfca.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "randfca", "concepts", "--json"],
            input=b"B\n\n1\n1\n\ng\xff\nm\nX\n",
            capture_output=True,
            env=env,
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (1, b""), result.stderr
        assert result.stderr.startswith(b"error: ")
        assert b"not valid UTF-8" in result.stderr

    def test_crlf_file_is_read_like_lf(self, capsys, tmp_path, monkeypatch):
        crlf, lf = tmp_path / "crlf.cxt", tmp_path / "lf.cxt"
        crlf.write_bytes(b"B\r\n\r\n2\r\n2\r\n\r\na\r\nb\r\nx\r\ny\r\nX.\r\n.X\r\n")
        lf.write_bytes(b"B\n\n2\n2\n\na\nb\nx\ny\nX.\n.X\n")
        code, out, _ = run(capsys, "concepts", "--in", str(crlf))
        assert code == 0
        assert out == run(capsys, "concepts", "--in", str(lf))[1]
        assert out.startswith("concepts: 4\n")
        # The same bytes on stdin, and lone-CR endings from either source.
        cr = tmp_path / "cr.cxt"
        cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
        assert run(capsys, "concepts", "--in", str(cr)) == (0, out, "")
        for path in (crlf, cr):
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes())))
            assert run(capsys, "concepts") == (0, out, "")

    def test_byte_order_mark_is_skipped_on_file_and_stdin(self, capsys, tmp_path, monkeypatch):
        plain, bom = tmp_path / "plain.cxt", tmp_path / "bom.cxt"
        plain.write_bytes(b"B\n\n2\n2\n\na\nb\nx\ny\nX.\n.X\n")
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        code, out, _ = run(capsys, "concepts", "--in", str(plain))
        assert (code, out.startswith("concepts: 4\n")) == (0, True)
        assert run(capsys, "concepts", "--in", str(bom)) == (0, out, "")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(bom.read_bytes())))
        assert run(capsys, "concepts") == (0, out, "")


_ODD_CHARACTERS = ['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\U0001d538"]
_LABEL = st.text(
    alphabet=st.one_of(
        st.sampled_from(_ODD_CHARACTERS),
        st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
    ),
    max_size=3,
)


def _reference_listing(ctx: FormalContext, algo: str, path: str) -> str:
    """`concepts --json` stdout as a dict tree through json.dumps(indent=2)."""
    concepts = enumerate_concepts(ctx, algorithm=algo)
    listing = [
        {
            "extent": [ctx.objects[i] for i in sorted(c.extent)],
            "intent": [ctx.attributes[j] for j in sorted(c.intent)],
        }
        for c in concepts
    ]
    envelope = {
        "schema_version": "1",
        "command": "concepts",
        "params": {"in": path, "algo": algo, "count_only": False},
        "payload": {"count": len(concepts), "concepts": listing},
        "wall_time_ms": 0,
    }
    return json.dumps(envelope, indent=2, allow_nan=False) + "\n"


def _reference_text(ctx: FormalContext, algo: str) -> str:
    """`concepts` text-mode stdout, from each concept's sorted index sets."""
    concepts = enumerate_concepts(ctx, algorithm=algo)
    lines = [f"concepts: {len(concepts)}"]
    for c in concepts:
        extent = ", ".join(ctx.objects[i] for i in sorted(c.extent))
        intent = ", ".join(ctx.attributes[j] for j in sorted(c.intent))
        lines.append(f"  {{{extent}}} / {{{intent}}}")
    return "\n".join(lines) + "\n"


class TestConceptListing:
    @pytest.fixture(scope="class")
    def cxt_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("listing") / "ctx.cxt"

    @pytest.mark.parametrize("algo", ["intersection", "cbo", "scan"])
    @given(
        objects=st.lists(_LABEL, max_size=4, unique=True),
        attributes=st.lists(_LABEL, max_size=4, unique=True),
        bits=st.lists(st.integers(0, 15), min_size=4, max_size=4),
    )
    @example(objects=[], attributes=["", '"\\', "\u00e9\U0001d538"], bits=[0, 0, 0, 0])
    @example(objects=["\U0001f600", "\x00"], attributes=[], bits=[0, 0, 0, 0])
    @example(objects=["a", "b"], attributes=["x", "y"], bits=[1, 2, 0, 0])
    def test_json_listing_matches_a_dict_tree_dump(self, cxt_path, algo, objects, attributes, bits):
        ctx = FormalContext.from_bit_rows(objects, attributes, bits[: len(objects)])
        cxt_path.write_bytes(write_cxt(CxtDocument(ctx)).encode("utf-8"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["concepts", "--in", str(cxt_path), "--algo", algo, "--json"])
        assert code == 0
        text = re.sub(r'"wall_time_ms": \d+\n\}\n\Z', '"wall_time_ms": 0\n}\n', out.getvalue())
        assert text == _reference_listing(ctx, algo, str(cxt_path))

    @pytest.mark.parametrize("algo", ["intersection", "cbo", "scan"])
    @given(
        objects=st.lists(_LABEL, max_size=4, unique=True),
        attributes=st.lists(_LABEL, max_size=4, unique=True),
        bits=st.lists(st.integers(0, 15), min_size=4, max_size=4),
    )
    @example(objects=[], attributes=["", '"\\', "\u00e9\U0001d538"], bits=[0, 0, 0, 0])
    @example(objects=["\U0001f600", "\x00", ", "], attributes=[], bits=[0, 0, 0, 0])
    @example(objects=["b", "a", "c"], attributes=["y", "x", "{"], bits=[5, 2, 0, 0])
    def test_text_listing_matches_the_sorted_index_sets(self, cxt_path, algo, objects, attributes, bits):
        ctx = FormalContext.from_bit_rows(objects, attributes, bits[: len(objects)])
        cxt_path.write_bytes(write_cxt(CxtDocument(ctx)).encode("utf-8"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["concepts", "--in", str(cxt_path), "--algo", algo])
        assert code == 0
        assert out.getvalue() == _reference_text(ctx, algo)

    # Sides of 9 to 24 labels span two or three bytes of a mask. Each label needs
    # JSON escapes: a quote, a backslash, a control character and non-ASCII;
    # label 8, the first of the second byte, is empty, so a byte's run of
    # labels can be empty text. In the last context every row repeats one
    # byte value at each of its three bytes.
    @pytest.mark.parametrize(
        "g, m, rows",
        [
            (17, 19, [0x5B3A7, 0x7FFFF, 0x3BEEF, 0x6D5B6, 0x1F0F0] * 3 + [0x100, 0x70001]),
            (20, 9, [0x1FF ^ 1 << (i % 9) if i % 3 else 0x155 for i in range(20)]),
            (18, 24, [v * 0x010101 for v in (0xFF, 0xB5, 0x0F, 0xF0, 0x3C, 0x81) * 3]),
        ],
        ids=["17x19", "20x9", "repeated-bytes-18x24"],
    )
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_listing_across_byte_boundaries(self, cxt_path, g, m, rows, as_json):
        def labels(tag: str, k: int) -> list[str]:
            return ["" if i == 8 else f'{tag}{i}"\\\x1f\u00e9\U0001f600' for i in range(k)]

        ctx = FormalContext.from_bit_rows(labels("g", g), labels("m", m), rows)
        cxt_path.write_bytes(write_cxt(CxtDocument(ctx)).encode("utf-8"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["concepts", "--in", str(cxt_path), *(["--json"] if as_json else [])])
        assert code == 0
        if as_json:
            text = re.sub(r'"wall_time_ms": \d+\n\}\n\Z', '"wall_time_ms": 0\n}\n', out.getvalue())
            assert text == _reference_listing(ctx, "intersection", str(cxt_path))
        else:
            assert out.getvalue() == _reference_text(ctx, "intersection")

    @pytest.mark.parametrize("extra", [(), ("--json",), ("--count-only",)])
    def test_context_past_the_concept_cap_exits_one(self, capsys, tmp_path, monkeypatch, extra):
        path = tmp_path / "ctx.cxt"
        path.write_text(write_cxt(CxtDocument(contranomial(3))))
        monkeypatch.setattr("randfca.context.MAX_CONCEPTS", 7)
        code, out, err = run(capsys, "concepts", "--in", str(path), *extra)
        assert (code, out, err) == (1, "", "error: enumeration supports concepts <= 7, got 8\n")
        monkeypatch.setattr("randfca.context.MAX_CONCEPTS", 8)
        assert run(capsys, "concepts", "--in", str(path), *extra)[0] == 0

    def test_enumerate_and_count_are_called_through_the_cli_names(self, capsys, tmp_path, monkeypatch):
        # perfbench/tracing.py times listing by wrapping the name
        # randfca.cli.enumerate_concepts, and counts the concepts by len() of
        # its result; --count-only must go through randfca.cli.count_concepts.
        calls = {"enumerate": [], "count": []}
        enumerate_, count = randfca.cli.enumerate_concepts, randfca.cli.count_concepts

        def counting_enumerate(*args, **kwargs):
            result = enumerate_(*args, **kwargs)
            calls["enumerate"].append(len(result))
            return result

        def counting_count(*args, **kwargs):
            result = count(*args, **kwargs)
            calls["count"].append(result)
            return result

        monkeypatch.setattr("randfca.cli.enumerate_concepts", counting_enumerate)
        monkeypatch.setattr("randfca.cli.count_concepts", counting_count)
        path = tmp_path / "ctx.cxt"
        path.write_text("B\n\n3\n2\n\na\nb\nc\nx\ny\nX.\n.X\nXX\n")
        envelope = run_json(capsys, "concepts", "--in", str(path), "--json")
        assert calls == {"enumerate": [envelope["payload"]["count"]], "count": []}
        assert len(envelope["payload"]["concepts"]) == envelope["payload"]["count"]
        calls["enumerate"].clear()
        envelope = run_json(capsys, "concepts", "--in", str(path), "--json", "--count-only")
        assert calls == {"enumerate": [], "count": [envelope["payload"]["count"]]}


class TestMc:
    def test_json_with_exact(self, capsys, schema):
        envelope = run_json(
            capsys, "mc", "--n", "5", "--p", "0.5", "--q", "0.5",
            "--samples", "400", "--seed", "17", "--compare-exact", "--json",
        )
        jsonschema.validate(envelope, schema)
        payload = envelope["payload"]
        assert payload["min_count"] >= 1
        assert abs(payload["z"]) < 6

    def test_degenerate_z_is_null_in_json(self, capsys, schema):
        # The --json form of the "mc-degenerate" text report, whose z is -inf.
        envelope = run_json(
            capsys, "mc", "--compare-exact", "--n", "2", "--p", ".5", "--q", ".5",
            "--samples", "2", "--seed", "1", "--json",
        )
        jsonschema.validate(envelope, schema)
        payload = envelope["payload"]
        assert (payload["stderr"], payload["exact"], payload["z"]) == (0.0, 1.25, None)

    @pytest.mark.parametrize("samples", ["100001", "1000000000000"])
    def test_samples_past_the_bound_exit_one_at_once(self, capsys, samples):
        started = time.perf_counter()
        code, out, err = run(
            capsys, "mc", "--n", "1", "--p", ".5", "--q", ".5", "--samples", samples, "--seed", "1"
        )
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (1, "")
        assert err == f"error: Monte Carlo supports samples <= 100000, got {samples}\n"

    def test_samples_times_n_squared_past_the_bound_exits_one_at_once(self, capsys):
        started = time.perf_counter()
        code, out, err = run(
            capsys, "mc", "--n", "40", "--p", ".5", "--q", ".85", "--samples", "6251", "--seed", "1"
        )
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (1, "")
        assert err == "error: Monte Carlo at n = 40 supports samples <= 6250, got 6251\n"

    def test_workers_flag_matches_serial(self, capsys):
        base = ["mc", "--n", "5", "--p", "0.5", "--q", "0.5", "--samples", "300",
                "--seed", "9", "--json"]
        serial = run_json(capsys, *base, "--workers", "1")
        parallel = run_json(capsys, *base, "--workers", "2")
        serial["params"].pop("workers")
        parallel["params"].pop("workers")
        serial["payload"].pop("workers")
        parallel["payload"].pop("workers")
        serial.pop("wall_time_ms")
        parallel.pop("wall_time_ms")
        assert serial == parallel


class TestVerify:
    def test_success_path(self, capsys, schema):
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 0
        assert "max relative error" in out
        assert "OK" in out
        envelope = run_json(capsys, "verify", "--max-n", "2", "--json")
        jsonschema.validate(envelope, schema)
        assert envelope["payload"]["ok"] is True
        assert envelope["params"]["grid"] == envelope["payload"]["grid"] == "default"

    @pytest.mark.parametrize("max_n", ["0", "-3", "6"])
    def test_max_n_out_of_range_is_refused_before_any_case(self, capsys, monkeypatch, max_n):
        def boom(params):
            raise RuntimeError("a brute-force case ran")

        monkeypatch.setattr("randfca.cli.expected_concepts_bruteforce", boom)
        code, out, err = run(capsys, "verify", "--max-n", max_n)
        assert (code, out) == (1, "")
        expected = "verify supports --max-n <= 5" if max_n == "6" else "--max-n must be >= 1"
        assert err == f"error: {expected}, got {max_n}\n"

    # One bound, 1e-12, on the error over max(oracle, 1). At n = 1 every
    # oracle is exactly 1 and is lowered, so the error is absolute; at n = 2
    # the oracles above 1 are scaled, so the error is relative.
    @pytest.mark.parametrize(
        "max_n, shift, code",
        [
            ("1", lambda e: e - 5e-13, 0),
            ("1", lambda e: e - 2e-12, 2),
            ("2", lambda e: e * (1 + 5e-13) if e > 1 else e, 0),
            ("2", lambda e: e * (1 + 2e-12) if e > 1 else e, 2),
        ],
    )
    def test_each_tolerance_decides_agreement(self, capsys, monkeypatch, max_n, shift, code):
        bruteforce = randfca.cli.expected_concepts_bruteforce
        monkeypatch.setattr("randfca.cli.expected_concepts_bruteforce", lambda p: shift(bruteforce(p)))
        got, out, err = run(capsys, "verify", "--max-n", max_n)
        assert got == code
        if code == 0:
            assert out.endswith("OK\n")
        else:
            assert (out, err.startswith("internal error: formula disagrees with brute force")) == ("", True)

    def test_grid_option_is_gone(self, capsys):
        code, out, err = run(capsys, "verify", "--grid", "default")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --grid" in err


# Whole text reports, recorded from the program. verify's error is a
# last-ulp quantity, so its report is matched by a pattern.
_TEXT_REPORTS = {
    "expect": (
        ["expect", "--n", "80", "--p", "0.5", "--q", "1"],
        "expected concepts: 1\n"
        "log: 0\n"
        "terms: 3321 total = 81 evaluated + 3240 zero\n",
    ),
    "expect-rational": (
        ["expect", "--rational", "--n", "32", "--p", "1/2", "--q", "1/2"],
        "expected concepts: 214.191\n"
        "exact: 53260956393447927146244218413420310960248633118008396454566211120142120380869385961256093"
        "/248661618204893321077691124073410420050228075398673858720231988446579748506266687766528\n"
        "log: 5.36687\n"
        "terms: 561 total = 560 evaluated + 1 zero\n",
    ),
    "mc-compare-exact": (
        ["mc", "--compare-exact", "--n", "10", "--p", ".5", "--q", ".5", "--samples", "300", "--seed", "9"],
        "mean: 7.35\n"
        "stderr: 0.142765\n"
        "ci95: [7.07018, 7.62982]\n"
        "count range: [2, 17]\n"
        "samples: 300  seed: 9  workers: 1\n"
        "exact: 7.24546\n"
        "z: 0.732244\n",
    ),
    "mc-degenerate": (
        ["mc", "--compare-exact", "--n", "2", "--p", ".5", "--q", ".5", "--samples", "2", "--seed", "1"],
        "mean: 1\n"
        "stderr: 0\n"
        "ci95: [1, 1]\n"
        "count range: [1, 1]\n"
        "samples: 2  seed: 1  workers: 1\n"
        "exact: 1.25\n"
        "z: -inf\n",
    ),
    "asymptotic": (
        ["asymptotic", "--ns", "2,3,10,1000,1e5,10^12"],
        "           n    a    b            c            d       log_term      gap  threshold\n"
        "           2    1    1            0            0       -1.38629    3.000         no\n"
        "           3    1    2            0            0       -2.36712    2.359         no\n"
        "          10    3    3            2            2       -3.56932    1.467         no\n"
        "        1000    9    9          491          491        24.3698    0.646         no\n"
        "      100000   16   16        49984        49984         99.931    0.477         no\n"
        "1000000000000   39   39 499999999961 499999999961        817.752    0.258        yes\n",
    ),
    "verify": (
        ["verify", "--max-n", "2"],
        re.compile(
            r"cases: 50 \(n <= 2, 5x5 probability grid\)\n"
            r"max relative error: \d\.\d{3}e[-+]\d\d\n"
            r"OK\n"
        ),
    ),
}


@pytest.mark.parametrize("name", list(_TEXT_REPORTS))
def test_text_report_is_pinned(capsys, name):
    argv, want = _TEXT_REPORTS[name]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if isinstance(want, str):
        assert out == want
    else:
        assert want.fullmatch(out), out


def test_readme_examples_are_what_the_program_prints(capsys, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = run(capsys, "asymptotic", "--ns", "10,1000,1e5,10^10")[1]
    assert f"```\n{table}```" in readme
    path = tmp_path / "ctx.cxt"
    run(capsys, "gen", "--n", "7", "--p", "0.5", "--q", "0.5", "--seed", "11", "--out", str(path))
    listing = run(capsys, "concepts", "--in", str(path))[1]
    assert f"```\n{listing}```" in readme
    assert "randfca expect --n 2 --p 0.5 --q 0.5                 # exact average: prints 1.25" in readme
    assert run(capsys, "expect", "--n", "2", "--p", "0.5", "--q", "0.5")[1].startswith(
        "expected concepts: 1.25\n"
    )
    assert "randfca expect --n 2 --p 1/2 --q 1/2 --rational      # also exact over rationals: 5/4" in readme
    assert "\nexact: 5/4\n" in run(capsys, "expect", "--n", "2", "--p", "1/2", "--q", "1/2", "--rational")[1]
    envelope = run_json(capsys, "expect", "--n", "2", "--p", "0.5", "--q", "0.5", "--json")
    payload = envelope["payload"]
    assert f'"payload": {{"value": {payload["value"]}, "log_value": {payload["log_value"]!r},' in readme


def test_readme_library_example_gives_its_commented_results():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    source = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        try:
            expected = eval(comment, namespace)
        except SyntaxError:  # no comment, or one in words
            continue
        assert value == expected, comment
        checked.append(comment)
    assert checked == ["256", "1.25", "Fraction(5, 4)"]


class TestParams:
    """Every envelope's params, values and key order, as the options parse."""

    @pytest.mark.parametrize(
        "argv,params",
        [
            (
                ["expect", "--n", "2", "--p", "0.5", "--q", "0.5"],
                [("n", 2), ("p", "0.5"), ("q", "0.5"), ("rational", False)],
            ),
            (
                ["expect", "--n", "2", "--p", "1/2", "--q", "1/3", "--rational"],
                [("n", 2), ("p", "1/2"), ("q", "1/3"), ("rational", True)],
            ),
            (
                ["mc", "--n", "5", "--p", "0.5", "--q", "0.5", "--samples", "40", "--seed", "9"],
                [("n", 5), ("p", 0.5), ("q", 0.5), ("samples", 40), ("seed", 9),
                 ("workers", 1), ("compare_exact", False)],
            ),
            (
                ["mc", "--n", "5", "--p", "0.5", "--q", "0.5", "--samples", "40", "--seed", "9",
                 "--workers", "2", "--compare-exact"],
                [("n", 5), ("p", 0.5), ("q", 0.5), ("samples", 40), ("seed", 9),
                 ("workers", 2), ("compare_exact", True)],
            ),
            (["asymptotic"], [("ns", [10**k for k in range(1, 11)])]),
            (["asymptotic", "--ns", "10^4,1e5"], [("ns", [10000, 100000])]),
            (["verify", "--max-n", "2"], [("max_n", 2), ("grid", "default")]),
            (
                ["concepts", "--in", "{cxt}"],
                [("in", "{cxt}"), ("algo", "intersection"), ("count_only", False)],
            ),
            (
                ["concepts", "--in", "{cxt}", "--algo", "scan", "--count-only"],
                [("in", "{cxt}"), ("algo", "scan"), ("count_only", True)],
            ),
        ],
    )
    def test_params(self, capsys, tmp_path, schema, argv, params):
        path = tmp_path / "ctx.cxt"
        path.write_text("B\n\n2\n2\n\na\nb\nx\ny\nX.\n.X\n")

        def fill(value):
            return str(path) if value == "{cxt}" else value

        envelope = run_json(capsys, *map(fill, argv), "--json")
        jsonschema.validate(envelope, schema)
        assert list(envelope["params"].items()) == [(k, fill(v)) for k, v in params]


class TestErrorHandling:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "asymptotic", "--bogus")
        assert code == 1
        assert "usage" in err

    def test_unknown_command_exits_one(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    @pytest.mark.parametrize(
        "argv,flag,shown",
        [
            (["gen", "--n", "abc", "--p", ".5", "--q", ".5", "--seed", "1"], "--n", "'abc'"),
            (
                ["mc", "--n", "2", "--p", ".5", "--q", ".5", "--samples", "x", "--seed", "1"],
                "--samples",
                "'x'",
            ),
            (["verify", "--max-n", "1.5"], "--max-n", "'1.5'"),
            pytest.param(
                ["gen", "--n", "2", "--p", ".5", "--q", ".5", "--seed", "9" * 5000],
                "--seed",
                f"'{'9' * 40}'... (5000 characters)",
                id="5000-nines",
            ),
        ],
    )
    def test_unreadable_int_option_is_a_usage_error(self, capsys, argv, flag, shown):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        *usage, message = err.splitlines()
        assert usage[0].startswith(f"usage: randfca {argv[0]} [-h]")
        assert all(line.startswith(" ") for line in usage[1:])
        assert message == f"error: argument {flag}: invalid int value: {shown}"
        assert len(err.encode()) < 300

    def test_internal_error_exits_two(self, capsys, monkeypatch):
        def boom(ns):
            raise InternalError("wired for testing")

        monkeypatch.setattr("randfca.cli.table_report", boom)
        code, _, err = run(capsys, "asymptotic", "--ns", "10")
        assert code == 2
        assert "internal error" in err

    def test_unexpected_exception_exits_two_without_traceback(self, capsys, monkeypatch):
        def boom(ns):
            return 1 / 0

        monkeypatch.setattr("randfca.cli.table_report", boom)
        code, out, err = run(capsys, "asymptotic", "--ns", "10")
        assert code == 2
        assert out == ""
        assert err == "internal error: ZeroDivisionError: division by zero\n"
        assert "Traceback" not in err

    @staticmethod
    def closed_stdout_env(buffered):
        # PYTHONUNBUFFERED moves the failing write from the exit-time flush
        # into the command's own output calls; both must end alike.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(randfca.__file__).resolve().parents[1])
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        return env

    @pytest.mark.parametrize("buffered", [True, False])
    def test_closed_stdout_exits_one_without_a_message(self, buffered):
        env = self.closed_stdout_env(buffered)
        gen = [sys.executable, "-m", "randfca", "gen", "--n", "60", "--p", "0.5", "--q", "0.5"]
        cxt = subprocess.run([*gen, "--seed", "31"], capture_output=True, env=env, check=True)
        # A 3923-concept listing, about 390 kB: more than a pipe buffer holds.
        listing = subprocess.Popen(
            [sys.executable, "-m", "randfca", "concepts"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        listing.stdin.write(cxt.stdout)
        listing.stdin.close()
        assert listing.stdout.readline() == b"concepts: 3923\n"
        listing.stdout.close()
        assert listing.wait(timeout=60) == 1
        assert listing.stderr.read() == b""
        listing.stderr.close()

    @pytest.mark.parametrize("buffered", [True, False])
    def test_short_output_to_a_closed_stdout(self, buffered):
        # Output small enough to stay in stdout's buffer until the end.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "randfca", "expect", "--n", "3", "--p", "0.5", "--q", "0.5"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=self.closed_stdout_env(buffered),
                timeout=60,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (1, b"")
