import functools
import importlib.util
import json
import math
import pathlib
import re
import sys
import warnings

import pytest

import jsonschema

from stmoments import classnumbers, hecke
from stmoments.arith_curves import MAX_PRIME, CurveParams, Interval, ap_table, curve_ap, legendre
from stmoments.classnumbers import MAX_HURWITZ_N, eichler_mass, family_moment_classnum
from stmoments.cli import run
from stmoments.errors import BudgetError
from stmoments.hecke import TraceRecord, hecke_trace, traces_via_birch
from stmoments.st_approx import CoeffMode, exact_st_coeffs, sandwich_coeffs
from stmoments.verify import SUITES, mass_identity_check, route_agreement_checks

MOMENTS_SCHEMA = {
    "type": "object",
    "required": ["x", "A", "B", "interval", "M", "profile", "mu", "pi_tilde", "Z", "results"],
    "additionalProperties": False,
    "properties": {
        "x": {"type": "number"},
        "A": {"type": "integer"},
        "B": {"type": "integer"},
        "interval": {
            "type": "object",
            "required": ["alpha", "beta"],
            "properties": {"alpha": {"type": "number"}, "beta": {"type": "number"}},
        },
        "M": {"type": "integer"},
        "profile": {"enum": ["unconditional", "mrh", "hypotheses"]},
        "mu": {"type": "number"},
        "pi_tilde": {"type": "integer"},
        "Z": {"type": "number"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["t", "empirical", "main_term", "ratio"],
                "properties": {
                    "t": {"type": "integer"},
                    "empirical": {"type": "number"},
                    "main_term": {"type": "number"},
                    "ratio": {"type": ["number", "null"]},
                },
            },
        },
    },
}


def test_cli_primes(capsys):
    assert run(["primes", "--x", "20"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_cli_trace(capsys):
    assert run(["trace", "--k", "12", "--p", "2", "--method", "miller"]) == 0
    assert capsys.readouterr().out.strip() == "-24"
    assert run(["trace", "--k", "12", "--p", "5", "--method", "birch"]) == 0
    assert capsys.readouterr().out.strip() == "4830"


def test_cli_ap_table(capsys):
    assert run(["ap", "--p", "5", "--a", "1", "--b", "1"]) == 0
    assert capsys.readouterr().out.strip() == "good -3"
    assert run(["ap", "--p", "5", "--table"]) == 0
    assert capsys.readouterr().out.strip() == "p=5 good=20 bad=5 trace_sum=0"


def test_cli_exit_codes(capsys):
    assert run(["primes", "--bogus-flag"]) == 2
    capsys.readouterr()
    assert run(["ap", "--p", "30011", "--table"]) == 3
    capsys.readouterr()
    assert run(["trace", "--k", "13", "--p", "5", "--method", "birch"]) == 2
    capsys.readouterr()
    assert run(["--threads", "0", "primes", "--x", "100"]) == 2  # the option is gone
    capsys.readouterr()
    for argv in (["eichler-check", "--max-p", "3"], ["birch-check", "--p-max", "4", "--j-max", "2"]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert f"no prime p >= 5 is at most max_p = {argv[2]}" in err
        assert "PASS" not in out and "Traceback" not in err
    interval = ["--alpha", "0", "--beta", "1.5707963267948966"]
    for argv, (A, B) in (
        (["moments", "--x", "100", "--A", "0", "--B", "3"], (0, 3)),
        (["clt", "--x", "100", "--A", "0", "--B", "0"], (0, 0)),
        (["moments", "--x", "100", "--A", "-2", "--B", "3"], (-2, 3)),
        (["almost-all", "--x", "100", "--A", "3", "--B", "0", "--y", "1"], (3, 0)),
    ):
        assert run(argv + interval) == 2
        err = capsys.readouterr().err
        assert "needs A >= 1 and B >= 1" in err and f"got A = {A}, B = {B}" in err
        assert "Traceback" not in err
    for y in ("0", "-1"):
        assert run(["almost-all", "--x", "100", "--A", "3", "--B", "3", "--y", y] + interval) == 2
        err = capsys.readouterr().err
        assert f"needs y > 0, got y = {float(y)}" in err and "Traceback" not in err
    assert run(["moments", "--x", "2000", "--A", "2000", "--B", "2000"] + interval) == 3
    assert "135 primes = 2161080135 exceeds the cap of 500000000" in capsys.readouterr().err
    for argv, code, message in (
        (["ap", "--p", "1000000007", "--a", "1", "--b", "1"], 3,
         "p = 1000000007 exceeds the largest-prime cap MAX_PRIME = 1000000"),
        (["moments", "--x", "1e9", "--A", "1", "--B", "1"] + interval, 3,
         "sieve limit = 1000000000 exceeds the largest-prime cap MAX_PRIME = 1000000"),
        (["s0", "--p", "293", "--m", "60"], 3, "weight capped at 60, got k = 62"),
        (["moments", "--x", "inf", "--A", "1", "--B", "1"] + interval, 3,
         "x = inf exceeds the largest-prime cap MAX_PRIME = 1000000"),
        (["probe", "hyp1", "--x", "inf"], 3, "x = inf exceeds the largest-prime cap MAX_PRIME = 1000000"),
        (["probe", "hyp2", "--x", "inf"], 3, "x = inf exceeds the largest-prime cap MAX_PRIME = 1000000"),
        (["moments", "--x", "nan", "--A", "1", "--B", "1"] + interval, 2,
         "window operations require x >= 10, got x = nan"),
        (["probe", "hyp1", "--x", "nan"], 2, "window operations require x >= 10, got x = nan"),
        (["probe", "hyp2", "--x", "nan"], 2, "need x > 1 for the (log x)^c scale, got x = nan"),
        (["moments", "--x", "100", "--A", "1", "--B", "1", "--t", "0"] + interval, 2,
         "moment orders need t >= 1, got t_list = (0,)"),
        (["moments", "--x", "100", "--A", "1", "--B", "1", "--t", "2", "-1"] + interval, 2,
         "moment orders need t >= 1, got t_list = (2, -1)"),
        (["bs", "--M", "1000000000"] + interval, 3, "coefficient degree M = 1000000000 exceeds the cap MAX_DEGREE"),
        (["bs", "--mode", "minor", "--M", "100001"] + interval, 3,
         "coefficient degree M = 100001 exceeds the cap MAX_DEGREE = 100000"),
        (["parseval", "--M", "1000000000"] + interval, 3, "coefficient degree M = 1000000000 exceeds the cap"),
        (["moments", "--x", "100", "--A", "1", "--B", "1", "--M", "1000000000"] + interval, 3,
         "coefficient degree M = 1000000000 exceeds the cap MAX_DEGREE = 100000"),
    ):
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert message in err and "Traceback" not in err and not out
    for argv, message in (
        (["primes", "--x", "5"], "window operations require x >= 10, got x = 5.0"),
        (["bs", "--alpha", "2", "--beta", "1", "--M", "10"],
         "need 0 <= alpha < beta <= pi, got alpha = 2.0, beta = 1.0"),
        (["bs", "--alpha", "0", "--beta", "1", "--M", "0"], "need M >= 1, got M = 0"),
        (["parseval", "--alpha", "0", "--beta", "1", "--M", "0"], "need M >= 1, got M = 0"),
        (["bs", "--alpha", "0", "--beta", "1", "--mode", "major", "--M", "8"],
         "need M >= 16 for the sandwich construction, got M = 8"),
        (["hurwitz", "--max-n", "2"], "max_n must be at least 3, got max_n = 2"),
        (["probe", "hyp2", "--a", "0", "--b", "0"], "Delta(a, b) = 0 is not an elliptic curve: a = 0, b = 0"),
        (["probe", "hyp2", "--x", "100", "--y", "200"], "need 0 <= y < x, got x = 100.0, y = 200.0"),
        (["probe", "hyp2", "--a", "1", "--b", "1", "--x", "1"], "need x > 1 for the (log x)^c scale, got x = 1.0"),
        (["probe", "hyp2", "--a", "1", "--b", "1", "--x", "0.5"], "need x > 1 for the (log x)^c scale, got x = 0.5"),
        (["moments", "--x", "100", "--A", "1", "--B", "1", "--M", "-3"] + interval, "need M >= 1, got M = -3"),
        (["moments", "--x", "100", "--A", "1", "--B", "1", "--M", "0"] + interval, "need M >= 1, got M = 0"),
    ):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert message in err and "Traceback" not in err and not out
    for p, trace in (("2", "-24"), ("3", "252")):
        assert run(["trace", "--k", "12", "--p", p]) == 0
        assert capsys.readouterr().out.strip() == trace


PRIME_ROUTES = {  # route: (least prime admitted, library call, CLI argv taking p last, or None)
    "the curve trace": (5, lambda p: curve_ap(p, CurveParams(1, 1)), ["ap", "--a", "1", "--b", "1", "--p"]),
    "the trace grid": (5, ap_table, ["ap", "--table", "--p"]),
    "the mass identity": (5, eichler_mass, None),
    "the class-number moment": (5, lambda p: family_moment_classnum(p, 2), None),
    "the class-number route": (5, lambda p: traces_via_birch(p, 1), ["trace", "--method", "birch", "--k", "4", "--p"]),
    "the Hecke trace": (2, lambda p: hecke_trace(12, p), ["trace", "--k", "12", "--p"]),
    "the Legendre symbol": (3, lambda p: legendre(2, p), None),
}
NOT_ADMITTED = [(route, p) for route, (least, _, _) in PRIME_ROUTES.items()
                for p in (-5, 0, 1, 4, 9, 15, 25, 2997, MAX_PRIME + 1) + ((3,) if least > 3 else ())]


@pytest.mark.parametrize("route, p", NOT_ADMITTED)
def test_every_prime_entry_point_applies_the_one_rule(route, p, capsys):
    least, call, argv = PRIME_ROUTES[route]
    if p > MAX_PRIME:  # the cap comes before primality (ap_table's own cap is lower)
        error, message, code = BudgetError, f"p = {p}", 3
    else:
        error, message, code = ValueError, f"{route} needs a prime p >= {least}, got p = {p}", 2
    with pytest.raises(error, match=re.escape(message)):
        call(p)
    if argv is not None:
        assert run(argv + [str(p)]) == code
        out, err = capsys.readouterr()
        assert message in err and "Traceback" not in err and not out


def test_cli_caps_of_the_class_number_and_q_expansion_routes(capsys):
    for argv, message in (
        (["hurwitz", "--max-n", str(MAX_HURWITZ_N + 1)],
         f"Hurwitz table N = {MAX_HURWITZ_N + 1} exceeds the cap MAX_HURWITZ_N = {MAX_HURWITZ_N}"),
        (["eichler-check", "--max-p", "100003"], "Hurwitz table N = 400012 exceeds the cap"),
        (["trace", "--method", "birch", "--k", "4", "--p", "100003"], "Hurwitz table N = 400012 exceeds the cap"),
        (["trace", "--k", "12", "--p", "99991"], "q-expansion capped at 2501 terms, got n_terms = 99992"),
        (["trace", "--k", "62", "--p", "5"], "weight capped at 60, got k = 62"),
        (["trace", "--method", "birch", "--k", "62", "--p", "5"], "weight capped at 60, got k = 62"),
        (["birch-check", "--p-max", "20", "--j-max", "30"], "weight capped at 60, got k = 62"),
    ):
        assert run(argv) == 3
        out, err = capsys.readouterr()
        assert message in err and "Traceback" not in err and not out


def test_cli_clt_rejects_the_whole_trace_range(capsys):
    # mu([0, pi]) = 1 leaves the standardization a zero scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["clt", "--x", "100", "--A", "3", "--B", "3", "--alpha", "0", "--beta", "3.141592653589793"]) == 2
    out, err = capsys.readouterr()
    assert "the CLT sample needs 0 < mu(I) < 1, got alpha = 0.0, beta = 3.141592653589793, mu = 1.0" in err
    assert "Traceback" not in err and not out


def test_cli_refuses_a_bad_log_power_moment_order_and_bin_count(capsys):
    box = ["--x", "100", "--A", "3", "--B", "3", "--alpha", "0", "--beta", "1.5"]
    for argv, code, message in (
        (["--c", "inf", "moments"] + box, 2, "(log x)^c must be a positive finite float, got c = inf, x = 100.0"),
        (["--c", "nan", "moments"] + box, 2, "(log x)^c must be a positive finite float, got c = nan, x = 100.0"),
        (["--c", "inf", "almost-all", "--y", "1"] + box, 2, "got c = inf, x = 100.0"),
        (["--c", "inf", "probe", "hyp2", "--x", "100"], 2, "got c = inf, x = 100.0"),
        (["--c", "1e308", "probe", "hyp2", "--x", "100"], 2, "got c = 1e+308, x = 100.0"),
        (["--c=-1e308", "probe", "hyp2", "--x", "100"], 2, "got c = -1e+308, x = 100.0"),
        (["moments", "--t", "400"] + box, 3, "moment order t = 400 exceeds the cap of 64"),
        (["clt", "--bins", "1000001"] + box, 3, "the CLT histogram's bins = 1000001 exceeds the cap of 1000000"),
        (["clt", "--bins", "0"] + box, 2, "the CLT histogram needs bins >= 1, got bins = 0"),
        (["clt", "--bins", "-5"] + box, 2, "the CLT histogram needs bins >= 1, got bins = -5"),
    ):
        assert run(argv) == code
        out, err = capsys.readouterr()
        assert message in err and "Traceback" not in err and not out


def test_cli_m_is_moments_only(capsys):
    # clt and almost-all never read the coefficient degree
    box = ["--x", "60", "--A", "3", "--B", "3", "--alpha", "0", "--beta", "1.5707963267948966", "--M", "4"]
    for argv in (["clt"], ["almost-all", "--y", "1"]):
        assert run(argv + box) == 2
        assert "unrecognized arguments: --M 4" in capsys.readouterr().err


def test_cli_moments_json_schema(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = run([
        "moments", "--x", "100", "--A", "4", "--B", "4", "--t", "1", "2",
        "--alpha", "0", "--beta", "1.5707963267948966", "--M", "8", "--out", str(out),
    ])
    assert rc == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    jsonschema.validate(data, MOMENTS_SCHEMA)
    assert data["A"] == 4 and data["M"] == 8


@pytest.mark.parametrize("M", ["1", "2"])
def test_cli_moments_json_is_strict_at_low_degree(tmp_path, capsys, M):
    # Z is a number at every M >= 1: no NaN, which strict JSON parsers reject
    out = tmp_path / "report.json"
    assert run(["moments", "--x", "100", "--A", "4", "--B", "4", "--alpha", "0", "--beta", "1.5707963267948966",
                "--M", M, "--out", str(out)]) == 0
    capsys.readouterr()

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    data = json.loads(out.read_text(), parse_constant=reject)
    jsonschema.validate(data, MOMENTS_SCHEMA)
    assert data["M"] == int(M) and data["Z"] == exact_st_coeffs(Interval(0.0, 1.5707963267948966), int(M)).z


def test_cli_clt_csv(tmp_path, capsys):
    out = tmp_path / "clt.csv"
    rc = run([
        "clt", "--x", "60", "--A", "3", "--B", "3",
        "--alpha", "0", "--beta", "1.5707963267948966",
        "--bins", "8", "--out", str(out),
    ])
    assert rc == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "a,b,n_i,error,standardized"
    # 7x7 box minus the three singular pairs (0,0) and (-3, +-2)
    assert len(lines) == 1 + 46
    assert "np.float64" not in lines[1]


def test_cli_hurwitz_csv(tmp_path, capsys):
    out = tmp_path / "h.csv"
    assert run(["hurwitz", "--max-n", "50", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,twelve_h"
    table = {int(row.split(",")[0]): int(row.split(",")[1]) for row in lines[1:]}
    assert table[3] == 4 and table[4] == 6 and table[20] == 24


def test_cli_hurwitz_reads_rows_up_to_max_n_of_the_one_table(tmp_path, capsys):
    classnumbers.hurwitz_table(8000)
    out, reference = tmp_path / "h.csv", tmp_path / "reference.csv"
    assert run(["hurwitz", "--max-n", "50", "--out", str(out)]) == 0
    classnumbers.build_hurwitz_table(50).to_csv(reference)
    assert len(out.read_text().splitlines()) == 51 and out.read_bytes() == reference.read_bytes()
    capsys.readouterr()
    assert run(["hurwitz", "--max-n", "50"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "3 4" and printed[-1] == "48 40" and len(printed) == 24  # N = 0, 3 mod 4, 3 <= N <= 50


def test_cli_bs_and_parseval(tmp_path, capsys):
    out = tmp_path / "bs.csv"
    rc = run(["bs", "--alpha", "0.7", "--beta", "2.0", "--M", "32", "--mode", "major", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert out.read_text().startswith("m,s,u")
    interval = Interval(0.7, 2.0)
    for mode, coeffs in (("exact", exact_st_coeffs(interval, 32)),
                         ("major", sandwich_coeffs(interval, 32, CoeffMode.MAJORANT)),
                         ("minor", sandwich_coeffs(interval, 32, CoeffMode.MINORANT))):
        assert type(coeffs.const_term) is float, mode  # printed as a plain float, not np.float64(...)
        assert run(["bs", "--alpha", "0.7", "--beta", "2.0", "--M", "32", "--mode", mode]) == 0
        assert f" const={coeffs.const_term!r} " in capsys.readouterr().out, mode
    assert run(["parseval", "--alpha", "0.7", "--beta", "2.0", "--M", "500"]) == 0
    capsys.readouterr()


def test_cli_probe(capsys):
    assert run(["probe", "hyp1", "--K", "12", "--x", "20"]) == 0
    capsys.readouterr()
    assert run(["probe", "hyp1", "--K", "12", "--x", "2000"]) == 0  # window primes past the q-expansion reach
    value = float(re.match(r"value=(\S+) ", capsys.readouterr().out).group(1))
    delta = hecke.delta_qexp(2001)
    window = [p for p in range(1001, 2001) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert value == pytest.approx(abs(sum(delta[p] / p ** 5.5 for p in window)) / 12, rel=1e-12)
    assert run(["probe", "hyp2", "--a", "1", "--b", "1", "--m", "1", "--y", "6", "--x", "12"]) == 0
    out = capsys.readouterr().out
    assert "value=" in out


@functools.cache
def _benchmark_suite_checks() -> dict:
    """The check count per suite that the benchmark's identity gate expects,
    read from perfbench/workloads.py without adding perfbench to sys.path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.SUITE_CHECKS


@pytest.mark.parametrize("suite", list(SUITES))
def test_cli_verify_single_suite(suite, capsys):
    assert run(["verify", "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    checks = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(checks) == _benchmark_suite_checks()[suite]


def test_telescoped_check_prints_the_power_of_ten_above_its_gap():
    # the gap is a rounding residue near 4e-15: its digits would change with
    # any equivalent reordering of the cosine-grid arithmetic
    line, = [res.line() for res in SUITES["bs"]() if res.name == "telescoped basis matches cosine basis"]
    assert re.fullmatch(r"PASS  telescoped basis matches cosine basis  \[max gap < 1e-1[0-9]\]", line), line


def test_cli_eichler(capsys, monkeypatch):
    # the command prints the line of verify's own check, and fails with it
    assert run(["eichler-check", "--max-p", "60"]) == 0
    assert capsys.readouterr().out == mass_identity_check(60).line() + "\n"
    assert mass_identity_check(60).line() == "PASS  mass identity residual, 5 <= p <= 60  [max |residual| = 0]"
    monkeypatch.setattr(classnumbers, "eichler_mass", lambda p, table=None: -3)
    assert run(["eichler-check", "--max-p", "60"]) == 1
    assert capsys.readouterr().out == "FAIL  mass identity residual, 5 <= p <= 60  [max |residual| = 3]\n"


def test_cli_birch_check(capsys, monkeypatch):
    assert run(["birch-check", "--p-max", "20", "--j-max", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [res.line() for res in route_agreement_checks(20, 14)]
    assert lines == ["PASS  route agreement, p <= 20, weights 4..14", "PASS  Deligne bound on every record"]
    # a nonzero Birch-Miller residual at k = 12, on the q-expansion side as verify reads it
    monkeypatch.setattr(hecke, "hecke_trace", lambda k, p, basis=None: TraceRecord(k=k, p=p, trace=0, method="miller"))
    assert run(["birch-check", "--p-max", "20", "--j-max", "6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["FAIL  route agreement, p <= 20, weights 4..14  [k=12 p=19: birch 10661420 != miller 0]",
                     "PASS  Deligne bound on every record"]


@pytest.mark.parametrize("x, p_max", [(150000, 149993), (200003, 200003)])
def test_probe_hyp1_past_the_hurwitz_cap_fails_before_any_solve(x, p_max, monkeypatch, capsys):
    # the largest window prime is asked first, so its table's cap ends the run
    solves = []
    monkeypatch.setattr(hecke, "traces_via_birch", lambda *args: solves.append(args))
    assert run(["probe", "hyp1", "--K", "20", "--x", str(x)]) == 3
    out, err = capsys.readouterr()
    assert f"Hurwitz table N = {4 * p_max} exceeds the cap MAX_HURWITZ_N = {MAX_HURWITZ_N}" in err
    assert not out and "Traceback" not in err and solves == []


def test_cli_s0(capsys):
    assert run(["s0", "--p", "5", "--m", "10"]) == 0
    out = capsys.readouterr().out
    assert "gap=" in out
