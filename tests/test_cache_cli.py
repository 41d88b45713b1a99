import json

import pytest

import jsonschema

from stmoments.cli import run
from stmoments.verify import SUITES

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
    assert run(["primes", "--x", "5"]) == 2  # domain error below the window floor
    capsys.readouterr()
    assert run(["--threads", "0", "primes", "--x", "100"]) == 2  # the option is gone
    capsys.readouterr()
    for argv in (["eichler-check", "--max-p", "3"], ["birch-check", "--p-max", "4", "--j-max", "2"]):
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert f"no prime p >= 5 is at most {argv[1]} = {argv[2]}" in err
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
    assert run(["moments", "--x", "2000", "--A", "2000", "--B", "2000"] + interval) == 3
    assert "135 primes = 2161080135 exceeds the cap of 500000000" in capsys.readouterr().err


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


def test_cli_bs_and_parseval(tmp_path, capsys):
    out = tmp_path / "bs.csv"
    rc = run(["bs", "--alpha", "0.7", "--beta", "2.0", "--M", "32", "--mode", "major", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert out.read_text().startswith("m,s,u")
    assert run(["parseval", "--alpha", "0.7", "--beta", "2.0", "--M", "500"]) == 0
    capsys.readouterr()


def test_cli_probe(capsys):
    assert run(["probe", "hyp1", "--K", "12", "--x", "20"]) == 0
    capsys.readouterr()
    assert run(["probe", "hyp2", "--a", "1", "--b", "1", "--m", "1", "--y", "6", "--x", "12"]) == 0
    out = capsys.readouterr().out
    assert "value=" in out


@pytest.mark.parametrize("suite", list(SUITES))
def test_cli_verify_single_suite(suite, capsys):
    assert run(["verify", "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_eichler(capsys):
    assert run(["eichler-check", "--max-p", "60"]) == 0
    capsys.readouterr()


def test_cli_birch_check(capsys):
    assert run(["birch-check", "--p-max", "20", "--j-max", "6"]) == 0
    capsys.readouterr()


def test_cli_s0(capsys):
    assert run(["s0", "--p", "5", "--m", "10"]) == 0
    out = capsys.readouterr().out
    assert "gap=" in out
