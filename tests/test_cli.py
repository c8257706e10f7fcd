import hashlib
import json
import os
import subprocess
import sys

import pytest

import smtkit
from smtkit.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_admissible_c2(capsys):
    code, out, _ = run(capsys, "admissible", "--type", "C2", "--weight", "0,1")
    assert code == 0
    assert "count 5 vs weyl_dim 5: PASS" in out


def test_admissible_a2(capsys):
    code, out, _ = run(capsys, "admissible", "--type", "A2", "--weight", "1,0")
    assert code == 0
    assert "count 3 vs weyl_dim 3: PASS" in out


def test_admissible_rejects_non_classical(capsys):
    code, out, err = run(capsys, "admissible", "--type", "G2", "--weight", "1,0")
    assert code == 2
    assert out == ""
    assert err == "error: (1, 0) is not of classical type for G2\n"


def test_smt_full_flag_count(capsys):
    code, out, _ = run(
        capsys,
        "smt", "--type", "A2", "--parabolic", "none",
        "--weights", "1,0+0,1", "--pair", "e:w0", "--verify-count",
    )
    assert code == 0
    assert "standard monomials on (e, s1.s2.s1): 8" in out


def test_verify_count_says_when_no_check_applies(capsys):
    # v != e and w below the top: neither the Weyl dimension nor the
    # Demazure mass applies, so no PASS may be claimed
    argv = ["smt", "--type", "A2", "--parabolic", "none", "--weights", "1,0+0,1",
            "--pair", "s1:s1.s2", "--verify-count"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "count checks: none apply to this pair"
    assert "PASS" not in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert json.loads(out)["verify_count"] == {}


def test_smt_point_pair(capsys):
    code, out, _ = run(
        capsys,
        "smt", "--type", "A2", "--weights", "1,0+0,1", "--pair", "s2.s1:s2.s1",
    )
    assert code == 0
    assert ": 1" in out.splitlines()[0]


def test_smt_verify_filtration(capsys):
    code, out, _ = run(
        capsys,
        "smt", "--type", "A2", "--parabolic", "none", "--weights", "1,1",
        "--pair", "e:w0", "--verify-filtration",
    )
    assert code == 0
    assert "filtration blocks consistent: PASS" in out


def test_smt_union(capsys):
    code, out, _ = run(
        capsys,
        "smt", "--type", "A2", "--weights", "1,1",
        "--union", "e:s1.s2+e:s2.s1",
    )
    assert code == 0
    assert "union count: 7" in out
    assert "inclusion-exclusion value: 7" in out


def test_smt_union_refuses_pair_checks(capsys, monkeypatch):
    # the count and filtration checks read a --pair; asked of a --union
    # they are a usage error, raised before anything is enumerated.  An
    # empty --union is refused too, not taken for the default --pair.
    import smtkit.cli as cli

    def no_enumeration(*args, **kwargs):
        raise RuntimeError("enumerated before refusing the request")

    monkeypatch.setattr(cli.StandardContext, "enumerate", no_enumeration)
    monkeypatch.setattr(cli.StandardContext, "count_on_union", no_enumeration)
    for union in ("e:s1.s2+e:s2.s1", ""):
        for flags in (["--verify-count"], ["--verify-filtration"], ["--verify-count", "--verify-filtration"]):
            code, out, err = run(
                capsys,
                "smt", "--type", "A2", "--weights", "1,1",
                "--union", union, *flags,
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "--union" in err


@pytest.mark.parametrize("pair", ["s1:s1", "e:w0"])
def test_smt_union_refuses_a_pair(capsys, pair):
    # a --union counts its own components: an explicit --pair beside it is
    # a usage error, even when it names the default pair
    code, out, err = run(
        capsys,
        "smt", "--type", "A2", "--weights", "1,1",
        "--union", "e:s1.s2+e:s2.s1", "--pair", pair,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--union" in err and "--pair" in err


def test_straighten_pair(capsys):
    code, out, _ = run(capsys, "straighten", "--grassmann", "2,4", "--pair", "14,23")
    assert code == 0
    assert "p[1, 3]*p[2, 4] - p[1, 2]*p[3, 4]" in out


def test_straighten_standard_pair_is_usage_error(capsys):
    code, out, err = run(capsys, "straighten", "--grassmann", "2,4", "--pair", "13,24")
    assert code == 2
    assert out == ""
    assert err == "error: pair ((1, 3), (2, 4)) is already standard; nothing to straighten\n"



@pytest.mark.parametrize("seeds", ["1,x", ",", "", "1,,2", "1.5"])
@pytest.mark.parametrize("task", [["--verify-hodge"], ["--pair", "14,23"]])
def test_bad_seeds_are_a_usage_error_naming_the_flag(capsys, seeds, task):
    code, out, err = run(capsys, "straighten", "--grassmann", "2,4", *task, "--seeds", seeds)
    assert code == 2
    assert out == ""
    assert "--seeds" in err and "invalid literal" not in err


# an entry out of 1..4 and an index of three entries parse, but Gr(2,4)
# refuses them; an empty --pair is refused, not ignored
@pytest.mark.parametrize("pair", ["1x,23", "1.x,23", ",23", "15,23", "123,23", pytest.param("", id="empty")])
def test_bad_pair_is_a_usage_error_naming_the_flag(capsys, pair):
    for task in ([], ["--verify-hodge"]):
        code, out, err = run(capsys, "straighten", "--grassmann", "2,4", "--pair", pair, *task)
        assert code == 2
        assert out == ""
        assert "--pair" in err and repr(pair) in err and "invalid literal" not in err


def test_straighten_verify_hodge(capsys):
    code, out, _ = run(
        capsys, "straighten", "--grassmann", "2,4", "--verify-hodge", "--degree", "2"
    )
    assert code == 0
    assert "degree 2: chains 20, rank check PASS" in out
    assert "Schubert restriction checks: PASS" in out


def test_json_output_deterministic(capsys):
    argv = ["straighten", "--grassmann", "2,4", "--pair", "14,23", "--json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["relation"]["lhs"] == [[1, 4], [2, 3]]
    assert payload["relation"]["exact"] is True
    assert payload["relation"]["rhs"][0]["c"] in ("+1", "-1")


def test_admissible_json_schema(capsys):
    code, out, _ = run(capsys, "admissible", "--type", "C2", "--weight", "0,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == payload["weyl_dim"] == 5
    for pair in payload["pairs"]:
        assert set(pair) == {"v", "w", "xi", "chain"}


def test_smt_json_schema(capsys):
    code, out, _ = run(
        capsys, "smt", "--type", "A2", "--weights", "1,0+0,1", "--pair", "e:w0", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 8
    for mono in payload["monomials"]:
        assert set(mono) == {"factors", "lifts", "weight"}
        assert len(mono["lifts"]) == 4


def test_usage_errors(capsys):
    code, _, err = run(capsys, "smt", "--type", "A2", "--weights", "1,0", "--pair", "nonsense")
    assert code == 2
    code, _, err = run(capsys, "straighten", "--grassmann", "3,9")
    assert code == 2
    code, _, err = run(capsys, "straighten", "--grassmann", "3,9", "--verify-hodge", "--degree", "2")
    assert code == 2
    assert "2520" in err and "cap" in err
    code, _, err = run(capsys, "smt", "--type", "A2", "--weights", "1,0,0", "--pair", "e:w0")
    assert code == 2
    # an empty --pair or --union is refused, not read as the default pair
    for flag in ("--pair", "--union"):
        code, out, err = run(capsys, "smt", "--type", "A2", "--weights", "1,0", flag, "")
        assert (code, out) == (2, "")
        assert err == f"error: {flag} is empty\n"
    # an empty --parabolic is refused, not read as the Borel case
    for parabolic, message in [
        ("", "--parabolic is empty"),
        (" ", "--parabolic is empty"),
        ("1,x", "bad --parabolic subset '1,x'"),
        ("3", "--parabolic subset '3' out of range"),
    ]:
        code, out, err = run(
            capsys, "smt", "--type", "A2", "--parabolic", parabolic, "--weights", "1,1",
            "--pair", "e:w0",
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--pair", "s1", "--pair 's1' must look like v:w"),
        ("--union", "e:s1+", "--union component '' must look like v:w"),
        ("--union", "s1+e:s1", "--union component 's1' must look like v:w"),
    ],
)
def test_malformed_smt_pair_names_its_flag(capsys, flag, text, message):
    code, out, err = run(capsys, "smt", "--type", "A2", "--weights", "1,0", flag, text)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_hodge_chain_cap_admits_gr36_degree2(capsys):
    # 175 chains in degree 2: under the cap, though r(n-r) = 9
    code, out, err = run(
        capsys, "straighten", "--grassmann", "3,6", "--verify-hodge", "--degree", "2",
        "--seeds", "1", "--json",
    )
    assert code == 0, err
    payload = json.loads(out)
    assert [d["chains"] for d in payload["verify_hodge"]["degrees"]] == [20, 175]
    assert all(d["rank_ok"] for d in payload["verify_hodge"]["degrees"])
    assert all(s["ok"] for s in payload["verify_hodge"]["schubert"])


@pytest.mark.parametrize(
    "grassmann, degree, figure",
    [
        ("2,6", 4, "1764 standard chains"),
        # one chain in degree 0, but the sweep would cover C(100, 50) indices
        ("50,100", 0, "5000 entries in a sampled slab"),
        # 31 chains, but each sample's minor table has 2^31 - 1 entries
        ("30,31", 1, "930 entries in a sampled slab"),
        ("1,100", 1, "10000 Schubert indices x restriction chains"),
        ("7,8", 1, "311 numbers per point sample"),
        ("2,7", 2, "4116 Schubert indices x restriction chains"),
        # 175 chains fit, but each of 60 seeds repeats every rank check
        pytest.param(
            "3,6 --seeds " + ",".join(str(s) for s in range(1, 61)), 2,
            "10500 seeds x chains in degree 2", id="3,6-60 seeds-2",
        ),
    ],
)
def test_hodge_work_cap_refuses_before_sampling(capsys, monkeypatch, grassmann, degree, figure):
    import smtkit.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled despite the cap")

    monkeypatch.setattr(cli, "verify_hodge_i", no_sampling)
    monkeypatch.setattr(cli, "verify_hodge_iii", no_sampling)
    code, out, err = run(
        capsys, "straighten", "--grassmann", *grassmann.split(), "--verify-hodge",
        "--degree", str(degree),
    )
    assert code == 2
    assert out == ""
    assert figure in err and "cap" in err


@pytest.mark.parametrize(
    "r, n, degree",
    [(2, 4, 1), (2, 4, 2), (2, 5, 1), (3, 5, 1), (3, 6, 2), (2, 5, 3), (6, 7, 2),
     (1, 16, 1), (1, 17, 1)],
)
def test_hodge_work_cap_admits(r, n, degree):
    from smtkit.cli import _check_hodge_work

    _check_hodge_work(r, n, degree, 3)


# straighten --verify-hodge --json, three seeds: the draws of
# schubert_point_sample and the sha256 of stdout.  The sweep's check on
# X_top = Gr(r, n) is the Hodge-I check of its degree, and its report is
# reused; checking it anew would draw 180, 378, 408, 30 and 1713 points for
# the same bytes.  At degree 0 there is no Hodge-I report to reuse.  A check
# with no off-X_I coordinate (the top cell, or degree 0) draws only the k
# points its rank reaches k on, per seed; any other draws 2k + 4 per seed.
HODGE_SWEEPS = [
    ("2,4", 1, 162, "3dd5a8fc84fb9abc53f9c47578215aed77847713c58f7fe119bdc36f0ed97a07"),
    ("2,4", 2, 318, "024de4e6c75cc4f739874369f9bc3eebeb577f574ba98d65fd041f5a62c370ea"),
    ("3,5", 1, 378, "907f8dafcde26463685643a98f82ca142a19ce4b8f0b67074c327d0d30e3c0a8"),
    ("2,5", 0, 30, "c3c309c3d9a7f471d133f5c096c36fd90f9da0f7f109d91a82e759dd3202c864"),
    ("2,5", 3, 1563, "e13b8fbad5612a43a7e690557cf2539dbd4960c2ddfa74c3328055992d5bfea6"),
]


@pytest.mark.parametrize(
    "grassmann, degree, draws, digest", HODGE_SWEEPS, ids=[f"{g}-{d}" for g, d, *_ in HODGE_SWEEPS]
)
def test_verify_hodge_checks_the_top_cell_once(
    capsys, monkeypatch, grassmann, degree, draws, digest
):
    import smtkit.pluecker as pl

    real = pl.schubert_point_sample
    calls = []

    def sample(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(pl, "schubert_point_sample", sample)
    code, out, _ = run(
        capsys, "straighten", "--grassmann", grassmann, "--verify-hodge",
        "--degree", str(degree), "--json",
    )
    assert code == 0
    assert len(calls) == draws
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pair_keeps_its_size_check(capsys):
    code, _, err = run(capsys, "straighten", "--grassmann", "3,6", "--pair", "145,236")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("grassmann", ["0,4", "4,4", "5,4", "2,x", "2"])
@pytest.mark.parametrize("task", [["--pair", "1,2"], ["--verify-hodge"]])
def test_bad_grassmann_is_a_usage_error_not_a_cap(capsys, grassmann, task):
    code, out, err = run(capsys, "straighten", "--grassmann", grassmann, *task)
    assert code == 2
    assert out == ""
    assert err == f"error: --grassmann expects 1 <= r < n, not {grassmann!r}\n"


def test_negative_degree_is_a_usage_error_naming_the_flag(capsys):
    code, out, err = run(capsys, "straighten", "--grassmann", "2,4", "--verify-hodge", "--degree", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: --degree must be nonnegative, not -1\n"


def test_degree_over_the_cap_is_a_usage_error_naming_the_flag(capsys):
    code, out, err = run(capsys, "straighten", "--grassmann", "2,4", "--verify-hodge", "--degree", "5")
    assert code == 2
    assert out == ""
    assert err == "error: --degree 5 exceeds cap 4\n"


@pytest.mark.parametrize("task", [["--pair", "14,23"], []])
def test_degree_without_verify_hodge_is_a_usage_error(capsys, task):
    code, out, err = run(capsys, "straighten", "--grassmann", "2,4", *task, "--degree", "9")
    assert code == 2
    assert out == ""
    assert err == "error: --degree needs --verify-hodge\n"


def test_broken_invariant_is_a_failed_check(capsys, monkeypatch):
    import smtkit.cli as cli

    def broken(*args, **kwargs):
        raise AssertionError("straightening term violates the order condition")

    monkeypatch.setattr(cli, "straighten", broken)
    code, out, err = run(capsys, "straighten", "--grassmann", "2,4", "--pair", "14,23")
    assert code == 1
    assert out == ""
    assert err == "error: invariant violated: straightening term violates the order condition\n"
    assert "Traceback" not in err


SEQUENCE = [
    ["admissible", "--type", "A2", "--weight", "1,0"],
    ["admissible", "--type", "C2", "--weight", "0,1", "--json"],
    ["smt", "--type", "A2", "--weights", "1,1", "--union", "e:s1.s2+e:s2.s1"],
    ["smt", "--type", "A2", "--weights", "1,0+0,1", "--pair", "e:w0", "--verify-count"],
    ["smt", "--type", "A2"],
    ["admissible", "--type", "G2", "--weight", "1,0"],
    ["straighten", "--grassmann", "2,4", "--verify-hodge", "--degree", "1", "--json"],
    ["straighten", "--grassmann", "2,4", "--pair", "14,23"],
    ["straighten", "--grassmann", "3,9"],
    ["admissible", "--type", "A2", "--weight", "1,0"],
]


def test_repeated_calls_in_one_process_match_separate_runs(capsys):
    # the parser is built once per process: no call may leak into the next
    in_process = []
    for argv in SEQUENCE:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(smtkit.__file__)))
    for argv, got in zip(SEQUENCE, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "smtkit.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
