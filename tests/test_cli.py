"""Command-line interface: output formats, exit codes, claim files."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cli_cases
from qseries import cli, expr, mock, partitions
from qseries.cli import main


# modules the package's start-up must not import: dataclasses pulls in inspect,
# importlib.resources costs 13-20 ms under python -S, and typing about 3.5 ms
SLOW_IMPORTS = ("dataclasses", "inspect", "importlib.resources", "typing")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refuse_to_evaluate(*args):
    raise AssertionError("a node was evaluated past the cap")


# an inner node of each expression spans more coefficients than the cap, though
# its leaves and its read do not; (expression, order, the node's span)
INNER_NODES_PAST_THE_CAP = [
    ("SUB(SUB(q^-1000,1000),1000)", 1, 1_000_000_001),
    ("AP(AP(SUB(SUB(l(1),1000),1000),1000,0),1000,0)", 1000, 999_000_001),
    ("AP(SUB(l(1),1000),1000,0)", 50_000, 49_999_001),
    ("SUB(q^-1000,1000)", 1, 1_000_001),
]

# (2^1000)^15 = 2^15000 has 4516 digits, past the interpreter's default limit
# of 4300 digits on converting an int to text
BIG = "(2^1000)^15"
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
past_the_digit_limit = pytest.mark.skipif(
    not 0 < _DIGIT_LIMIT < 4516, reason="2^15000 is within this interpreter's digit limit"
)
DIGITS_ERROR = (
    f"error: a coefficient has more than {_DIGIT_LIMIT} digits, the limit for printing an integer\n"
)


def _param(case):
    past = case["argv"][:2] in (["series", BIG], ["series", f"1/{BIG}"])
    return pytest.param(case, marks=past_the_digit_limit if past else (), id=cli_cases.case_id(case))


@pytest.mark.parametrize("case", [_param(case) for case in cli_cases.load()])
def test_cli_case(capsys, monkeypatch, case):
    """A row of tests/data/cli_cases.jsonl, from the root and a cold mock cache
    as a process starts; one that closes the pipe or has a timeout is a process."""
    monkeypatch.chdir(cli_cases.ROOT)

    def in_process(argv):
        mock._cache.clear()
        return (main(list(argv)), *capsys.readouterr())

    def as_process(argv):
        return cli_cases.run_process([sys.executable, "-m", "qseries"], case, argv)

    run = as_process if "head" in case or "timeout" in case else in_process
    assert cli_cases.check(case, run) == []


def test_case_table_refuses_a_vacuous_pass(tmp_path):
    table = tmp_path / "cases.jsonl"
    for rows, message in [
        ([], "no cases"),
        ([{"argv": [], "exit": 2, "stdrr_has": "usage"}], "unknown field 'stdrr_has'"),
        ([{"argv": [], "stderr_has": "usage"}], "needs 'argv' and 'exit'"),
        ([{"argv": [], "exit": 0, "stdout": "", "stdout_of": []}], "at most one of"),
    ]:
        table.write_text("".join(json.dumps(row) + "\n" for row in rows))
        with pytest.raises(ValueError, match=message):
            cli_cases.load(table)


class TestCoeff:
    def test_v_values(self, capsys):
        code, out, _ = run_cli(capsys, "coeff", "v", "1", "3", "5")
        assert code == 0
        assert out.strip() == "1 1 3"

    def test_unknown_mock(self, capsys):
        code, out, err = run_cli(capsys, "coeff", "omega", "1")
        assert (code, out, err) == (2, "", "error: unknown mock theta function 'omega'\n")

    def test_index_beyond_the_cap(self, capsys):
        code, out, err = run_cli(capsys, "coeff", "lambda", "100000")
        assert code == 2 and out == ""
        assert "beyond the cap 50000" in err


class TestSeries:
    def test_jacobi_cube_dense(self, capsys):
        code, out, _ = run_cli(capsys, "series", "l(1)^3", "--order", "11")
        assert code == 0
        assert out.strip() == "1 - 3q + 5q^3 - 7q^6 + 9q^10 + O(q^11)"

    def test_sparse_beyond_fifty(self, capsys):
        code, out, _ = run_cli(capsys, "series", "l(1)", "--order", "60")
        assert code == 0
        assert "0:1 1:-1 2:-1 5:1" in out

    # an integer past the interpreter's int() digit limit, or a character the
    # tokenizer does not know, is a parse error, not a traceback
    @pytest.mark.parametrize("text", ["l(", "1" + "0" * 5000, "q^" + "9" * 5000, "l(1) $"])
    def test_parse_error(self, capsys, text):
        code, _, err = run_cli(capsys, "series", text, "--order", "10")
        assert code == 2
        assert "offset" in err

    def test_folded_triple_product_prints_its_theta_series(self, capsys):
        folded = run_cli(capsys, "series", "poch(-q,2)^2*poch(q^2,2)", "--order", "30")
        assert folded == run_cli(capsys, "series", "f(q,q)", "--order", "30")
        assert folded[0] == 0

    @pytest.mark.parametrize(
        "text, want",
        [
            ("(-l(1000000000))", "-1 + O(q^5)"),
            ("2*l(1000000000)", "2 + O(q^5)"),
            ("l(1000000000)^2", "1 + O(q^5)"),
        ],
    )
    def test_eta_index_far_above_the_order(self, capsys, text, want):
        assert run_cli(capsys, "series", text, "--order", "5") == (0, want + "\n", "")

    def test_deep_nesting(self, capsys):
        text = "(" * 3000 + "l(1)" + ")" * 3000
        code, _, err = run_cli(capsys, "series", text, "--order", "10")
        assert code == 2
        assert "nested deeper" in err and "offset" in err

    def test_huge_exponent(self, capsys):
        code, _, err = run_cli(capsys, "series", "l(1)^100000000", "--order", "5")
        assert code == 2
        assert "exponent" in err and "offset" in err

    def test_deepest_leaf_is_capped(self, capsys):
        code, _, err = run_cli(capsys, "series", "AP(AP(mock(lambda),100,0),100,0)", "--order", "10")
        assert code == 2
        assert "beyond the cap 50000" in err

    @pytest.mark.parametrize("text, order, span", INNER_NODES_PAST_THE_CAP)
    def test_inner_node_is_capped(self, capsys, monkeypatch, text, order, span):
        monkeypatch.setattr(expr, "_apply", refuse_to_evaluate)
        code, out, err = run_cli(capsys, "series", text, "--order", str(order))
        assert (code, out) == (2, "")
        assert err == f"error: expansion needs order {span}, beyond the cap 50000\n"

    def test_runs_the_plan_the_cap_checked(self, capsys, monkeypatch):
        capped, ran = [], []
        real_cap, real_run = cli.within_cap, cli.run
        monkeypatch.setattr(cli, "within_cap", lambda *a: capped.extend(real_cap(*a)) or capped)
        monkeypatch.setattr(cli, "run", lambda plan: ran.append(plan) or real_run(plan))
        assert run_cli(capsys, "series", "q^-1*mock(v)/l(1)", "--order", "3")[0] == 0
        assert len(capped) == len(ran) == 1 and ran[0] is capped[0]

    @pytest.mark.parametrize(
        "text, want",
        [
            # MAX_DEPTH = 400 factors and 400 terms, each a tree at the depth limit
            ("*".join(["mock(v)"] + ["l(1)"] * (expr.MAX_DEPTH - 1)), "q - 398q^2 + O(q^3)"),
            ("+".join(["mock(v)"] * expr.MAX_DEPTH), "400q + 400q^2 + O(q^3)"),
        ],
        ids=["product", "sum"],
    )
    def test_chain_at_the_depth_limit(self, capsys, text, want):
        assert run_cli(capsys, "series", text, "--order", "3") == (0, want + "\n", "")

        # planning and running take one frame per level, so a caller 200
        # frames deep still has room
        def deeper(frames):
            return deeper(frames - 1) if frames else run_cli(capsys, "series", text, "--order", "3")

        assert deeper(200) == (0, want + "\n", "")

    def test_order_is_exact(self, capsys):
        code, out, _ = run_cli(capsys, "series", "q^-2*l(1)", "--order", "3")
        assert code == 0
        assert out.strip() == "q^-2 - q^-1 - 1 + O(q^3)"

    def test_reciprocal_of_a_mock_stream(self, capsys):
        # v(q) starts at q^1, so 1/v(q) starts at q^-1
        code, out, _ = run_cli(capsys, "series", "1/mock(v)", "--order", "6")
        assert (code, out) == (0, "q^-1 - 1 - q^2 + q^4 + O(q^6)\n")

    def test_unknown_ruleset(self, capsys):
        code, out, err = run_cli(capsys, "series", "ruleset(bogus)")
        assert (code, out, err) == (2, "", "error: unknown ruleset 'bogus' at offset 0\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("-l(1)^2", "--order", "3"),
            ("--order", "3", "-l(1)^2"),
            ("--order", "3", "--", "-l(1)^2"),
        ],
    )
    def test_leading_minus_is_the_expression(self, capsys, argv):
        code, out, err = run_cli(capsys, "series", *argv)
        assert (code, out, err) == (0, "-1 + 2q + q^2 + O(q^3)\n", "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("series",), "the following arguments are required: expr"),
            (("series", "-l(1)", "-x"), "the following arguments are required: expr"),
            (("series", "l(1)", "-x"), "unrecognized arguments: -x"),
            (("series", "-l(1)", "--order", "3", "--bogus"),
             "the following arguments are required: expr"),
            (("verify", "thm3.1", "-l(1)"), "unrecognized arguments: -l(1)"),
        ],
    )
    def test_other_unknown_arguments_stay_usage_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")


class TestVerify:
    def test_single_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm3.3i")
        assert code == 0
        assert "pass" in out

    def test_single_fail_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm5.1")
        assert code == 1
        assert "first n=0" in out

    def test_unknown_claim_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "verify", "thm99")
        assert code == 2
        assert "unknown claim" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "eq2.5.psi", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data[0]["id"] == "eq2.5.psi"
        assert data[0]["status"] == "pass"

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "eq2.5.psi", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "id,status,order,first_n,elapsed_ms"

    def test_json_byte_stable(self, capsys):
        scrub = lambda s: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', s)
        _, out1, _ = run_cli(capsys, "verify", "eq2.6.fneg", "--format", "json")
        _, out2, _ = run_cli(capsys, "verify", "eq2.6.fneg", "--format", "json")
        assert scrub(out1) == scrub(out2)

    def test_all_json_is_the_pinned_registry_reports(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--format", "json")
        assert code == 1
        reports = json.loads(out)
        for r in reports:
            del r["elapsed_ms"]
        pinned = json.loads((Path(__file__).parent / "data" / "verify_all.json").read_text())
        assert reports == sorted(pinned, key=lambda r: r["id"])

    def test_claim_file(self, capsys, tmp_path):
        path = tmp_path / "user.claims"
        path.write_text(
            "[claim]\nid=user.one\ntype=identity\nlhs=SUB(l(1),2)\nrhs=l(2)\norder=80\n"
        )
        code, out, _ = run_cli(capsys, "verify", "user.one", "--claims", str(path))
        assert code == 0
        assert "user.one" in out

    def test_claim_file_id_collision(self, capsys, tmp_path):
        path = tmp_path / "user.claims"
        path.write_text("[claim]\nid=thm3.1\ntype=identity\nlhs=l(1)\nrhs=l(1)\norder=10\n")
        code, _, err = run_cli(capsys, "verify", "thm3.1", "--claims", str(path))
        assert code == 2
        assert "collides" in err

    def test_claim_file_duplicate_id_exits_two(self, capsys, tmp_path):
        # no registry claim is named 'mine': the file names it twice
        path = tmp_path / "user.claims"
        record = "[claim]\nid=mine\ntype=identity\nlhs=l(1)\nrhs=l(1)\norder=10\n"
        path.write_text(record + record)
        code, out, err = run_cli(capsys, "verify", "mine", "--claims", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}:8: duplicate claim id 'mine'\n"

    def test_claim_files_sharing_an_id_exit_two(self, capsys, tmp_path):
        first, second = tmp_path / "a.claims", tmp_path / "b.claims"
        for path in (first, second):
            path.write_text("[claim]\nid=mine\ntype=identity\nlhs=l(1)\nrhs=l(1)\norder=10\n")
        code, out, err = run_cli(
            capsys, "verify", "mine", "--claims", str(first), "--claims", str(second)
        )
        assert (code, out) == (2, "")
        assert err == f"error: claim id 'mine' is in both {first} and {second}\n"

    def test_claim_file_unknown_direct_route_exits_two(self, capsys, tmp_path):
        path = tmp_path / "user.claims"
        path.write_text("[claim]\nid=x\ntype=recurrence\nlhs=l(1)\nrhs=l(1)\ndirect=thm9.9\n")
        code, out, err = run_cli(capsys, "verify", "x", "--claims", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: claim 'x' field 'direct': unknown route 'thm9.9'\n"

    def test_claim_file_missing_a_field_exits_two(self, capsys, tmp_path):
        path = tmp_path / "user.claims"
        path.write_text("[claim]\nid=x\ntype=identity\nrhs=l(1)\n")
        code, out, err = run_cli(capsys, "verify", "--claims", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: claim 'x' missing field 'lhs'\n"

    @pytest.mark.parametrize(
        "lhs, message",
        [
            ("l(", "expected an integer at offset 2"),
            ("l(1)^2*" + "1" * 5000, "integer of 5000 digits is too long at offset 7"),
            # one single-fault input per call atom
            ("l(0)", "expected a positive integer at offset 2"),
            ("mock(omega)", "unknown mock theta function 'omega' at offset 0"),
            ("f(q^0,q^0)", "f(c, d) with a + b = 0 does not converge at offset 0"),
            ("phi(q^0)", "expected a positive power of q at offset 4"),
            ("psi(q^334)", "exponent 1002 is beyond the limit 1000 at offset 4"),
            ("poch(q^0,2)", "(1; q^step)_inf is the zero product at offset 0"),
            ("stream(cubes,1)", "unknown stream kind 'cubes' at offset 0"),
            ("ruleset(1)", "expected a name at offset 8"),
            ("AP(l(1),2,2)", "residue 2 out of range for modulus 2 at offset 10"),
            ("SUB(l(1),0)", "expected a positive integer at offset 9"),
            ("ALT(l(1)", "expected ')' at offset 8"),
        ],
    )
    def test_claim_file_expression_error_names_its_field(self, capsys, tmp_path, lhs, message):
        path = tmp_path / "user.claims"
        path.write_text(f"[claim]\nid=x\ntype=identity\nlhs={lhs}\nrhs=l(1)\n")
        code, out, err = run_cli(capsys, "verify", "--claims", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: claim 'x' field 'lhs': {message}\n"

    def test_claim_file_order_zero_exits_two(self, capsys, tmp_path):
        path = tmp_path / "user.claims"
        path.write_text("[claim]\nid=x\ntype=identity\nlhs=l(1)\nrhs=l(2)\norder=0\n")
        code, out, err = run_cli(capsys, "verify", "x", "--claims", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: claim 'x' field 'order' must be at least 1, got 0\n"

    def test_claim_file_modulus_zero_exits_two(self, capsys, tmp_path):
        path = tmp_path / "user.claims"
        path.write_text("[claim]\nid=x\ntype=congruence\nexpr=l(1)\nM=0\n")
        code, out, err = run_cli(capsys, "verify", "x", "--claims", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: claim 'x' field 'M' must be at least 2, got 0\n"

    def test_claim_file_negative_offset_exits_two(self, capsys, tmp_path):
        # B=-5 would read coefficients below q^0, which are 0: a vacuous pass
        path = tmp_path / "user.claims"
        path.write_text("[claim]\nid=x\ntype=congruence\nexpr=l(1)\nA=1\nB=-5\nM=7\ncount=5\n")
        code, out, err = run_cli(capsys, "verify", "x", "--claims", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: claim 'x' field 'B' must be at least 0, got -5\n"

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--order", "0"), ("--count", "0"), ("--order", "-5"),
            ("--max-order", "0"), ("--max-order", "-7"),
        ],
    )
    def test_empty_range_override_exits_two(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "verify", "thm3.1", flag, value)
        assert (code, out) == (2, "")
        assert f"argument {flag}: must be positive, got {value}" in err

    def test_missing_claim_file(self, capsys):
        code, _, err = run_cli(capsys, "verify", "all", "--claims", "/nonexistent.claims")
        assert code == 2

    def test_order_override(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "thm4.1", "--order", "50")
        assert code == 0

    def test_error_report_exits_two(self, capsys, tmp_path):
        path = tmp_path / "user.claims"
        path.write_text("[claim]\nid=user.half\ntype=identity\nlhs=l(1)/2\nrhs=l(1)\norder=20\n")
        code, out, _ = run_cli(capsys, "verify", "user.half", "--claims", str(path))
        assert code == 2
        assert "user.half" in out and " error " in out
        assert out.splitlines()[-1] == "-- 0 pass, 0 fail, 0 skipped, 1 error"
        code, out, _ = run_cli(
            capsys, "verify", "user.half", "--claims", str(path), "--format", "json"
        )
        assert code == 2
        (report,) = json.loads(out)
        assert report["status"] == "error" and report["first_failure"] is None

    def test_skipped_report_exits_two(self, capsys):
        # 60 001 terms of lambda(2n) span 120 001 coefficients, past the cap,
        # so the claim checks nothing, which is no pass
        code, out, err = run_cli(capsys, "verify", "thm6.1", "--count", "60000")
        assert (code, err) == (2, "")
        assert "needs order 120001, beyond the cap 50000" in out
        assert out.splitlines()[-1] == "-- 0 pass, 0 fail, 1 skipped, 0 error"

    @past_the_digit_limit
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_coefficient_past_the_digit_limit(self, capsys, tmp_path, fmt):
        path = tmp_path / "user.claims"
        path.write_text(f"[claim]\nid=big\ntype=identity\nlhs={BIG}\nrhs=0\norder=1\n")
        code, out, err = run_cli(capsys, "verify", "big", "--claims", str(path), "--format", fmt)
        if fmt == "csv":  # prints no coefficient, so the failure is reported
            assert (code, err) == (1, "")
            assert out.splitlines()[1].startswith("big,fail,1,0,")
        else:
            assert (code, out, err) == (2, "", DIGITS_ERROR)

    @past_the_digit_limit
    def test_divisor_lead_past_the_digit_limit_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "user.claims"
        path.write_text(f"[claim]\nid=big\ntype=identity\nlhs=1/{BIG}\nrhs=0\norder=2\n")
        code, out, _ = run_cli(capsys, "verify", "big", "--claims", str(path), "--format", "json")
        assert code == 2
        (report,) = json.loads(out)
        assert report["status"] == "error"
        assert report["message"] == "leading coefficient (4516 digits) is not +1 or -1"

    def test_deep_claim_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "user.claims"
        deep = "(" * 3000 + "l(1)" + ")" * 3000
        path.write_text(f"[claim]\nid=user.deep\ntype=identity\nlhs={deep}\nrhs=l(1)\n")
        code, _, err = run_cli(capsys, "verify", "all", "--claims", str(path))
        assert code == 2
        assert "nested deeper" in err


class TestEnumerate:
    def test_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "thm3.2", "2")
        assert code == 0
        assert out.strip() == "3"

    def test_count_below_zero(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "thm3.2", "-1")
        assert (code, out) == (0, "0\n")

    @pytest.mark.parametrize("name", sorted(partitions.RULESETS))
    def test_count_is_the_signed_count_of_the_listing(self, capsys, name):
        for n in range(-1, 9):
            code, out, _ = run_cli(capsys, "enumerate", name, str(n))
            listed = run_cli(capsys, "enumerate", name, str(n), "--list")
            assert code == listed[0] == 0
            assert f"signed count = {out.strip()}" == listed[1].splitlines()[-1]

    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "thm3.2", "2", "--list")
        assert code == 0
        # every line, in the order the walk lists the partitions
        assert out.splitlines() == ["+ 2b", "+ 2a", "+ 1a*2", "signed count = 3"]

    def test_signs_rendered(self, capsys):
        # distinct partitions of 3: {3} one part (sign -), {1,2} two parts (sign +)
        code, out, _ = run_cli(capsys, "enumerate", "distinct.signed", "3", "--list")
        assert code == 0
        assert "- 3a" in out
        assert "+ 1a 2a" in out
        assert "signed count = 0" in out

    def test_unknown_ruleset(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "bogus", "3")
        assert code == 2

    @pytest.mark.parametrize("n", [50_000, 10**11])
    def test_count_past_the_cap_is_refused_before_the_walk(self, capsys, monkeypatch, n):
        monkeypatch.setattr(partitions, "count_signed", refuse_to_evaluate)
        code, out, err = run_cli(capsys, "enumerate", "thm3.2", str(n))
        assert (code, out) == (2, "")
        assert err == f"error: enumeration needs order {n + 1}, beyond the cap 50000\n"

    def test_count_at_the_cap_walks(self, capsys, monkeypatch):
        bounds = []
        monkeypatch.setattr(
            partitions, "count_signed", lambda rs, bound: bounds.append(bound) or [7] * (bound + 1)
        )
        assert run_cli(capsys, "enumerate", "thm3.2", "49999") == (0, "7\n", "")
        assert bounds == [49_999]


class TestList:
    def test_registry_listing(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert "thm3.1" in out
        assert "Theorem 3.1" in out
        assert "note:" in out  # the defective claims are annotated


class TestUsage:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qseries", "coeff", "sigma", "0", "1", "2", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0 1 1 2"

    def test_start_up_imports_no_slow_module(self):
        # -S keeps site's .pth files, which may load those modules, out of it
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import qseries, qseries.cli; qseries.registry(); "
            f"print(qseries.__file__); print(*[m for m in {SLOW_IMPORTS!r} if m in sys.modules])"
        )
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [str(src / "qseries" / "__init__.py"), ""]
