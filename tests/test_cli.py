import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import compident
from compident import cli, graphs, reparametrization_from_json, verify_reparametrization
from compident.cli import main

from conftest import count_calls, isc_adversary


@pytest.fixture
def chain4_file(tmp_path, chain4):
    path = tmp_path / "chain4.json"
    path.write_text(chain4.to_json())
    return str(path)


@pytest.fixture
def broken4_file(tmp_path, broken4):
    path = tmp_path / "broken4.json"
    path.write_text(broken4.to_json())
    return str(path)


@pytest.fixture
def wheel5_file(tmp_path, wheel5):
    path = tmp_path / "wheel5.json"
    path.write_text(wheel5.to_json())
    return str(path)


@pytest.fixture
def path10_file(tmp_path):
    """The bidirected path on ten vertices, where (n-1)! = 362880."""
    edges = []
    for v in range(1, 10):
        edges += [[v, v + 1], [v + 1, v]]
    path = tmp_path / "path10.json"
    path.write_text(json.dumps({"n": 10, "edges": edges}))
    return str(path)


@pytest.fixture
def no_exchange5_file(tmp_path):
    """Maximal (m = 2n-2) with no exchange at vertex 1, so d <= 2n-2 < m+1."""
    path = tmp_path / "no_exchange5.json"
    path.write_text('{"n": 5, "edges": [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 2], [4, 5], [5, 1]]}')
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_chain4_json(self, capsys, chain4_file):
        code, out, _ = run(capsys, "analyze", chain4_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["strongly_connected"] is True
        assert doc["exchange"] == 2
        assert doc["isc_ordering"] == [1, 2, 3, 4]
        assert doc["dimension"]["d"] == 7 and doc["dimension"]["verdict"] is True

    def test_reduces_non_strongly_connected_input(self, capsys, tmp_path):
        path = tmp_path / "dangling.json"
        path.write_text('{"n":3,"edges":[[1,2],[2,1],[2,3]]}')
        code, out, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["strongly_connected"] is False
        assert doc["reduced"] == {"n": 2, "edges": [[1, 2], [2, 1]]}
        assert doc["dimension"]["n"] == 2

    def test_one_connectivity_check(self, capsys, monkeypatch, chain4_file, tmp_path):
        """`analyze` reads strong connectivity off `io_strong_component`,
        which hands back the graph itself exactly when it is strongly
        connected, so the verdict's own guard, one `_distances` walk each
        way, is the one check of a run, on the graph or on its reduction."""
        dangling = tmp_path / "dangling.json"
        dangling.write_text('{"n":3,"edges":[[1,2],[2,1],[2,3]]}')
        checks = count_calls(monkeypatch, graphs, "_distances")
        for path, sc in ((chain4_file, True), (str(dangling), False)):
            checks.clear()
            code, out, _ = run(capsys, "analyze", path, "--json")
            assert (code, json.loads(out)["strongly_connected"], len(checks)) == (0, sc, 2)

    def test_exact_full_rank_skips_bareiss(self, capsys, monkeypatch, tmp_path, path10_file):
        """At the min(2n-1, m+1) ceiling the rank mod p is the proof, so
        `--exact` answers without Bareiss and agrees with prime-field mode."""
        adversary = tmp_path / "adversary9.json"
        adversary.write_text(isc_adversary(9).to_json())

        def boom(rows):
            raise AssertionError("a full-rank verdict matrix reached Bareiss")

        monkeypatch.setattr(compident.exact, "rank_bareiss", boom)
        for path, d, verdict in ((path10_file, 19, True), (str(adversary), 17, False)):
            code, out, _ = run(capsys, "analyze", path, "--json", "--exact")
            assert code == 0
            doc = json.loads(out)
            assert doc["dimension"]["mode"] == "rational"
            assert (doc["dimension"]["d"], doc["dimension"]["verdict"]) == (d, verdict)
            _, prime_out, _ = run(capsys, "analyze", path, "--json")
            doc["dimension"]["mode"] = "prime-field"
            assert doc == json.loads(prime_out)

    # sha256 of stdout: `analyze --json`, then `analyze --json --exact`
    EXACT_AFTER_PRIME = {
        "path10": (
            "1efaffc6ed7a9557ad4e531fd5a62c20a50c53e12e9b7d063bccf03e8ef9dfbc",
            "4081d8f00089f507b7f4dce73ed5ecda158593fd1b6d1e758393295b4342011b",
        ),
        "adversary9": (
            "4b05896c4ae81a6fe5c119b2399fe6091f2dad305f7042c07d73edf53aed3d51",
            "00e3bc2ca584042f50cbe3bbe671d47814bb47a9d2758344b3b532aef181b9cb",
        ),
    }

    def test_exact_after_prime_makes_no_kernel_pass(self, capsys, monkeypatch, tmp_path, path10_file):
        """`analyze --json --exact` after `analyze --json` in one process
        reads the prime-field report from the verdict memo: the two runs
        make one graph's kernel passes in total, one pass for each of the
        bidirected path (n = 10) and the ISC adversary (n = 9), and print
        the pinned bytes."""
        adversary = tmp_path / "adversary9.json"
        adversary.write_text(isc_adversary(9).to_json())
        passes = count_calls(monkeypatch, compident.charpoly._VerdictKernel, "pivots")
        for name, path in (("path10", path10_file), ("adversary9", str(adversary))):
            passes.clear()
            digests = []
            for extra in ([], ["--exact"]):
                code, out, _ = run(capsys, "analyze", path, "--json", *extra)
                assert code == 0
                digests.append(hashlib.sha256(out.encode()).hexdigest())
            assert (tuple(digests), len(passes)) == (self.EXACT_AFTER_PRIME[name], 1), name

    def test_human_readable(self, capsys, chain4_file):
        code, out, _ = run(capsys, "analyze", chain4_file)
        assert code == 0
        assert "strongly connected: yes" in out
        assert "d=7" in out

    def test_bad_file_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 2
        assert "error:" in err


class TestReparam:
    def test_chain4_success(self, capsys, chain4_file):
        code, out, _ = run(capsys, "reparam", chain4_file, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["matrix"][1][0] == "a12*a21"
        assert doc["cycle_basis"] == ["a12*a21", "a23*a32", "a23*a34*a42"]

    def test_broken4_exit_code(self, capsys, broken4_file):
        code, out, _ = run(capsys, "reparam", broken4_file, "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["reparametrization"] is None
        assert doc["dimension"]["d"] == 6

    def test_edge_bound_exit_code(self, capsys, tmp_path):
        path = tmp_path / "k3.json"
        path.write_text('{"n":3,"edges":[[1,2],[1,3],[2,1],[2,3],[3,1],[3,2]]}')
        code, out, _ = run(capsys, "reparam", str(path), "--json")
        assert code == 1
        assert json.loads(out)["reason"] == "edge-bound"

    def test_edge_bound_document(self, capsys, tmp_path):
        """The whole refusal document past the edge bound: no dimension
        report, since none was computed."""
        path = tmp_path / "k3.json"
        path.write_text('{"n":3,"edges":[[1,2],[1,3],[2,1],[2,3],[3,1],[3,2]]}')
        assert run(capsys, "reparam", str(path), "--json") == (
            1,
            '{\n  "reparametrization": null,\n  "reason": "edge-bound",\n  "dimension": null\n}\n',
            "",
        )

    def test_trials_checked_on_both_sides_of_the_edge_bound(self, capsys, tmp_path, chain4_file):
        path = tmp_path / "k3.json"
        path.write_text('{"n":3,"edges":[[1,2],[1,3],[2,1],[2,3],[3,1],[3,2]]}')
        for graph in (chain4_file, str(path)):
            code, out, err = run(capsys, "reparam", graph, "--trials", "0")
            assert (code, out, err) == (2, "", "error: trials must be >= 1\n")

    def test_explicit_tree(self, capsys, wheel5_file):
        code, out, _ = run(
            capsys, "reparam", wheel5_file, "--tree", "a32,a43,a54,a15", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["tree_edges"] == [[5, 1], [2, 3], [3, 4], [4, 5]]
        assert doc["matrix"][1][0] == "a15*a21*a32*a43*a54"

    def test_tree_flag_takes_the_graphs_own_rate_names(self, capsys, path10_file, tmp_path):
        """Two-digit labels: a109 at n = 10, a<i>_<j> from n = 11 on."""
        default = run(capsys, "reparam", path10_file)
        tree = ",".join(f"a{v + 1}{v}" for v in range(1, 10))
        assert run(capsys, "reparam", path10_file, "--tree", tree) == default
        path = tmp_path / "cycle11.json"
        edges = [[v, v % 11 + 1] for v in range(1, 12)] + [[1, 11]]
        path.write_text(json.dumps({"n": 11, "edges": edges}))
        tree = ",".join(f"a{v + 1}_{v}" for v in range(1, 11))
        code, out, _ = run(capsys, "reparam", str(path), "--tree", tree)
        assert code == 0 and "cycle basis: q1 = a11_1*a1_11, q2 = " in out
        code, _, err = run(capsys, "reparam", str(path), "--tree", "a21,a32")
        assert code == 2 and "bad tree entry 'a21'" in err

    def test_bad_tree_flag(self, capsys, chain4_file):
        code, _, err = run(capsys, "reparam", chain4_file, "--tree", "a12,zz,a34")
        assert code == 2 and "error:" in err
        code, out, err = run(capsys, "reparam", chain4_file, "--tree", "")
        assert (code, out) == (2, "") and "bad tree entry ''" in err

    def test_round_trip(self, capsys, wheel5, wheel5_file):
        code, out, _ = run(capsys, "reparam", wheel5_file, "--json")
        assert code == 0
        rebuilt = reparametrization_from_json(wheel5, json.loads(out))
        assert verify_reparametrization(wheel5, rebuilt)


CHAIN4_TEXT = """\
spanning tree: a12, a23, a34
f_1 = 1
f_2 = a12
f_3 = a12*a23
f_4 = a12*a23*a34
reparametrized matrix:
  [a11, 1, 0, 0]
  [a12*a21, a22, 1, 0]
  [0, a23*a32, a33, 1]
  [0, a23*a34*a42, 0, a44]
cycle basis: q1 = a12*a21, q2 = a23*a32, q3 = a23*a34*a42
a21 -> q1
a32 -> q2
a42 -> q3
"""

WHEEL5_TEXT = """\
spanning tree: a13, a15, a21, a34
f_1 = 1
f_2 = a21^-1
f_3 = a13
f_4 = a13*a34
f_5 = a15
reparametrized matrix:
  [a11, 0, 1, 0, 1]
  [1, a22, 0, 0, 0]
  [a13*a31, a13*a21*a32, a33, 1, 0]
  [0, 0, a34*a43, a44, 0]
  [0, 0, 0, a13^-1*a15*a34^-1*a54, a55]
cycle basis: q1 = a13*a31, q2 = a34*a43, q3 = a13*a21*a32, q4 = a15*a31*a43*a54
a31 -> q1
a32 -> q3
a43 -> q2
a54 -> q1^-1*q2^-1*q4
"""


class TestTextOutput:
    """Exact stdout bytes of the human-readable forms."""

    def test_reparam(self, capsys, chain4_file, wheel5_file):
        assert run(capsys, "reparam", chain4_file) == (0, CHAIN4_TEXT, "")
        assert run(capsys, "reparam", wheel5_file) == (0, WHEEL5_TEXT, "")

    def test_analyze_not_strongly_connected(self, capsys, tmp_path):
        """The graph's own predicates, its input-output component, and the
        dimension of that component."""
        path = tmp_path / "dangling.json"
        path.write_text('{"n":3,"edges":[[1,2],[2,1],[2,3]]}')
        assert run(capsys, "analyze", str(path)) == (
            0,
            "graph: n=3, m=3\n"
            "strongly connected: no\n"
            "input-output component: n=2, edges=[(1, 2), (2, 1)]\n"
            "exchange vertex: 2\n"
            "inductively strongly connected: no\n"
            "image dimension of the input-output component: "
            "d=3 of expected m+1=3 (expected; trials=2, seed=0, mode=prime-field)\n",
            "",
        )

    def test_reparam_failures(self, capsys, tmp_path, broken4_file):
        path = tmp_path / "k3.json"
        path.write_text('{"n":3,"edges":[[1,2],[1,3],[2,1],[2,3],[3,1],[3,2]]}')
        assert run(capsys, "reparam", str(path)) == (
            1,
            "no identifiable scaling reparametrization exists: m=6 exceeds 2n-2=4; "
            "no identifiable scaling reparametrization exists\n",
            "",
        )
        assert run(capsys, "reparam", broken4_file) == (
            1,
            "no identifiable scaling reparametrization exists: d=6, expected m+1=7\n",
            "",
        )

    def test_conjectures(self, capsys):
        assert run(capsys, "conjectures", "4") == (
            0,
            "collapse-2n-4: tested 168, holds\ncollapse-n-1: tested 48, holds\n",
            "",
        )

    def test_io_equation_json(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text('{"n":2,"edges":[[1,2],[2,1]]}')
        assert run(capsys, "io-equation", str(path), "--json") == (
            0,
            '{\n  "equation": "y\'\' - (a11 + a22)*y\' + (a11*a22 - a12*a21)*y'
            ' = u1\' - a22*u1"\n}\n',
            "",
        )

    def test_graph_from_stdin(self, capsys, monkeypatch, chain4, wheel5):
        monkeypatch.setattr(sys, "stdin", io.StringIO(wheel5.to_json()))
        assert run(capsys, "reparam", "-") == (0, WHEEL5_TEXT, "")
        monkeypatch.setattr(sys, "stdin", io.StringIO(chain4.to_json()))
        assert run(capsys, "analyze", "-") == (
            0,
            "graph: n=4, m=6\n"
            "strongly connected: yes\n"
            "exchange vertex: 2\n"
            "inductively strongly connected: yes, ordering 1,2,3,4\n"
            "image dimension: d=7 of expected m+1=7 "
            "(expected; trials=2, seed=0, mode=prime-field)\n",
            "",
        )


class TestIoEquation:
    def test_exchange_pair(self, capsys, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text('{"n":2,"edges":[[1,2],[2,1]]}')
        code, out, _ = run(capsys, "io-equation", str(path))
        assert code == 0
        assert out.strip() == "y'' - (a11 + a22)*y' + (a11*a22 - a12*a21)*y = u1' - a22*u1"

    def test_non_strongly_connected_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "oneway.json"
        path.write_text('{"n":2,"edges":[[1,2]]}')
        code, _, err = run(capsys, "io-equation", str(path))
        assert code == 2 and "error:" in err

    def test_expansion_guard_is_exit_2(self, capsys, tmp_path):
        """The bidirected path on 20 vertices has tens of millions of terms,
        more memory than the expansion may take: it stops at the cap."""
        edges = [e for v in range(1, 20) for e in ([v, v + 1], [v + 1, v])]
        path = tmp_path / "path20.json"
        path.write_text(json.dumps({"n": 20, "edges": edges}))
        assert run(capsys, "io-equation", str(path)) == (
            2,
            "",
            "error: the input-output equation has more than 100,000 terms; "
            "it is too large to expand\n",
        )

    @pytest.mark.parametrize("flags", [["--exact"], ["--trials", "0"], ["--seed", "1"]])
    def test_takes_only_json(self, capsys, tmp_path, flags):
        """The equation is symbolic: no seed, trials or arithmetic mode."""
        path = tmp_path / "pair.json"
        path.write_text('{"n":2,"edges":[[1,2],[2,1]]}')
        with pytest.raises(SystemExit) as exc:
            main(["io-equation", str(path), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage: compident" in err and f"unrecognized arguments: {' '.join(flags)}" in err


class TestCensus:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "census", "3", "4")
        assert code == 0
        assert out == "n,m,A,B,C,D,E,F\n3,4,9,7,5,4,4,4\n"

    def test_json_detail(self, capsys):
        code, out, _ = run(capsys, "census", "3", "3", "--detail")
        assert code == 0
        doc = json.loads(out)
        assert doc["A"] == 2 and doc["C"] == 1
        assert len(doc["classes"]) == 1
        assert doc["classes"][0]["size"] == 2

    def test_detail_groups_its_row_once(self, capsys, grouped_rows):
        code, out, _ = run(capsys, "census", "4", "6", "--detail")
        assert code == 0 and len(json.loads(out)["classes"]) == 55
        assert grouped_rows == [(4, 6)]

    def test_guardrail_maps_to_exit_2(self, capsys):
        code, _, err = run(capsys, "census", "7", "7")
        assert code == 2 and "guardrail" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_checked_on_both_sides_of_the_edge_bound(self, capsys, trials):
        for m in ("4", "5"):  # 2n-2 = 4
            assert run(capsys, "census", "3", m, "--trials", trials) == (
                2,
                "",
                "error: trials must be >= 1\n",
            )


    @pytest.mark.parametrize("n, m, trials", [("3", "7", "0"), ("4", "3", "-3")])
    def test_trials_checked_on_rows_with_no_classes(self, capsys, n, m, trials):
        assert run(capsys, "census", n, m, "--trials", trials) == (
            2,
            "",
            "error: trials must be >= 1\n",
        )


class TestConjectures:
    def test_n3(self, capsys):
        code, out, _ = run(capsys, "conjectures", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert {r["conjecture"] for r in doc} == {"collapse-2n-4", "collapse-n-1"}
        assert all(r["holds"] for r in doc)

    def test_n5_document(self, capsys):
        code, out, _ = run(capsys, "conjectures", "5", "--json")
        assert code == 0
        assert json.loads(out) == [
            {"conjecture": "collapse-2n-4", "tested": 9136, "holds": True, "counterexamples": []},
            {"conjecture": "collapse-n-1", "tested": 216, "holds": True, "counterexamples": []},
        ]

    def test_guardrail_maps_to_exit_2(self, capsys):
        code, _, err = run(capsys, "conjectures", "7")
        assert code == 2 and "guardrail" in err


class TestPinnedBytes:
    """SHA-256 of stdout, pinned from the output before maximal graphs with
    no exchange were decided by the 2n-2 bound instead of by a rank."""

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["analyze", "G", "--json"], 0, "32ce548f45f8d8332dd6003995ff38b032fa392f988f5798ad583cc8b49928d4"),
            (["analyze", "G", "--json", "--exact"], 0, "0ad3c64701d8d78d50d886f773756e76e8c51bcfa828a3eefdb7fbb67bc338b8"),
            (["reparam", "G", "--json"], 1, "7851b2301e584e92bc1de54d7e9d19114ef3b4f8acbdfa060deceb85071405ce"),
            (["census", "5", "8"], 0, "e08bfc0bae5f13a0eefe1db20f15f91ae7480bdf65ecc0963dc4456ee1b52a4f"),
            (["conjectures", "5", "--json"], 0, "b0b6f9cc057536b2a68f1ba690bd68778504ab7a4758bd9e00b03f97b6fc973f"),
        ],
    )
    def test_stdout_digest(self, capsys, no_exchange5_file, argv, code, digest):
        argv = [no_exchange5_file if a == "G" else a for a in argv]
        got_code, out, _ = run(capsys, *argv)
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys, chain4_file):
        _, first, _ = run(capsys, "analyze", chain4_file, "--json", "--seed", "3")
        _, second, _ = run(capsys, "analyze", chain4_file, "--json", "--seed", "3")
        assert first == second
        _, third, _ = run(capsys, "reparam", chain4_file, "--json")
        _, fourth, _ = run(capsys, "reparam", chain4_file, "--json")
        assert third == fourth

    def test_calls_share_one_parser(self, capsys, wheel5_file):
        """In-process calls reuse one parser; a usage error exits with 2
        and leaves it working for the next call."""
        cli.build_parser.cache_clear()
        outputs = [run(capsys, "reparam", wheel5_file, "--json") for _ in range(2)]
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert outputs[0] == outputs[1] and outputs[0][0] == 0 and outputs[0][1]
        for argv in (["analyze"], ["frobnicate", wheel5_file], ["census", "3", "x"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: compident" in capsys.readouterr().err
        assert run(capsys, "reparam", wheel5_file, "--json") == outputs[0]
        assert cli.build_parser.cache_info().misses == 1

    def test_single_graph_queries_never_canonicalize(self, capsys, monkeypatch, path10_file):
        def refuse(graph):
            raise AssertionError("canonical_form called outside the census")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "compident" and hasattr(module, "canonical_form"):
                monkeypatch.setattr(module, "canonical_form", refuse)
        for argv in (
            ["analyze", path10_file, "--json"],
            ["analyze", path10_file, "--json", "--exact"],
            ["reparam", path10_file, "--json"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert json.loads(out)

    def test_bytes_independent_of_hash_seed(self, wheel5_file, path10_file):
        src = str(Path(compident.__file__).resolve().parents[1])
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            outputs.append(
                [
                    subprocess.run(
                        [sys.executable, "-m", "compident.cli", "analyze", path, "--json"],
                        env=env,
                        capture_output=True,
                        check=True,
                    ).stdout
                    for path in (wheel5_file, path10_file)
                ]
            )
        assert outputs[0] == outputs[1]
        assert all(outputs[0])
