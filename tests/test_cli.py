import json

import numpy as np
import pytest

from instability import channels as ch
from instability import serialize as sz
from instability import tasks as tk
from instability.cli import main
from instability.errors import ParseError
from instability.sampling import random_density
from tests.conftest import raised_lower_bound


@pytest.fixture
def workdir(tmp_path):
    sz.dump_json(sz.state_to_json(ch.plus_state(2)), str(tmp_path / "plus.json"))
    sz.dump_json(
        sz.channel_to_json(ch.dephaser(2)), str(tmp_path / "dephaser2.json")
    )
    with open(tmp_path / "deph_kind.json", "w") as fh:
        json.dump({"kind": "dephaser", "dim": 2}, fh)
    mixed = 0.6 * ch.plus_state(2) + 0.4 * np.eye(2) / 2
    sz.dump_json(sz.state_to_json(mixed), str(tmp_path / "mixed.json"))
    # flat Renyi curve near alpha = 1 (small relative-entropy variance), so
    # the 1e-3 continuity spot check is meaningful
    gentle = 0.3 * ch.plus_state(2) + 0.7 * np.eye(2) / 2
    sz.dump_json(sz.state_to_json(gentle), str(tmp_path / "gentle.json"))
    return tmp_path


class TestSerialize:
    def test_matrix_roundtrip(self, rng):
        from instability.sampling import random_hermitian

        m = random_hermitian(3, rng)
        assert np.allclose(sz.matrix_from_json(sz.matrix_to_json(m)), m)

    def test_channel_roundtrip(self, rng):
        from instability.sampling import random_full_rank_density

        c = ch.tensor_channels(
            ch.dephaser(2), ch.replacer(random_full_rank_density(2, rng, 0.2))
        )
        c2 = sz.channel_from_json(sz.channel_to_json(c))
        x = random_full_rank_density(4, rng)
        assert np.abs(c.apply(x) - c2.apply(x)).max() <= 1e-12

    def test_channel_roundtrip_keeps_a_near_identity_basis(self):
        # A basis within allclose's rtol of the identity is still written
        # out: reading it as the identity would move this replacer's fixed
        # state by 3e-7.
        gamma = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        c = ch.DestructionChannel(2, np.diag([np.exp(1e-6j), 1.0]), (ch.Block(2, 1, gamma),))
        c2 = sz.channel_from_json(json.loads(sz.dump_json(sz.channel_to_json(c))))
        assert np.array_equal(c2.basis, c.basis)
        assert np.array_equal(c2.fixed_state(), c.fixed_state())
        assert sz.channel_to_json(ch.dephaser(3))["basis"] == "identity"

    def test_named_shortcut(self):
        c = sz.channel_from_json({"kind": "cond_depolarizer", "d_a": 2, "d_b": 3})
        assert c.dim == 6

    def test_bad_payload(self):
        with pytest.raises(ParseError):
            sz.state_from_json({"dim": 2})
        with pytest.raises(ParseError):
            sz.matrix_from_json([[1, 2], [3, 4]])

    def test_inf_token(self):
        text = sz.dump_json({"value": float("inf")})
        assert json.loads(text)["value"] == "inf"


class TestCliCommands:
    def test_monotone_petz_example(self, workdir, capsys):
        code = main(
            [
                "monotone",
                "--state", str(workdir / "plus.json"),
                "--channel", str(workdir / "deph_kind.json"),
                "--alpha", "0.5",
                "--z", "1",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == pytest.approx(1.0, abs=1e-9)

    def test_monotone_emits_interval(self, workdir, capsys):
        # The fixed point's certified interval ends at its value; a closed
        # form's interval is the one point.
        io_args = ["--state", str(workdir / "mixed.json"), "--channel", str(workdir / "dephaser2.json")]
        for z, width in (("1.2", 1e-9), ("1", 0.0)):
            assert main(["monotone", *io_args, "--alpha", "1.5", "--z", z, "--lambda", "0.5"]) == 0
            data = json.loads(capsys.readouterr().out)
            lo, hi = data["interval"]
            assert hi == data["value"] and 0.0 <= hi - lo <= width

    def test_yield_and_cost(self, workdir, capsys):
        assert main(
            ["yield", "--state", str(workdir / "plus.json"), "--channel", str(workdir / "dephaser2.json")]
        ) == 0
        y = json.loads(capsys.readouterr().out)
        assert y["value"] == pytest.approx(1.0, abs=1e-6)
        assert y["method"] == "sdp"
        assert main(
            ["cost", "--state", str(workdir / "plus.json"), "--channel", str(workdir / "dephaser2.json")]
        ) == 0
        c = json.loads(capsys.readouterr().out)
        assert c["value"] == pytest.approx(1.0, abs=1e-9)

    def test_cost_interval(self, workdir, capsys):
        code = main(
            [
                "cost",
                "--state", str(workdir / "mixed.json"),
                "--channel", str(workdir / "dephaser2.json"),
                "--eps", "0.1",
                "--delta", "0.05",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        lo, hi = data["value"]
        assert lo <= hi <= lo + np.log2(20) + 1e-6
        assert data["method"] == "sdp"

    def test_crossed_cost_bounds_exit_3(self, workdir, monkeypatch, capsys):
        free = np.diag([0.3, 0.7]).astype(complex)
        sz.dump_json(sz.state_to_json(free), str(workdir / "free.json"))
        monkeypatch.setattr(tk, "dmax_smoothed_free", raised_lower_bound(0.1))
        code = main(
            [
                "cost",
                "--state", str(workdir / "free.json"),
                "--channel", str(workdir / "dephaser2.json"),
                "--eps", "0.1",
                "--delta", "0.05",
            ]
        )
        assert code == 3
        assert "cost bounds cross" in capsys.readouterr().err

    def test_battery(self, workdir, capsys):
        code = main(
            [
                "battery",
                "--state", str(workdir / "plus.json"),
                "--channel", str(workdir / "dephaser2.json"),
                "--eps", "0.1",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == pytest.approx(1 - np.log2(0.9), abs=1e-6)
        assert data["method"] == "sdp"

    def test_replacer_reports_the_exact_path(self, workdir, capsys):
        gamma = np.diag([0.25, 0.75]).astype(complex)
        sz.dump_json(sz.channel_to_json(ch.replacer(gamma)), str(workdir / "replacer.json"))
        io_args = ["--state", str(workdir / "mixed.json"), "--channel", str(workdir / "replacer.json")]
        for command in ("yield", "battery"):
            assert main([command, *io_args, "--eps", "0.1"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["method"] == "neyman_pearson"
            assert "sdp_gap" not in data["residuals"]

    def test_result_record_at_top_level(self, workdir, capsys):
        # One record shape: value, interval and method at the top level.  An
        # exact value has the interval [v, v], an interior-point one null,
        # and cost at eps > 0 keeps its value as the pair [lower, upper].
        io_args = ["--state", str(workdir / "mixed.json"), "--channel", str(workdir / "dephaser2.json")]
        runs = [
            (["monotone", "--alpha", "1.5", "--z", "1.2"], "fixed_point"),
            (["monotone", "--alpha", "0.5"], "closed_form_z1"),
            (["yield", "--eps", "0"], "closed_form"),
            (["yield", "--eps", "0.1"], "sdp"),
            (["battery", "--eps", "0"], "closed_form"),
            (["battery", "--eps", "0.1"], "sdp"),
            (["cost", "--eps", "0"], "closed_form"),
            (["cost", "--eps", "0.1", "--delta", "0.05"], "sdp"),
        ]
        for command, method in runs:
            assert main([command[0], *io_args, *command[1:]]) == 0, command
            data = json.loads(capsys.readouterr().out)
            assert data["method"] == method, command
            assert "method" not in data.get("witness", {}), command
            if command[0] != "monotone":
                assert ("sdp_gap" in data["residuals"]) == (method == "sdp"), command
            if data.get("quantity") == "cost_interval":
                lo, hi = data["value"]
                assert data["interval"] == [lo, hi] and lo <= hi
            elif method == "sdp":
                assert data["interval"] is None, command
            elif method == "fixed_point":
                lo, hi = data["interval"]
                assert lo <= hi == data["value"]
            else:
                assert data["interval"] == [data["value"]] * 2, command

    def test_deterministic_output(self, workdir, tmp_path):
        args = [
            "monotone",
            "--state", str(workdir / "mixed.json"),
            "--channel", str(workdir / "dephaser2.json"),
            "--alpha", "1.5",
            "--z", "1.2",
            "--lambda", "0.5",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_sweep(self, workdir, capsys):
        code = main(
            [
                "sweep",
                "--state", str(workdir / "mixed.json"),
                "--channel", str(workdir / "dephaser2.json"),
                "--alphas", "0.5,0.99,1.01,3.0",
                "--zs", "1.0",
                "--lambdas", "0,1",
                "--workers", "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "alpha,z,lambda,value,residual,method,iterations"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 8
        # invalid (alpha=3, z=1) rows are reported but skipped
        bad = [r for r in rows if r[0] == "3"]
        assert all(r[5] == "outside_dpi" and r[3] == "" for r in bad)

    def test_sweep_workers_match_serial(self, workdir, tmp_path, capsys):
        from instability.sampling import random_full_rank_density, random_unitary

        rng = np.random.default_rng(5)
        c = ch.tpce([(1, 2), (2, 1)], basis=random_unitary(4, rng))
        sz.dump_json(sz.channel_to_json(c), str(tmp_path / "rotated.json"))
        sz.dump_json(
            sz.state_to_json(random_full_rank_density(4, rng)), str(tmp_path / "rho4.json")
        )
        args = [
            "sweep",
            "--state", str(tmp_path / "rho4.json"),
            "--channel", str(tmp_path / "rotated.json"),
            "--alphas", "0.5,0.8,1.5",
            "--zs", "0.75,1,1.25",
            "--lambdas", "0,0.5",
        ]
        # 18 points: more than the 8 below which the sweep stays serial.
        assert main(args + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert len(serial.strip().split("\n")) == 19

    def test_sweep_alpha_continuity(self, workdir, capsys):
        from instability import optimize as op

        code = main(
            [
                "sweep",
                "--state", str(workdir / "gentle.json"),
                "--channel", str(workdir / "dephaser2.json"),
                "--alphas", "0.99,1.01",
                "--zs", "1.0",
                "--lambdas", "0",
                "--workers", "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        gentle = sz.state_from_json(sz.load_json_file(str(workdir / "gentle.json")))
        target = op.umegaki_free(gentle, ch.dephaser(2)).value
        for line in lines:
            assert float(line.split(",")[3]) == pytest.approx(target, abs=1e-3)

    def test_sweep_petz_monotone_in_alpha(self, workdir, capsys):
        # Renyi monotonicity in alpha along the Petz line
        code = main(
            [
                "sweep",
                "--state", str(workdir / "mixed.json"),
                "--channel", str(workdir / "dephaser2.json"),
                "--alphas", "0.3,0.5,0.7,0.9,1.1,1.4,1.8",
                "--zs", "1.0",
                "--lambdas", "0",
                "--workers", "1",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        values = [float(line.split(",")[3]) for line in lines]
        assert all(values[i] <= values[i + 1] + 1e-9 for i in range(len(values) - 1))

    def test_sweep_lambda_one_column(self, workdir, capsys):
        from instability import divergences as dv

        code = main(
            [
                "sweep",
                "--state", str(workdir / "mixed.json"),
                "--channel", str(workdir / "dephaser2.json"),
                "--alphas", "0.6",
                "--zs", "1.0",
                "--lambdas", "1",
                "--workers", "1",
            ]
        )
        assert code == 0
        line = capsys.readouterr().out.strip().split("\n")[1]
        mixed = sz.state_from_json(sz.load_json_file(str(workdir / "mixed.json")))
        expected = dv.d_alpha_z(
            mixed, ch.dephaser(2).apply(mixed), alpha=0.6, z=1.0
        )
        assert float(line.split(",")[3]) == pytest.approx(expected, abs=1e-9)

    def test_regularize(self, workdir, capsys):
        code = main(
            [
                "regularize",
                "--state", str(workdir / "mixed.json"),
                "--channel", str(workdir / "dephaser2.json"),
                "--eps", "0.05",
                "--nmax", "2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "n,yield_rate,cost_lo_rate,cost_hi_rate,umegaki"
        assert len(lines) == 3

    def test_verify_subset(self, capsys):
        assert main(["verify", "--seed", "3", "--suites", "schatten,effects"]) == 0
        out = capsys.readouterr().out
        assert "2/2 suites passed" in out

    def test_verify_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "--suites", "nope"]) == 2
        assert "known:" in capsys.readouterr().err


class TestExitCodes:
    def test_parse_error(self, workdir, capsys):
        assert main(
            ["yield", "--state", "/nonexistent.json", "--channel", str(workdir / "dephaser2.json")]
        ) == 1

    @pytest.mark.parametrize(
        "state, channel",
        [
            (None, {"kind": "dephaser", "dim": "x"}),
            (None, {"kind": "dephaser", "dim": 2.5}),
            (None, {"kind": "dephaser", "dim": -1}),
            (None, {"kind": "tpce", "shape": [[1]]}),
            (None, {"dim": 2, "blocks": [{"dA": "a", "dB": 1, "tau": [[[1, 0]]]}]}),
            (None, {"dim": 2, "blocks": "ab"}),
            (None, {"kind": ["dephaser"], "dim": 2}),
            (None, {"kind": "tpce", "shape": [[1, 2]], "dim": 5}),
            (None, {"kind": "dephaser", "dim": 2, "gamma_typo": 1}),
            (None, {"dim": 2, "blocks": [{"dA": 1, "dB": 2, "tau": [[[1, 0]]]}], "bases": "identity"}),
            (None, {"dim": 2, "blocks": [{"dA": 1, "dB": 2, "tau": [[[1, 0]]], "db": 2}]}),
            (None, {"kind": "dephazer", "dim": 2}),
            (None, {"kind": "dephaser"}),
            ({"dim": "x", "matrix": [[[1, 0]]]}, None),
            ("directory", None),
            (b'{"dim": 2, "matrix": "\xff"}', None),
        ],
        ids=["dim-string", "dim-fraction", "dim-negative", "short-shape", "dA-string",
             "blocks-string", "kind-list", "tpce-dim", "kind-unknown-field",
             "channel-unknown-field", "block-unknown-field", "kind-unknown", "kind-missing-field",
             "state-dim-string", "directory", "not-utf8"],
    )
    def test_malformed_input_is_a_parse_error(self, workdir, capsys, state, channel):
        # None keeps a valid file; each malformed one exits 1 with the JSON error.
        paths = []
        for name, payload, valid in (
            ("state", state, "mixed.json"), ("channel", channel, "dephaser2.json")
        ):
            path = workdir / (valid if payload is None else f"bad_{name}.json")
            if payload == "directory":
                path.mkdir()
            elif isinstance(payload, bytes):
                path.write_bytes(payload)
            elif payload is not None:
                path.write_text(json.dumps(payload))
            paths.append(str(path))
        assert main(["yield", "--state", paths[0], "--channel", paths[1], "--eps", "0.1"]) == 1
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "parse"

    def test_validation_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad_state.json"
        # trace 1.8: parses fine but fails the density validation
        bad.write_text(
            json.dumps({"dim": 2, "matrix": [[[0.9, 0], [0, 0]], [[0, 0], [0.9, 0]]]})
        )
        assert main(
            ["yield", "--state", str(bad), "--channel", str(workdir / "dephaser2.json")]
        ) == 2

    def test_alpha_one_is_validated(self, workdir, capsys):
        # alpha = 1 collapses onto the Umegaki monotone only after the inputs
        # pass the same checks as every other alpha.
        io_args = ["--state", str(workdir / "plus.json"), "--channel", str(workdir / "dephaser2.json")]
        for bad in (["--lambda", "1.5"], ["--z", "-1"]):
            assert main(["monotone", *io_args, "--alpha", "1", *bad]) == 2, bad

    def test_negative_cost_eps_is_validated(self, workdir, capsys):
        io_args = ["--state", str(workdir / "mixed.json"), "--channel", str(workdir / "dephaser2.json")]
        for command in ("cost", "yield", "battery"):
            assert main([command, *io_args, "--eps", "-0.5"]) == 2, command

    def test_regularize_needs_one_copy(self, workdir, capsys):
        io_args = ["--state", str(workdir / "mixed.json"), "--channel", str(workdir / "dephaser2.json")]
        for nmax in ("0", "-3"):
            assert main(["regularize", *io_args, "--nmax", nmax]) == 2, nmax

    def test_infinite_z_is_outside_the_dpi_region(self, workdir, capsys):
        io_args = ["--state", str(workdir / "mixed.json"), "--channel", str(workdir / "dephaser2.json")]
        assert main(["monotone", *io_args, "--alpha", "0.5", "--z", "inf"]) == 2
        capsys.readouterr()
        assert main(["sweep", *io_args, "--alphas", "0.5", "--zs", "1,inf", "--workers", "1"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[2].split(",")[:2] == ["0.5", "inf"] and rows[2].split(",")[5] == "outside_dpi"

    def test_regularize_eps_is_validated_without_sdp_rows(self, tmp_path, capsys):
        # At d = 65 no row reaches a program.
        rho = random_density(65, np.random.default_rng(0))
        sz.dump_json(sz.state_to_json(rho), str(tmp_path / "rho65.json"))
        (tmp_path / "deph65.json").write_text(json.dumps({"kind": "dephaser", "dim": 65}))
        io_args = ["--state", str(tmp_path / "rho65.json"), "--channel", str(tmp_path / "deph65.json")]
        assert main(["regularize", *io_args, "--eps", "-1", "--nmax", "2"]) == 2

    def test_task_outputs_are_strict_json(self, workdir, capsys):
        # No NaN or Infinity token, at eps = 0, inside (0, 1) and at 1.
        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        io_args = ["--state", str(workdir / "mixed.json"), "--channel", str(workdir / "dephaser2.json")]
        for command in ("yield", "battery", "cost"):
            for eps in ("0", "0.1", "1"):
                delta = ["--delta", "0.05"] if command == "cost" and eps != "0" else []
                capsys.readouterr()
                assert main([command, *io_args, "--eps", eps, *delta]) == 0, (command, eps)
                data = json.loads(capsys.readouterr().out, parse_constant=reject)
            if command == "battery":
                # `data` is the eps = 1 output, where both sides of the
                # identity are +inf.
                assert data["residuals"]["battery_identity"] == 0.0

    def test_unparsable_grid_is_a_parse_error(self, workdir, capsys):
        io_args = ["--state", str(workdir / "plus.json"), "--channel", str(workdir / "dephaser2.json")]
        for grid in (["--alphas", "0.5,abc", "--zs", "1"], ["--alphas", "", "--zs", "1"],
                     ["--alphas", "0.5", "--zs", "1", "--lambdas", "0,,1"]):
            capsys.readouterr()
            assert main(["sweep", *io_args, *grid]) == 1, grid
            assert json.loads(capsys.readouterr().err)["error"]["kind"] == "parse"

    def test_budget_error(self, workdir, capsys):
        alphas = ",".join(str(0.3 + 0.001 * k) for k in range(150))
        zs = ",".join(str(1.0 + 0.01 * k) for k in range(10))
        assert main(
            [
                "sweep",
                "--state", str(workdir / "plus.json"),
                "--channel", str(workdir / "dephaser2.json"),
                "--alphas", alphas,
                "--zs", zs,
                "--lambdas", "0,0.2,0.4,0.6,0.8,1.0,0.1",
                "--workers", "1",
            ]
        ) == 4
