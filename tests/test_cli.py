"""CLI behavior: documents, subcommands, exit codes, determinism, and the
divergence-form expansion."""

import glob
import json
import os

import numpy as np
import pytest

from affsym import cli
from affsym.cli import InputError, SystemDocument, from_diffusional, main, render_json
from affsym.expr import parse_expr
from affsym.liefn import VectorField
from affsym.pfaff import PfaffProblem, transport_to
from affsym.symmetry import flow
from affsym.pdesim import evolve, make_grid
from affsym.util import sample_points

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_every_fixture_passes_inspect(capsys):
    files = sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
    assert files, "no fixtures found"
    for f in files:
        code, data = run(capsys, "inspect", f)
        assert code == 0, f
        assert data["valid"] is True


def test_classify_maximal_fixture(capsys):
    code, data = run(capsys, "classify", fixture("flat_n2.json"))
    assert code == 0
    assert data["m"] == 0 and data["bound"] == 6


def test_classify_canonical_fixtures(capsys):
    code, data = run(capsys, "classify", fixture("intermediate_n3_m1.json"))
    assert code == 0 and data["m"] == 1 and data["bound"] == 9
    code, data = run(capsys, "classify", fixture("constcurv_n3.json"))
    assert code == 0 and data["m"] == 3 and data["bound"] == 6


def test_check_symmetry_accepts_rotation(capsys):
    code, data = run(capsys, "check-symmetry", fixture("flat_n2.json"), "--eta", "y2,-y1")
    assert code == 0
    assert data["accepted"] is True
    assert data["res_A"] <= 1e-10 and data["res_Gamma"] <= 1e-10
    assert all(v <= 1e-7 for v in data["invariance"].values())


def test_check_symmetry_rejects_quadratic(capsys):
    code, data = run(capsys, "check-symmetry", fixture("flat_n2.json"), "--eta", "y1^2,0")
    assert code == 2
    assert data["accepted"] is False


def test_bound_constcurv_depth1(capsys):
    code, data = run(
        capsys, "bound", fixture("constcurv_n3.json"), "--depth", "1", "--at", "0.1,-0.2,0.3"
    )
    assert code == 0
    assert data["bound"] == 6


def test_bound_intermediate_depth2(capsys):
    code, data = run(
        capsys,
        "bound",
        fixture("intermediate_const_u.json"),
        "--depth",
        "2",
        "--at",
        "0.1,-0.2,0.3",
    )
    assert code == 0 and data["bound"] == 9


def test_canonical_self_verification(capsys):
    for name in ("constcurv_n3.json", "intermediate_n3_m1.json", "maximal_n2.json"):
        code, data = run(capsys, "canonical", fixture(name))
        assert code == 0, name
        assert data["passed"] is True


def test_flatten_intermediate(capsys):
    code, data = run(capsys, "flatten", fixture("intermediate_n3_m1.json"))
    assert code == 0
    assert data["flat_curvature"] <= 1e-5


def test_flatten_rejects_generic(tmp_path, capsys):
    doc = {
        "n": 2,
        "A": [["1", "0"], ["0", "1"]],
        "Gamma": {
            "1": [["y2", "0"], ["0", "y1*y2"]],
            "2": [["y1", "y2"], ["y2", "0"]],
        },
    }
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(doc))
    code, data = run(capsys, "flatten", str(path))
    assert code == 2
    assert "error" in data


def test_flatten_rejects_one_dimensional_chart(capsys):
    # n = 1 is outside the pipeline's domain: an input error, not a failed check
    code, data = run(capsys, "flatten", fixture("heat_n1.json"))
    assert code == 1 and data is None


def test_simulate_heat_with_csv(tmp_path, capsys):
    csv = tmp_path / "snaps.csv"
    code, data = run(
        capsys,
        "simulate",
        fixture("heat_n1.json"),
        "--grid",
        "32",
        "--dt",
        "0.005",
        "--steps",
        "8",
        "--initial",
        "sin(x)",
        "--csv",
        str(csv),
    )
    assert code == 0
    assert data["pde_residual"] is not None and data["pde_residual"] < 1e-2
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "t,x,y1"


def test_simulate_transport_translation(capsys):
    code, data = run(
        capsys,
        "simulate",
        fixture("flat_n2.json"),
        "--grid",
        "16",
        "--dt",
        "0.01",
        "--steps",
        "4",
        "--transport",
        "1,0",
        "--tau",
        "0.3",
    )
    assert code == 0
    assert data["transport_gap"] <= 1e-10


def test_grid_flow_blow_up_exits_2(capsys):
    # a rotation of the sphere carries the constant profile (1, 0) through the
    # stereographic chart's pole at tau = pi/2; the grid flow's blow-up guard
    # stops it before the points reach inf
    code = main(
        [
            "simulate",
            fixture("heisenberg.json"),
            "--initial",
            "1;0",
            "--transport=0.5+0.5*y1^2-0.5*y2^2,y1*y2",
            "--tau",
            "2",
            "--grid",
            "16",
            "--dt",
            "0.001",
            "--steps",
            "4",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: grid flow left the working region (blow-up guard)\n"


def _blow_up_flow(*_args):
    flow(VectorField.from_strings(1, ["y1^2"]), np.array([2.0]), 1.0)


def _blow_up_transport(*_args):
    rhs = np.array([[parse_expr("y1^2", 2)]], dtype=object)
    transport_to(PfaffProblem(1, 1, rhs, p0=[0.0], u0=[1.0]), [1.5])


@pytest.mark.parametrize(
    "fail, message",
    [
        (_blow_up_flow, "flow left the working region (blow-up guard) (reached t = 0.5)"),
        (_blow_up_transport, "transport blew up at segment parameter t = 0.6667"),
    ],
    ids=["flow", "transport"],
)
def test_integration_blow_up_exits_2(monkeypatch, capsys, fail, message):
    # no fixture drives a flow or transport to the blow-up guard, so the
    # transport check of `simulate` is replaced by one that does
    monkeypatch.setattr(cli, "symmetry_transport_check", fail)
    argv = ["simulate", fixture("flat_n2.json"), "--grid", "16", "--dt", "0.01", "--steps", "2"]
    assert main(argv + ["--transport=1,0"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_report_runs_and_is_deterministic(capsys):
    code1, _ = run(capsys, "report", fixture("intermediate_n3_m1.json"))
    out1 = None
    code1 = main(["report", fixture("intermediate_n3_m1.json")])
    out1 = capsys.readouterr().out
    code2 = main(["report", fixture("intermediate_n3_m1.json")])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_exit_code_1_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 1
    capsys.readouterr()

    asym = tmp_path / "asym.json"
    asym.write_text(
        json.dumps(
            {"n": 2, "A": [["1", "0"], ["0", "1"]], "Gamma": {"1": [["0", "y1"], ["0", "0"]], "2": [["0", "0"], ["0", "0"]]}}
        )
    )
    assert main(["classify", str(asym)]) == 1
    capsys.readouterr()

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 2}))
    assert main(["inspect", str(missing)]) == 1
    capsys.readouterr()

    badexpr = tmp_path / "badexpr.json"
    badexpr.write_text(json.dumps({"n": 1, "A": [["y7"]]}))
    assert main(["inspect", str(badexpr)]) == 1
    capsys.readouterr()


def test_exit_code_1_on_unrepresentable_numbers(tmp_path, capsys):
    # a literal beyond the float range is malformed input, not inf
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 1, "A": [["1e999"]]}))
    assert main(["inspect", str(huge)]) == 1
    assert "error:" in capsys.readouterr().err

    # overflow during checked evaluation is a DomainError, reported cleanly
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps({"n": 1, "A": [["1 + y1^999"]]}))
    assert main(["bound", str(steep), "--at", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    ["y1^" + "9" * 5000, "(" * 3000 + "y1" + ")" * 3000],
    ids=["long-exponent", "deep-nesting"],
)
def test_exit_code_1_on_hostile_expressions(tmp_path, capsys, text):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({"n": 1, "A": [[text]]}))
    assert main(["inspect", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_dash_leading_components_need_the_equals_form(capsys):
    code, data = run(capsys, "check-symmetry", fixture("flat_n2.json"), "--eta=-y2,y1")
    assert code == 0 and data["accepted"] is True


def test_exit_code_1_on_unknown_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["classify", "--bogus"])
    assert err.value.code == 1
    capsys.readouterr()


def test_rank_not_constant_exit_2(tmp_path, capsys):
    doc = {
        "canonical": {"kind": "intermediate_17_19", "n": 2, "a": 1.0, "m": 1, "u": ["y1^2"]},
        "sample": [[0.0, 0.0], [0.3, 0.1]],
    }
    path = tmp_path / "varies.json"
    path.write_text(json.dumps(doc))
    code, data = run(capsys, "classify", str(path))
    assert code == 2
    assert data["rank_constant"] is False


def test_render_json_is_sorted_and_17g():
    s = render_json({"b": 1 / 3, "a": [1.0, 2.5e-17]})
    assert s.index('"a"') < s.index('"b"')
    assert "0.33333333333333331" in s
    assert "2.4999999999999999e-17" in s


def test_seed_env_var_changes_samples(monkeypatch):
    base = sample_points(2, 5)
    monkeypatch.setenv("AFFSYM_SEED", "99")
    changed = sample_points(2, 5)
    monkeypatch.delenv("AFFSYM_SEED")
    assert not np.allclose(base, changed)


# ---------------------------------------------------------------------------
# Divergence-form expansion
# ---------------------------------------------------------------------------


def test_from_diffusional_constant_matrix():
    doc = from_diffusional([["2", "1"], ["0", "3"]])
    sysd = doc.to_system()
    pts = sample_points(2, 10)
    assert np.max(np.abs(sysd.conn.evaluate_many(pts))) == 0.0


def test_from_diffusional_exponential_1d():
    doc = from_diffusional([["exp(y1)"]])
    sysd = doc.to_system()
    pts = sample_points(1, 10)
    vals = sysd.conn.evaluate_many(pts)
    assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_from_diffusional_n3_symbolic():
    rows = [
        ["2 + y1^2", "0", "0"],
        ["0", "3", "y2"],
        ["0", "y2", "2"],
    ]
    doc = from_diffusional(rows)
    sysd = doc.to_system()
    pts = sample_points(3, 8)
    g_vals = sysd.conn.evaluate_many(pts)
    # oracle: solve A Gamma = sym(dA) pointwise with numpy
    from affsym.expr import diff_expr, parse_expr, eval_many

    n = 3
    exprs = [[parse_expr(t, n) for t in row] for row in rows]
    for pi, p in enumerate(pts):
        A = np.array([[eval_many(exprs[i][j], p[None, :])[0] for j in range(n)] for i in range(n)])
        dA = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    dA[k, i, j] = eval_many(diff_expr(exprs[i][j], k + 1), p[None, :])[0]
        for r in range(n):
            for s in range(n):
                rhs = 0.5 * (dA[s, :, r] + dA[r, :, s])
                want = np.linalg.solve(A, rhs)
                assert np.max(np.abs(g_vals[pi, :, r, s] - want)) <= 1e-10
    # the expansion is an ordinary expression document and round-trips
    again = SystemDocument.from_dict(doc.to_dict()).to_system()
    assert np.array_equal(again.conn.evaluate_many(pts), g_vals)


def test_from_diffusional_rejects_singular():
    with pytest.raises(InputError):
        from_diffusional([["y1"]], sample=[[0.0], [0.2]])


def test_divergence_form_mean_conservation_refines():
    # the expansion of d/dx(A dy/dx) conserves the spatial mean up to scheme
    # order; the drift shrinks ~4x per (dx, dt) refinement level
    doc = from_diffusional([["exp(y1)"]])
    sysd = doc.to_system()
    L = 2 * np.pi
    drifts = []
    for lev in range(2):
        N = 32 * 2**lev
        dt = 1.6e-3 / 4**lev
        steps = 60 * 4**lev
        grid = make_grid([lambda x: 0.4 * np.sin(x)], N, L)
        out = evolve(sysd, grid, dt, steps)
        drifts.append(abs(out.values.mean() - grid.values.mean()))
    assert drifts[0] / drifts[1] >= 3.0


def test_simulate_handles_ragged_snapshot_cadence(capsys):
    # 50 steps with a cadence of 12 leaves a short trailing chunk; the
    # residual must be computed on the equally spaced prefix
    code, data = run(
        capsys,
        "simulate",
        fixture("heat_n1.json"),
        "--grid",
        "32",
        "--dt",
        "0.004",
        "--steps",
        "50",
        "--initial",
        "sin(x)",
    )
    assert code == 0
    assert data["pde_residual"] is not None and data["pde_residual"] < 1e-2


# ---------------------------------------------------------------------------
# Document and flag validation
# ---------------------------------------------------------------------------


def _flat_doc(**extra):
    doc = {"n": 2, "A": [["1", "0"], ["0", "1"]]}
    doc.update(extra)
    return doc


def assert_input_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "doc, argv",
    [
        (_flat_doc(tolerances={"symmetry": "abc"}), ["check-symmetry", "--eta=1,0"]),
        (_flat_doc(tolerances={"gamma_symmetry": None}), ["inspect"]),
        (_flat_doc(tolerances={"symmetry": -1e-8}), ["inspect"]),
        (_flat_doc(tolerances={"symmetry": float("inf")}), ["inspect"]),
        (_flat_doc(tolerances={"symmetry": True}), ["inspect"]),
        (_flat_doc(tolerances={"symetry": 1e-8}), ["inspect"]),
        (_flat_doc(tolerances=[1e-8]), ["inspect"]),
        (_flat_doc(sample=[["a", 1]]), ["inspect"]),
        (_flat_doc(sample=[["0.1", 0.2]]), ["inspect"]),
        (_flat_doc(sample=[[float("nan"), 0.1], [0.2, 0.3]]), ["inspect"]),
        (_flat_doc(sample=[[float("nan"), 0.1], [0.2, 0.3]]), ["classify"]),
        (_flat_doc(sample=[[0.1, 0.2], [0.3]]), ["inspect"]),
        (
            _flat_doc(Gamma={"1": [["0", "0"], ["0", "0"]], "01": [["y1", "0"], ["0", "0"]]}),
            ["inspect"],
        ),
        ({"canonical": {"kind": "maximal_7_11", "n": 2.5}}, ["inspect"]),
        ({"canonical": {"kind": "intermediate_17_19", "n": 2, "m": 1.5}}, ["inspect"]),
        ({"canonical": {"kind": "constcurv_2d_22_14", "n": 2, "b": "abc"}}, ["inspect"]),
        ({"canonical": {"kind": "maximal_7_11", "n": 2, "a": "2"}}, ["inspect"]),
    ],
    ids=[
        "tolerance-string",
        "tolerance-null",
        "tolerance-negative",
        "tolerance-inf",
        "tolerance-bool",
        "tolerance-unknown-key",
        "tolerances-not-object",
        "sample-string",
        "sample-numeric-string",
        "sample-nan-inspect",
        "sample-nan-classify",
        "sample-ragged",
        "gamma-index-twice",
        "canonical-n-float",
        "canonical-m-float",
        "canonical-b-string",
        "canonical-a-string",
    ],
)
def test_malformed_document_fields_exit_1(tmp_path, capsys, doc, argv):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))  # json writes nan/inf as NaN/Infinity
    assert_input_error(capsys, [argv[0], str(path)] + argv[1:])


def test_valid_tolerance_override_is_used(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_flat_doc(tolerances={"symmetry": 0, "invariance": 1})))
    code, data = run(capsys, "check-symmetry", str(path), "--eta=1,0")
    assert code == 0 and data["tolerance"] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["bound", fixture("flat_n2.json"), "--at", "nan,0"],
        ["bound", fixture("flat_n2.json"), "--at", "0,inf"],
        ["flatten", fixture("flat_n2.json"), "--u0", "0,-inf"],
        ["simulate", fixture("heat_n1.json"), "--dt", "nan", "--steps", "4"],
        ["simulate", fixture("heat_n1.json"), "--dt", "0", "--steps", "4"],
        ["simulate", fixture("heat_n1.json"), "--dt", "-0.001", "--steps", "4"],
        ["simulate", fixture("heat_n1.json"), "--dt", "inf", "--steps", "4"],
        ["simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "4", "--length", "0"],
        ["simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "4", "--length", "nan"],
        ["simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "4", "--grid", "4"],
        ["simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "-3"],
        ["simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "0"],
        ["simulate", fixture("flat_n2.json"), "--dt", "1e-3", "--steps", "4", "--tau", "nan"],
        ["simulate", fixture("flat_n2.json"), "--dt", "1e-3", "--steps", "4", "--tau", "inf"],
    ],
    ids=[
        "at-nan",
        "at-inf",
        "u0-inf",
        "dt-nan",
        "dt-zero",
        "dt-negative",
        "dt-inf",
        "length-zero",
        "length-nan",
        "grid-4",
        "steps-negative",
        "steps-zero",
        "tau-nan",
        "tau-inf",
    ],
)
def test_bad_numeric_flags_exit_1(capsys, argv):
    assert_input_error(capsys, argv)


def test_smallest_valid_simulation_flags(capsys):
    code, data = run(
        capsys, "simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "1", "--grid", "8"
    )
    assert code == 0 and data["final_t"] == 0.001
