import io
import json
import math
import os
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinvlab import cli, generate, polar, strata
from pinvlab.matcore import GaugeNorm, gauge_norm, load_matrix, save_matrix
from pinvlab.pinv import moore_penrose


@pytest.fixture
def matrix_file(tmp_path, rng):
    path = tmp_path / "a.json"
    save_matrix(generate.fixed_rank(rng, 4, 4, 2), path)
    return str(path)


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_pinv_command(capsys, matrix_file, tmp_path):
    out_path = str(tmp_path / "pinv.json")
    code, out = run(capsys, ["pinv", "--input", matrix_file,
                             "--matrix-out", out_path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["rank"] == 2
    assert report["residual_axa"] < 1e-10
    a = load_matrix(matrix_file)
    x = load_matrix(out_path)
    assert np.linalg.norm(x - np.linalg.pinv(a)) < 1e-10


def test_pinv_missing_file(capsys, tmp_path):
    code, _ = run(capsys, ["pinv", "--input", str(tmp_path / "nope.json")])
    assert code == 2


def test_codim_command(capsys, tmp_path, rng):
    u = generate.unitary(rng, 4)
    p_path, q_path = str(tmp_path / "p.json"), str(tmp_path / "q.json")
    save_matrix(u[:, :3] @ u[:, :3].conj().T, p_path)
    save_matrix(u[:, :1] @ u[:, :1].conj().T, q_path)
    code, out = run(capsys, ["codim", "--p", p_path, "--q", q_path, "--json"])
    assert code == 0
    assert json.loads(out)["index"] == 2


def test_codim_rejects_non_projector(capsys, tmp_path):
    path = str(tmp_path / "m.json")
    save_matrix(np.diag([2.0, 0.0]), path)
    code, _ = run(capsys, ["codim", "--p", path, "--q", path])
    assert code == 2


def test_stratify_command(capsys, tmp_path, rng):
    a = generate.fixed_rank(rng, 4, 4, 2)
    b = generate.fixed_rank(rng, 4, 4, 1)
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_matrix(a, a_path)
    save_matrix(b, b_path)
    code, out = run(capsys, ["stratify", "--a", a_path, "--b", b_path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 1
    assert (report["k_min"], report["k_max"]) == (-2, 2)


def test_stratify_where_a_principal_cosine_straddles_the_threshold(capsys, tmp_path):
    # two rank-3 matrices, N(B) at a cosine of 1 - 1e-8 to N(A)^perp, within
    # roundoff of INTERSECTION_COS: index 0, not a consistency failure
    s = 0.9999999899999996
    n = np.array([np.sqrt(1 - s * s), s, 0.0, 0.0])
    a_path, b_path = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_matrix(np.diag([0.0, 1.0, 1.0, 1.0]), a_path)
    save_matrix(np.eye(4) - np.outer(n, n), b_path)
    code, out = run(capsys, ["stratify", "--a", a_path, "--b", b_path])
    assert code == 0
    assert "index: 0" in out.splitlines()


# name -> (A from rng, rank(|A|), bound on ||V|A| - A||_F)
POLAR_INPUTS = {
    "rank2": (lambda rng: generate.fixed_rank(rng, 4, 4, 2), 2, 1e-10),
    # sigma_2 = 5e-10 lies under the cutoff 6e-10 of the 6 x 2 A but over
    # the cutoff 2e-10 of the 2 x 2 |A|, which has the rank of A; V drops
    # sigma_2, so V|A| misses A by it
    "at_the_6x2_cutoff": (lambda rng: (generate.unitary(rng, 6)[:, :2] * [1.0, 5e-10])
                          @ generate.unitary(rng, 2), 1, 6e-10),
}


@pytest.mark.parametrize("name", sorted(POLAR_INPUTS))
def test_polar_command(capsys, tmp_path, rng, name):
    build, rank, residual = POLAR_INPUTS[name]
    in_path, out_path = str(tmp_path / "a.json"), str(tmp_path / "polar.json")
    save_matrix(build(rng), in_path)
    code, out = run(capsys, ["polar", "--input", in_path,
                             "--matrix-out", out_path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["factorization_residual"] < residual
    assert report["modulus_rank"] == rank
    with open(out_path) as fh:
        payload = json.load(fh)
    assert set(payload) == {"polar_factor", "modulus"}


# matrices whose entries are finite but near the overflow threshold, and
# the exit codes of pinv and polar on each
OVERFLOWING = {
    # |a| = 1.4e308: the Penrose residual of pinv overflows; polar halves
    # before it symmetrizes the modulus, which is then exact
    "1x1": ({"rows": 1, "cols": 1, "data": [[1e308, 1e308]]}, 2, 0),
    # both residuals overflow in the sum of squares of their entries
    "1x2": ({"rows": 1, "cols": 2, "data": [[1e308, 1e308], [1e308, 0]]}, 2, 2),
    # the singular values themselves overflow
    "2x1": ({"rows": 2, "cols": 1, "data": [[1.5e308, 0], [1.5e308, 0]]}, 2, 2),
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_overflowing_input_exits_2_with_a_typed_error(capsys, tmp_path, name):
    obj, pinv_code, polar_code = OVERFLOWING[name]
    path = tmp_path / "a.json"
    path.write_text(json.dumps(obj))
    for command, expected in (("pinv", pinv_code), ("polar", polar_code)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no RuntimeWarning escapes
            code = cli.main([command, "--input", str(path), "--json"])
        captured = capsys.readouterr()
        assert code == expected
        if code == 2:
            assert captured.err.startswith("error: input too large")
            assert captured.out == ""
        else:
            assert all(math.isfinite(v) for v in json.loads(captured.out).values())


def test_non_hermitian_input_near_overflow_exits_2(capsys, tmp_path):
    # 1e200 [[1, 1], [0, 1]]: the norms of its Hermitian check overflow
    # unscaled; the input is refused as a malformed projector, and the
    # idempotency check, taken scaled, overflows nowhere either
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    save_matrix(1e200 * np.array([[1.0, 1.0], [0.0, 1.0]]), p)
    save_matrix(np.eye(2), q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["codim", "--p", str(p), "--q", str(q)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.out == ""


def test_continuity_command(capsys, tmp_path):
    out_path = tmp_path / "cont.csv"
    code, _ = run(capsys, ["continuity", "--seed", "3", "--dim", "4",
                           "--trials", "4", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == ("family,kind,record,n,index,pinv_norm,pinv_gap,"
                        "nullproj_gap_gauge,nullproj_gap_op,intersection_dim,"
                        "verdicts,consistent")
    # 4 families x (8 data rows + 1 summary row) + header
    assert len(lines) == 1 + 4 * 9
    summaries = [ln for ln in lines if ",summary," in ln]
    assert all(ln.endswith(",1") for ln in summaries)


@pytest.mark.parametrize("gauge", ["sp:3", "sp:600", "sp:1e308"])
def test_continuity_certifies_at_large_schatten_exponents(capsys, gauge):
    # the gauge of the null-projector gaps neither under- nor overflows at
    # any exponent, so every family certifies, as it does in op
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _ = run(capsys, ["continuity", "--trials", "4", "--gauge", gauge])
    assert code == 0


def test_taylor_command(capsys, tmp_path):
    out_path = tmp_path / "taylor.csv"
    code, _ = run(capsys, ["taylor", "--seed", "1", "--dim", "3",
                           "--mmax", "4", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "m,remainder_gauge,bound_gauge,ratio"
    assert len(lines) == 5
    ratios = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert all(r <= 1.0 + 1e-6 for r in ratios)


def test_taylor_outside_radius(capsys):
    code, _ = run(capsys, ["taylor", "--seed", "1", "--dim", "3",
                           "--delta-scale", "1.5"])
    assert code == 3


def test_taylor_atomic_function(capsys, tmp_path):
    import pinvlab.monotone as monotone
    f = monotone.make_atomic(alpha=0.0, beta=0.1, atoms=[(1.0, 0.5)])
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps(monotone.monotone_to_json(f)))
    code, _ = run(capsys, ["taylor", "--seed", "2", "--dim", "3",
                           "--function", f"atomic:{f_path}",
                           "--out", str(tmp_path / "t.csv")])
    assert code == 0


@pytest.mark.parametrize("atoms, zero_bound_rows", [
    ([], 6),                # f linear: the bound is 0 in every row
    ([[1.0, 1e-300]], 0),   # bounds near 1e-302
    ([[1.0, 1e-320]], 2),   # the bound underflows to 0 from m = 5
])
def test_taylor_roundoff_remainder_passes(capsys, tmp_path, atoms, zero_bound_rows):
    # f = 0.5 + 0.5 lambda plus atoms too light to show: every remainder
    # is roundoff, which passes at any ratio; a zero bound reports inf
    f_path = tmp_path / "f.json"
    f_path.write_text(json.dumps({"alpha": 0.5, "beta": 0.5, "atoms": atoms}))
    code, out = run(capsys, ["taylor", "--dim", "3", "--function", f"atomic:{f_path}"])
    assert code == 0
    rows = [[float(x) for x in ln.split(",")] for ln in out.strip().split("\n")[1:]]
    assert len(rows) == 6
    assert all(0 < remainder < 1e-14 for _, remainder, _, _ in rows)
    zero = [ratio for _, _, bound, ratio in rows if bound == 0]
    assert len(zero) == zero_bound_rows and all(r == math.inf for r in zero)
    assert all(ratio > 1 for _, _, bound, ratio in rows if bound > 0)


def test_taylor_unknown_function(capsys):
    code, _ = run(capsys, ["taylor", "--function", "exp"])
    assert code == 2


def test_census_command(capsys, tmp_path):
    out_path = tmp_path / "census.csv"
    code, _ = run(capsys, ["census", "--seed", "5", "--dim", "4",
                           "--trials", "10", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0] == "trial,k,pinv_norm,dist_gauge"
    assert len(lines) == 11
    ks = {int(ln.split(",")[1]) for ln in lines[1:]}
    assert {-1, 0, 1} <= ks


@pytest.mark.parametrize("gauge", ["op", "s2"])
@pytest.mark.parametrize("dim", [8, 32])
def test_census_rows_replay_from_the_generators(capsys, dim, gauge):
    # each row is rebuilt from the seeded generators and moore_penrose in
    # the command's order: A, then per trial the representative's
    # perturbation; twelve trials wrap around the indices at d = 8
    code, out = run(capsys, ["census", "--seed", "3", "--dim", str(dim),
                             "--trials", "12", "--gauge", gauge])
    assert code == 0
    rng = generate.rng_from_seed(3)
    a = generate.fixed_rank(rng, dim, dim, dim - 1)
    admissible = strata.index_range(a)
    ks = list(range(admissible.k_min, admissible.k_max + 1))
    g = GaugeNorm.parse(gauge)
    rows = ["trial,k,pinv_norm,dist_gauge"]
    for trial in range(12):
        k = ks[trial % len(ks)]
        rep = strata.stratum_representative(a, k)
        b = generate.rank_preserving_perturbation(rng, rep, 0.02)
        rows.append("%d,%d,%.17g,%.17g" % (trial, k, moore_penrose(b).pinv_norm,
                                           gauge_norm(b - a, g)))
    assert out.splitlines() == rows


def test_fiber_command(capsys):
    code, out = run(capsys, ["fiber", "--seed", "7", "--dim", "4",
                             "--trials", "5", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["alpha_max_residual"] <= 1e-7
    assert report["v_max_residual"] <= 1e-7


def test_validation_rejects_bad_dim(capsys):
    assert run(capsys, ["census", "--dim", "0"])[0] == 2
    assert run(capsys, ["census", "--dim", "65"])[0] == 2


def test_validation_rejects_bad_trials(capsys):
    assert run(capsys, ["census", "--trials", "0"])[0] == 2


def test_validation_rejects_bad_gauge(capsys):
    assert run(capsys, ["census", "--gauge", "sp:0.5"])[0] == 2


def test_unknown_subcommand(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_shared_parser_gives_what_fresh_parsers_give(capsys):
    # main parses with one parser built on first use; a malformed argv
    # between two runs leaves nothing behind in it
    argvs = [["continuity", "--seed", "3", "--dim", "4", "--trials", "2"],
             ["census", "--dim", "four"],
             ["census", "--seed", "3", "--dim", "4", "--trials", "3"]]

    def outcomes(fresh):
        got = []
        for argv in argvs:
            if fresh:
                cli.build_parser.cache_clear()
            code = cli.main(argv)
            got.append((code, *capsys.readouterr()))
        return got

    shared = outcomes(fresh=False)
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _, _ in shared] == [0, 2, 0]
    assert outcomes(fresh=True) == shared


def test_dispatch_reads_the_handler_when_it_runs(capsys, monkeypatch):
    # the parser is cached, but the handler is looked up at each call
    cli.build_parser()
    monkeypatch.setattr(cli, "cmd_census", lambda args: 7)
    assert cli.main(["census", "--dim", "4"]) == 7


def test_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (out1, out2):
        code, _ = run(capsys, ["census", "--seed", "11", "--dim", "5",
                               "--trials", "12", "--out", str(path)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_continuity_without_room_for_a_jump(capsys):
    # at --dim 1 a jump family has no rank to gain: a typed error, exit 2
    code = cli.main(["continuity", "--dim", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_subcommands_reject_options_they_do_not_read(capsys, matrix_file):
    assert cli.main(["pinv", "--input", matrix_file, "--gauge", "s2"]) == 2
    assert cli.main(["continuity", "--json"]) == 2
    assert cli.main(["taylor", "--trials", "3"]) == 2


# matrix JSON whose data is not a list, or whose rows/cols are not integers
MALFORMED_MATRICES = {
    "data_null": {"rows": 1, "cols": 1, "data": None},
    "data_number": {"rows": 1, "cols": 1, "data": 5},
    "rows_float": {"rows": 1.5, "cols": 1, "data": [[1.0, 0.0]]},
    "cols_float": {"rows": 1, "cols": 2.0, "data": [[1.0, 0.0], [2.0, 0.0]]},
    "rows_string": {"rows": "1", "cols": 1, "data": [[1.0, 0.0]]},
    "rows_bool": {"rows": True, "cols": 1, "data": [[1.0, 0.0]]},
}


@pytest.mark.parametrize("argv", [
    ["census", "--gauge", "sp:abc"],
    ["census", "--gauge", "kyfan:x"],
    ["census", "--gauge", "sp:nan"],
    ["census", "--gauge", "kyfan:1.5"],
    ["taylor", "--mmax", "0"],
    ["taylor", "--mmax", "65"],
    ["taylor", "--function", "atomic:{bad_json}"],
] + [["pinv", "--input", f"{{{name}}}"] for name in MALFORMED_MATRICES])
def test_malformed_input_exits_2_without_traceback(capsys, tmp_path, argv):
    files = {"bad_json": tmp_path / "f.json"}
    files["bad_json"].write_text("{not json")
    for name, obj in MALFORMED_MATRICES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(obj))
    code = cli.main([a.format(**files) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# Input fuzz: whatever malformed file, gauge spec or dim reaches the CLI, it
# ends in exit 2 with an "error:" line, never in an exception out of main.


def _rejects(parse):
    """A predicate: does parse (float or int) reject the text?"""
    def rejected(text):
        try:
            parse(text)
        except ValueError:
            return True
        return False
    return rejected


def _numeric_pairs(v):
    """Is v a list of [x, y] pairs of JSON numbers, as well-formed data or atoms are?"""
    return isinstance(v, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(x) in (int, float) for x in p)
        for p in v)


def _is_json(content: bytes) -> bool:
    try:
        json.loads(content.decode("utf-8"))
    except ValueError:
        return False
    return True


def _dumps(value) -> bytes:
    return json.dumps(value).encode()


def _corrupt(base, bad_values):
    """base with one field replaced by a value drawn for it, or removed."""
    def put(field, value):
        out = dict(base)
        out[field] = value
        return out
    removed = st.sampled_from(sorted(base)).map(
        lambda field: {k: v for k, v in base.items() if k != field})
    return removed | st.one_of(
        [values.map(lambda v, f=field: put(f, v)) for field, values in bad_values.items()])


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=10)
not_json_objects = (st.binary().filter(lambda b: not _is_json(b))
                    | json_values.filter(lambda v: not isinstance(v, dict)).map(_dumps))

# rows = 2, cols = 1: a rows or cols other than those integers breaks the
# shape, and data other than two [re, im] number pairs breaks the entries
MATRIX = {"rows": 2, "cols": 1, "data": [[1.0, 0.0], [0.5, 0.0]]}
bad_matrices = not_json_objects | _corrupt(MATRIX, {
    "rows": json_values.filter(lambda v: not (type(v) is int and v == 2)),
    "cols": json_values.filter(lambda v: not (type(v) is int and v == 1)),
    "data": json_values.filter(lambda v: not (_numeric_pairs(v) and len(v) == 2)),
}).map(_dumps)

bad_atom = (st.tuples(st.floats(max_value=0.0) | st.sampled_from([math.inf, math.nan]),
                      st.floats(min_value=0.0, max_value=10.0))
            | st.tuples(st.floats(min_value=0.1, max_value=10.0),
                        st.floats(max_value=-1e-300) | st.sampled_from([math.inf, math.nan])))
FUNCTION = {"alpha": 0.5, "beta": 0.5, "atoms": [[1.0, 1.0]]}
bad_functions = not_json_objects | _corrupt(FUNCTION, {
    "alpha": json_values.filter(lambda v: type(v) not in (int, float)),
    "beta": json_values.filter(lambda v: type(v) not in (int, float))
    | st.floats(max_value=-1e-300),
    "atoms": json_values.filter(lambda v: not _numeric_pairs(v))
    | st.lists(bad_atom.map(list), min_size=1, max_size=3),
}).map(_dumps)

bad_gauges = st.one_of(
    st.text().filter(lambda g: g not in ("op", "s1", "s2")
                     and not g.startswith(("sp:", "kyfan:"))),
    st.builds("sp:{}".format, st.floats(max_value=1.0, exclude_max=True)
              | st.just(math.nan) | st.text().filter(_rejects(float))),
    st.builds("kyfan:{}".format, st.integers(max_value=0) | st.text().filter(_rejects(int))),
)
bad_dims = (st.integers().filter(lambda d: not 1 <= d <= 64).map(str)
            | st.text().filter(_rejects(int)))

TAYLOR_ATOMIC = ["taylor", "--dim", "2", "--function", "atomic:{file}"]
MATRIX_READERS = [["pinv", "--input", "{file}"], ["polar", "--input", "{file}"],
                  ["stratify", "--a", "{file}", "--b", "{file}"],
                  ["codim", "--p", "{file}", "--q", "{file}"]]
NOT_UTF8 = b'\xff\xfe{"rows": 1}'


def _atomic(atoms: str) -> bytes:
    return ('{"alpha": 0.5, "beta": 0.5, "atoms": %s}' % atoms).encode()


malformed_runs = st.one_of(
    st.tuples(st.sampled_from(MATRIX_READERS), bad_matrices),
    st.tuples(st.just(TAYLOR_ATOMIC), bad_functions),
    st.tuples(st.sampled_from(["continuity", "census", "taylor"]), bad_gauges).map(
        lambda run: ([run[0], "--gauge", run[1]], None)),
    st.tuples(st.sampled_from(["continuity", "census", "taylor", "fiber"]), bad_dims).map(
        lambda run: ([run[0], "--dim", run[1]], None)),
)


@settings(max_examples=200)
@given(malformed_runs)
@example((TAYLOR_ATOMIC, _atomic("5")))
@example((TAYLOR_ATOMIC, _atomic("null")))
@example((TAYLOR_ATOMIC, _atomic("[[1]]")))
@example((TAYLOR_ATOMIC, _atomic("[[1,2,3]]")))
@example((TAYLOR_ATOMIC, _atomic('[["x",1]]')))
@example((TAYLOR_ATOMIC, _atomic('{"a":1}')))
@example((TAYLOR_ATOMIC, NOT_UTF8))
@example((["pinv", "--input", "{file}"], NOT_UTF8))
@example((["pinv", "--input", "{file}"], b"[" * 100_000))
@example((["pinv", "--input", "{file}"], _dumps({"rows": 1, "cols": 1, "data": [[10**400, 0]]})))
@example((["pinv", "--input", "{file}"], _dumps({"rows": 1, "cols": 1, "data": [[True, 0]]})))
def test_malformed_input_always_exits_2(run):
    argv, content = run
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        if content is not None:
            with open(path, "wb") as fh:
                fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main([a.replace("{file}", path) for a in argv])
    assert code == 2
    assert "error:" in err.getvalue() and "Traceback" not in err.getvalue()
    assert out.getvalue() == ""
