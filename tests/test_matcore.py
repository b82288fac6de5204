import ast
import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import pinvlab
from pinvlab import codim, generate, monotone, pinv, polar, strata
from pinvlab.errors import PreconditionError, StratumError
from pinvlab.matcore import (
    FROBENIUS_NORM,
    GaugeNorm,
    OP_NORM,
    RANK_REL,
    RESIDUAL_ABS,
    TRACE_NORM,
    UNITARY_REL,
    as_matrix,
    eigh,
    gauge_norm,
    hermitian_checked,
    idempotent_checked,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    psd_eigh,
    same_shape,
    save_matrix,
    svd,
    tridiagonalize,
)

seeds = st.integers(min_value=0, max_value=10_000)
dims = st.integers(min_value=1, max_value=6)


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(PreconditionError):
        as_matrix(np.zeros(3))
    with pytest.raises(PreconditionError):
        as_matrix(np.zeros((2, 2, 2)))


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(PreconditionError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(PreconditionError):
        as_matrix(np.array([[np.inf * 1j, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_as_matrix_refuses_a_nonfinite_part_alone(part, bad):
    # complex(re, im) builds the entry exactly: the other part stays 0
    m = np.zeros((2, 2), dtype=complex)
    m[1, 0] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
    with pytest.raises(PreconditionError, match="finite"):
        as_matrix(m)


def test_as_matrix_accepts_extreme_finite_entries():
    big = np.finfo(float).max
    m = np.array([[complex(big, -big), complex(-big, big)], [complex(-0.0, -0.0), 0.0]])
    out = as_matrix(m)
    assert np.array_equal(out, m) and math.copysign(1.0, out[1, 0].real) == -1.0


def test_as_matrix_rejects_empty():
    with pytest.raises(PreconditionError):
        as_matrix(np.zeros((0, 2)))


def test_tolerances_are_constants_not_parameters():
    # the rank cutoff and residual floor live in matcore; no routine takes
    # a tolerance argument that could disagree with them
    assert RANK_REL == RESIDUAL_ABS == 1e-10
    checked = 0
    for mod_name in pinvlab.__all__:
        module = getattr(pinvlab, mod_name)
        if not inspect.ismodule(module):
            continue
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                callables = [getattr(obj, name) for name in vars(obj)]
            else:
                callables = [obj]
            for fn in callables:
                if not (inspect.isfunction(fn) or inspect.ismethod(fn)):
                    continue
                params = inspect.signature(fn).parameters
                assert not {"tol", "tail_tol"} & set(params), fn
                checked += 1
    assert checked > 100


def test_rank_cutoff_is_named_only_where_it_is_defined():
    # every other rank or invertibility decision reads svd(.).rank or
    # psd_eigh(.).rank; codim's direct rotation refuses a gap
    # ||P - Q|| >= 1 - RANK_REL, which a cutoff relative to the scale of
    # the cross block of the two partial isometries would not see
    package = Path(pinvlab.__file__).parent
    naming = {path.stem for path in package.glob("*.py") if "RANK_REL" in path.read_text("utf-8")}
    assert naming == {"matcore", "codim"}


def test_import_pulls_in_no_heavy_or_test_modules():
    # a CLI run pays for every module the package imports: scipy.linalg
    # alone adds about 0.3 s, which every benchmark setup time includes
    code = ("import sys, pinvlab; "
            "print(sorted({'scipy', 'pytest', 'hypothesis'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(pinvlab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


# the package-internal imports of each module: the stack matcore -> pinv
# -> codim -> strata -> monotone / polar, with errors beneath every layer,
# generate on matcore alone and the CLI and the package over them all
_TOP = {"codim", "errors", "generate", "matcore", "monotone", "pinv", "polar", "strata"}
INTERNAL_IMPORTS = {
    "errors": set(),
    "matcore": {"errors"},
    "pinv": {"errors", "matcore"},
    "codim": {"errors", "matcore"},
    "strata": {"codim", "errors", "matcore", "pinv"},
    "monotone": {"errors", "matcore", "pinv"},
    "polar": {"codim", "errors", "matcore"},
    "generate": {"errors", "matcore"},
    "cli": _TOP,
    "__init__": _TOP,
}


def _internal_imports(source: str) -> set:
    """The pinvlab modules that the source imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("pinvlab.")}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "pinvlab" and not module.startswith("pinvlab."):
                    continue
                module = module.partition(".")[2]
            found |= {module.split(".")[0]} if module else {a.name for a in node.names}
    return found


def test_modules_import_only_the_layers_below_them():
    package = Path(pinvlab.__file__).parent
    got = {path.stem: _internal_imports(path.read_text("utf-8"))
           for path in package.glob("*.py")}
    assert got == INTERNAL_IMPORTS
    stack = list(INTERNAL_IMPORTS)
    for module, imports in INTERNAL_IMPORTS.items():
        assert all(stack.index(i) < stack.index(module) for i in imports), module


def _public_class_members() -> set:
    """The fields, attributes and __init__ parameters of pinvlab's public classes."""
    members = set()
    for info in pkgutil.iter_modules(pinvlab.__path__):
        for name, cls in vars(importlib.import_module(f"pinvlab.{info.name}")).items():
            if inspect.isclass(cls) and cls.__module__.startswith("pinvlab") and name[0] != "_":
                members |= set(dir(cls)) | set(inspect.signature(cls.__init__).parameters)
                if dataclasses.is_dataclass(cls):
                    members |= {f.name for f in dataclasses.fields(cls)}
    return members


def _resolves(name: str, module) -> bool:
    """Whether the dotted name is reached from the module, from pinvlab or by import."""
    head, *rest = name.split(".")
    roots = [getattr(module, head, None), getattr(pinvlab, head, None)]
    try:
        roots.append(importlib.import_module(head))
    except ImportError:
        pass
    for obj in roots:
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def test_readme_module_table_names_resolve():
    # a backticked name, or a call such as `svd(a)`, in a module's row is
    # an attribute of that module, a member of a public class, or an
    # importable dotted path; a command line such as `pinvlab taylor` is not a name
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    rows = re.findall(r"^\| `pinvlab\.(\w+)` \| (.*) \|$", readme, re.M)
    assert [module for module, _ in rows] == [
        "matcore", "pinv", "codim", "strata", "monotone", "polar", "generate", "cli"]
    members = _public_class_members()
    for module, cell in rows:
        mod = importlib.import_module(f"pinvlab.{module}")
        names = [m.group(1) for m in (re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(?:\(.*\))?", tok)
                                      for tok in re.findall(r"`([^`]*)`", cell)) if m]
        unresolved = [n for n in names if n not in members and not _resolves(n, mod)]
        assert names and not unresolved, (module, unresolved)


@given(seeds, dims, dims)
def test_json_round_trip(seed, m, n):
    a = generate.ginibre(np.random.default_rng(seed), m, n)
    back = matrix_from_json(matrix_to_json(a))
    assert np.array_equal(back, a)


def test_json_rejects_malformed():
    with pytest.raises(PreconditionError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(PreconditionError):
        matrix_from_json({"rows": 0, "cols": 1, "data": []})
    with pytest.raises(PreconditionError):
        matrix_from_json({"cols": 1, "data": [[1, 0]]})


def test_save_load_round_trip(tmp_path, rng):
    a = generate.ginibre(rng, 3, 2)
    path = tmp_path / "m.json"
    save_matrix(a, path)
    assert np.array_equal(load_matrix(path), a)


def test_saved_matrix_bytes(tmp_path):
    # the file is the plain JSON of the row-major [re, im] pairs, whatever
    # the encoder: signed zeros, subnormals and extremes print as floats
    a = np.array([[-0.0, 1e-320 - 2.5j, 1.7976931348623157e308],
                  [3, -1j, 0.1 + 0.2j]])
    path = tmp_path / "m.json"
    save_matrix(a, path)
    data = [[float(z.real), float(z.imag)] for z in a.astype(complex).reshape(-1)]
    expected = json.dumps({"rows": 2, "cols": 3, "data": data})
    assert path.read_text() == expected
    assert '[-0.0, 0.0], [1e-320, -2.5]' in expected


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(PreconditionError):
        load_matrix(path)


def test_gauge_parse_and_labels():
    assert GaugeNorm.parse("op").kind == "op"
    assert GaugeNorm.parse("s1") == GaugeNorm.schatten(1)
    assert GaugeNorm.parse("s2") == GaugeNorm.schatten(2)
    assert GaugeNorm.parse("sp:3.5").p == 3.5
    assert GaugeNorm.parse("kyfan:2").k == 2
    with pytest.raises(PreconditionError):
        GaugeNorm.parse("frobenius")
    assert OP_NORM.label() == "op"
    assert TRACE_NORM.label() == "s1"


def test_gauge_constructor_validation():
    with pytest.raises(PreconditionError):
        GaugeNorm.schatten(0.5)
    with pytest.raises(PreconditionError):
        GaugeNorm.kyfan(0)


@pytest.mark.parametrize("k", [1.5, True, math.nan, 2.0, "2"])
def test_kyfan_refuses_an_index_that_is_no_integer_from_1(k):
    # as the Taylor term order: a float, even integral, a bool or a NaN
    # is refused, not truncated to an index or left to int() to reject
    with pytest.raises(PreconditionError):
        GaugeNorm.kyfan(k)


def test_kyfan_takes_numpy_integers():
    assert GaugeNorm.kyfan(np.int64(3)) == GaugeNorm.kyfan(3)


@pytest.mark.parametrize("kind, p, k", [
    ("foo", 0.0, 0), ("schatten", 0.5, 0), ("schatten", math.nan, 0),
    ("schatten", 0.0, 0), ("kyfan", 0.0, 0), ("kyfan", 0.0, 1.5),
    ("op", 3, 0), ("op", math.nan, 0), ("op", 0.0, 2), ("kyfan", 7.0, 2),
    ("schatten", 2.0, 1)])
def test_direct_construction_is_checked(kind, p, k):
    # the constructor refuses what the named constructors and parse refuse,
    # so no instance labels or evaluates a norm it is not (an unknown kind
    # read "kyfan:0", Schatten p = 0.5 gave 4 on [1, 1], Ky Fan k = 0 gave 0),
    # and a p or k its kind does not use (GaugeNorm("op", p=3) evaluated as
    # the operator norm but compared unequal to OP_NORM)
    with pytest.raises(PreconditionError):
        GaugeNorm(kind, p=p, k=k)


def test_direct_construction_equals_the_named_constructors():
    assert GaugeNorm("schatten", p=2) == FROBENIUS_NORM
    assert GaugeNorm("kyfan", k=np.int64(2)) == GaugeNorm.kyfan(2)
    assert type(GaugeNorm("kyfan", k=np.int64(2)).k) is int


@given(seeds)
def test_gauge_norm_orderings(seed):
    a = generate.ginibre(np.random.default_rng(seed), 4, 3)
    op = gauge_norm(a, OP_NORM)
    fro = gauge_norm(a, FROBENIUS_NORM)
    tr = gauge_norm(a, TRACE_NORM)
    assert op <= fro + 1e-12
    assert fro <= tr + 1e-12
    # Ky Fan at full length is the trace norm
    assert gauge_norm(a, GaugeNorm.kyfan(3)) == pytest.approx(tr)
    # Ky Fan 1 is the operator norm
    assert gauge_norm(a, GaugeNorm.kyfan(1)) == pytest.approx(op)


@given(seeds, dims, dims, st.sampled_from([1e-150, 1.0, 1e150]))
def test_schatten_2_from_the_entries_matches_the_singular_values(seed, m, n, scale):
    # s2 and sp:2 read the Frobenius norm off the entries, without an SVD
    a = scale * generate.ginibre(np.random.default_rng(seed), m, n)
    sv = np.linalg.svd(a, compute_uv=False)
    for spec in ("s2", "sp:2"):
        g = GaugeNorm.parse(spec)
        assert gauge_norm(a, g) == pytest.approx(g.of_singular_values(sv), rel=1e-13)


@pytest.mark.parametrize("p", [1, 3, 600, 1e308])
@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_schatten_gauge_is_exactly_scale_equivariant(scale, p):
    # s_1 (sum (s_i/s_1)^p)^{1/p}: no power of a singular value under- or
    # overflows, so ||sA|| = s ||A|| to the last bit, with no warning; the
    # power-of-two singular values make the ratios exact at every scale
    a = np.diag([4.0, 2.0, 1.0, 0.0])
    g = GaugeNorm.schatten(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ref = gauge_norm(a, g)
        assert gauge_norm(scale * a, g) == scale * ref
        assert g.of_singular_values([0.0, 0.0]) == 0.0
    assert 4.0 <= ref <= 7.0        # between the operator and the trace norm


@given(seeds)
def test_gauge_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    a = generate.ginibre(rng, 4, 4)
    b = generate.ginibre(rng, 4, 4)
    for g in (OP_NORM, TRACE_NORM, FROBENIUS_NORM, GaugeNorm.kyfan(2)):
        assert gauge_norm(a + b, g) <= gauge_norm(a, g) + gauge_norm(b, g) + 1e-10


@given(seeds)
def test_gauge_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    a = generate.ginibre(rng, 4, 4)
    u = generate.unitary(rng, 4)
    for g in (OP_NORM, TRACE_NORM, GaugeNorm.schatten(3)):
        assert gauge_norm(u @ a, g) == pytest.approx(gauge_norm(a, g))


@given(seeds, st.integers(min_value=0, max_value=3))
def test_svd_rank_and_reconstruction(seed, r):
    a = generate.fixed_rank(np.random.default_rng(seed), 5, 4, r)
    res = svd(a)
    assert res.rank == r
    # the rank-r factors alone give A back
    s_r = res.singular_values[:r]
    assert np.linalg.norm((res.U[:, :r] * s_r) @ res.Vt[:r] - a) < 1e-10


def test_svd_zero_matrix():
    res = svd(np.zeros((3, 2)))
    assert res.rank == 0
    assert res.rank_tolerance == 0.0


def test_eigh_rejects_non_hermitian(rng):
    with pytest.raises(PreconditionError):
        eigh(generate.ginibre(rng, 3, 3))
    with pytest.raises(PreconditionError):
        eigh(generate.ginibre(rng, 3, 2))


def test_eigh_ascending(rng):
    h = generate.hermitian(rng, 5)
    q, w = eigh(h)
    assert np.all(np.diff(w) >= 0)
    assert np.linalg.norm((q * w) @ q.conj().T - h) < 1e-10


@given(seeds, st.integers(min_value=0, max_value=3))
def test_subspace_bases(seed, r):
    a = generate.fixed_rank(np.random.default_rng(seed), 5, 4, r)
    res = svd(a)
    assert res.range_basis.shape == (5, r)
    assert res.corange_basis.shape == (5, 5 - r)
    assert res.row_basis.shape == (4, r)
    assert res.null_basis.shape == (4, 4 - r)
    for basis in (res.range_basis, res.corange_basis, res.row_basis, res.null_basis):
        k = basis.shape[1]
        assert np.linalg.norm(basis.conj().T @ basis - np.eye(k)) < 1e-10
    assert np.linalg.norm(a @ res.null_basis) < 1e-9
    assert np.linalg.norm(res.corange_basis.conj().T @ a) < 1e-9
    # the row basis spans N(A)^perp: A loses nothing on it
    assert np.linalg.norm(a @ res.row_basis @ res.row_basis.conj().T - a) < 1e-9


def test_complement_basis(rng):
    cols = generate.unitary(rng, 5)[:, :2]
    comp = svd(cols).corange_basis
    assert comp.shape == (5, 3)
    assert np.linalg.norm(cols.conj().T @ comp) < 1e-10


def test_psd_eigh_rejects_indefinite():
    with pytest.raises(PreconditionError):
        psd_eigh(np.diag([1.0, -1e-6]))


@pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
def test_hermitian_and_psd_checks_are_scale_free(rng, s):
    # the checks compare against HERMITIAN_REL times the scale of the
    # input, with no floor at 1, so sC is accepted or refused as C is
    with pytest.raises(PreconditionError):
        psd_eigh(s * np.diag([1.0, -0.5]))
    with pytest.raises(PreconditionError):
        eigh(s * np.array([[1.0, 1e-6], [0.0, 1.0]]))
    c = generate.psd_fixed_rank(rng, 4, 2)
    assert psd_eigh(s * c).rank == 2


def test_eigh_rejects_non_hermitian_input_near_overflow():
    # ||H||_F and ||H - H*||_F of 1e200 [[1, 1], [0, 1]] both overflow
    # unscaled, and inf > inf would accept it
    h = 1e200 * np.array([[1.0, 1.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError):
            eigh(h)
        with pytest.raises(PreconditionError):
            psd_eigh(h)


def test_eigh_accepts_hermitian_input_near_overflow(rng):
    h = generate.hermitian(rng, 4)
    c = generate.psd_fixed_rank(rng, 4, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, w = eigh(1e200 * h)
        eig = psd_eigh(1e200 * c)
    assert np.allclose(w, 1e200 * np.linalg.eigvalsh(h), rtol=1e-12, atol=0)
    assert eig.rank == 2
    assert np.linalg.norm((q * (w / 1e200)) @ q.conj().T - h) < 1e-12 * np.linalg.norm(h)


def test_frobenius_gauge_near_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = gauge_norm(1e200 * np.eye(2), FROBENIUS_NORM)
    assert value == pytest.approx(1e200 * math.sqrt(2), rel=1e-15)


@pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
def test_hermitian_check_is_relative_at_every_scale(rng, s):
    h = generate.hermitian(rng, 4)
    k = generate.hermitian(rng, 4)
    assert np.array_equal(hermitian_checked(s * h), s * h)
    assert np.array_equal(hermitian_checked(np.zeros((3, 3))), np.zeros((3, 3)))
    with pytest.raises(PreconditionError, match="Delta is not Hermitian"):
        hermitian_checked(s * (h + 1e-3j * k), "Delta")
    with pytest.raises(PreconditionError, match="must be square"):
        hermitian_checked(s * generate.ginibre(rng, 3, 2))


@pytest.mark.parametrize("p", [
    np.full((2, 2), np.inf),                    # an overflowed product
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    1e300 * np.ones((4, 4)),                    # ||P^2 - P||_F overflows scaled
    1.7e308 * np.ones((4, 4)),                  # 2^-e P^2 overflows
    1e154 * np.eye(2),                          # ||P^2||_F overflows unscaled
])
def test_idempotent_checked_refuses_without_warning(p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="P is not idempotent"):
            idempotent_checked(p.astype(complex), "P")


def _banded(rng, d, width):
    """A random Hermitian d x d matrix that vanishes off its 2 width + 1 central diagonals."""
    h = generate.hermitian(rng, d)
    i, j = np.indices((d, d))
    return np.where(abs(i - j) <= width, h, 0.0)


def _dense(diag, off):
    """The Hermitian tridiagonal T with real diagonal diag and subdiagonal off."""
    return np.diag(diag.astype(complex)) + np.diag(off, -1) + np.diag(off.conj(), 1)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 33])
@pytest.mark.parametrize("kind", ["dense", "diagonal", "tridiagonal"])
def test_tridiagonalize_reconstructs(rng, d, kind):
    h = _banded(rng, d, {"dense": d, "diagonal": 0, "tridiagonal": 1}[kind])
    q, diag, off = tridiagonalize(h)
    t = _dense(diag, off)
    assert diag.dtype == float and off.shape == (d - 1,)
    assert np.array_equal(t, np.triu(np.tril(t, 1), -1))
    assert np.linalg.norm(q @ q.conj().T - np.eye(d)) <= UNITARY_REL * d
    assert np.linalg.norm(q @ t @ q.conj().T - h) <= 1e-13 * np.linalg.norm(h)
    if kind != "dense":
        # every column is already zero below its subdiagonal: no reflection
        assert np.array_equal(q, np.eye(d)) and np.array_equal(t, h)


def test_tridiagonalize_near_overflow_and_rejects_non_hermitian(rng):
    h = generate.hermitian(rng, 6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, diag, off = tridiagonalize(1e200 * h)
    assert np.linalg.norm(q @ (_dense(diag, off) / 1e200) @ q.conj().T - h) <= (
        1e-13 * np.linalg.norm(h))
    with pytest.raises(PreconditionError):
        tridiagonalize(generate.ginibre(rng, 4, 4))


def test_psd_eigh_zero_matrix():
    eig = psd_eigh(np.zeros((3, 3)))
    assert eig.rank == 0 and np.all(eig.w == 0.0)


@pytest.mark.parametrize("r", [0, 2])
def test_svd_result_pseudoinverse_fields(rng, r):
    # rank-deficient and zero matrices: A^+, gamma and the projectors
    a = generate.fixed_rank(rng, 5, 4, r)
    res = svd(a)
    a_pinv = np.linalg.pinv(a, rcond=1e-10)
    assert np.linalg.norm(res.pinv - a_pinv) < 1e-10
    s = np.linalg.svd(a, compute_uv=False)
    assert res.gamma == (s[r - 1] if r else 0.0)
    assert res.pinv_norm == (1.0 / s[r - 1] if r else 0.0)
    # the projectors, built here from the bases
    u_r, v_n = res.range_basis, res.null_basis
    assert np.linalg.norm(u_r @ u_r.conj().T - a @ a_pinv) < 1e-10
    assert np.linalg.norm(v_n @ v_n.conj().T - (np.eye(4) - a_pinv @ a)) < 1e-10


@pytest.mark.parametrize("r", [0, 3])
def test_psd_eig_accessors(rng, r):
    c = generate.psd_fixed_rank(rng, 5, r) if r else np.zeros((5, 5))
    eig = psd_eigh(c)
    assert eig.rank == r and eig.range_basis.shape == (5, r)
    assert eig.null_basis.shape == (5, 5 - r)
    assert np.array_equal(eig.range_values, eig.w[5 - r:]) and np.all(eig.range_values > 0)
    root = eig.sqrt()
    assert np.linalg.norm(root @ root - c) < 1e-10
    c_pinv = np.linalg.pinv(c, rcond=1e-10, hermitian=True)
    assert np.linalg.norm(eig.pinv() - c_pinv) < 1e-10
    assert np.linalg.norm(eig.pinv_sqrt() @ eig.pinv_sqrt() - c_pinv) < 1e-10
    q_r = eig.range_basis
    assert np.linalg.norm(q_r @ q_r.conj().T - c @ c_pinv) < 1e-10
    assert np.linalg.norm(eig.null_proj() - (np.eye(5) - c @ c_pinv)) < 1e-10


@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_rank_cutoff_boundary(factor):
    # one eigenvalue of C at 0.5x or 2x the rank cutoff: rank, congruence
    # and both functional-calculus routes must take the same side of it
    n = 5
    q = generate.unitary(generate.rng_from_seed(3), n)
    w = np.array([2.0, 1.5, 1.0, 0.7, 0.0])
    d = (q[:, ::-1] * w) @ q[:, ::-1].conj().T           # rank n - 1
    w[-1] = factor * RANK_REL * n * w[0]
    c = (q * w) @ q.conj().T
    rank = psd_eigh(c).rank
    assert rank == svd(c).rank == (n - 1 if factor < 1 else n)
    if rank == n - 1:
        g = polar.congruence_witness(c, d)
        assert np.linalg.norm(g @ c @ g.conj().T - d) < 1e-8
    else:
        with pytest.raises(StratumError):
            polar.congruence_witness(c, d)
    f = monotone.make_sqrt()
    spec = monotone.matrix_eval_spectral(f, c)
    intg = monotone.matrix_eval_integral(f, c)
    assert np.linalg.norm(spec - intg) <= 1e-9 * (1 + np.linalg.norm(spec))


# Every public entry point that takes several operands, called with a 3x3
# and a 4x4 one (column blocks on a 3- and a 4-dimensional space for the
# principal angles), or for act and trivialize_alpha_inverse with a derived
# shape that does not fit: each operand is valid on its own.
_D3, _D4 = np.diag([2.0, 1.0, 0.0]), np.diag([3.0, 2.0, 1.0, 0.0])
_I3, _I4 = np.eye(3), np.eye(4)
_SQRT = monotone.make_sqrt()
MISMATCHED = {
    "same_shape": lambda: same_shape(_D4, _D4, _D3),
    "wedin_residual": lambda: pinv.wedin_residual(_D4, _D3, OP_NORM),
    "same_rank_bound": lambda: pinv.same_rank_bound(_D4, _D3),
    "essential_codimension": lambda: codim.essential_codimension(
        codim.projector_eig(_I4), codim.projector_eig(_I3)),
    "direct_rotation": lambda: codim.direct_rotation(_I4, _I3),
    "principal_cosines": lambda: codim.principal_cosines(_I4[:, :2], _I3[:, :2]),
    "intersection_dim": lambda: codim.intersection_dim(_I4[:, :2], _I3[:, :2]),
    "intersection_basis": lambda: codim.intersection_basis(_I4[:, :2], _I3[:, :2]),
    "stratum_index": lambda: strata.stratum_index(_D3, _D4),
    "act-G": lambda: strata.act(strata.GroupPair(_I3, _I4), _D4),
    "act-K": lambda: strata.act(strata.GroupPair(_I4, _I3), _D4),
    "transitivity_witness": lambda: strata.transitivity_witness(_D4, _D3),
    "local_section_sigma": lambda: strata.local_section_sigma(_D4, _D3),
    "approximate_in_stratum": lambda: strata.approximate_in_stratum(_D3, _D4, 0, 0.1),
    "correct_to_stratum_zero": lambda: strata.correct_to_stratum_zero(_D4, _D3),
    "continuity_report": lambda: strata.continuity_report(_D4, [_D4, _D3], 0, OP_NORM),
    "mp_map": lambda: strata.mp_map(_D3, _D4),
    "tangent_membership": lambda: strata.tangent_membership(_D4, _D3),
    "mp_tangent": lambda: strata.mp_tangent(_D4, _D3),
    "taylor_terms": lambda: monotone.taylor_terms(_SQRT, _I4, _D3, 1),
    "taylor_remainder_bound": lambda: monotone.taylor_remainder_bound(
        _SQRT, 2 * _I4, 0.1 * _I3, 1),
    "taylor_tail_bounds": lambda: monotone.taylor_tail_bounds(
        _SQRT, 2 * _I4, 0.1 * _I3, 1),
    "sqrt_taylor_terms": lambda: monotone.sqrt_taylor_terms(_I4, _D3, 1),
    "perturbation_bound": lambda: monotone.perturbation_bound(_SQRT, _I4, _I3),
    "riemann_sum": lambda: monotone.riemann_sum(_SQRT, _I4, _I3, 2, 64.0),
    "riemann_decay_slope": lambda: monotone.riemann_decay_slope(
        _SQRT, _I4, _I3, [1, 2], 64.0),
    "continuity_in_stratum": lambda: monotone.continuity_in_stratum(_SQRT, _I4, [_I4, _I3]),
    "congruence_witness": lambda: polar.congruence_witness(_D4, _D3),
    "positive_section": lambda: polar.positive_section(_D4, _D3),
    "isometry_orbit_witness": lambda: polar.isometry_orbit_witness(_I4, _I3),
    "modulus_map": lambda: polar.modulus_map(_D3, _D4),
    "polar_factor_map": lambda: polar.polar_factor_map(_D3, _D4),
    "fiber_membership_alpha": lambda: polar.fiber_membership_alpha(_D3, _D4, _D4),
    "trivialize_alpha": lambda: polar.trivialize_alpha(_D3, _D4, _D4),
    "trivialize_alpha_inverse": lambda: polar.trivialize_alpha_inverse(_D3, _D4, _D4),
    "trivialize_alpha_inverse-fiber": lambda: polar.trivialize_alpha_inverse(
        _D4, _D4[:, :3], _D4),
    "trivialize_v": lambda: polar.trivialize_v(_D3, _I4),
    "trivialize_v_inverse": lambda: polar.trivialize_v_inverse(_I4, _D3, _I4),
}


@pytest.mark.parametrize("name", sorted(MISMATCHED))
def test_mismatched_operand_shapes_raise_precondition_error(name):
    # PreconditionError and no other exception, such as numpy's ValueError
    with pytest.raises(PreconditionError):
        MISMATCHED[name]()


def test_mismatched_modulus_names_both_shapes():
    # a 3x3 modulus against a 4x4 C0 is refused by the one shape check
    with pytest.raises(PreconditionError, match=r"got \(3, 3\) and \(4, 4\)"):
        MISMATCHED["trivialize_alpha_inverse"]()
