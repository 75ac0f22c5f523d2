"""The structure path of ``fix``, ``commutant`` and ``structure`` against the dense kernel.

Under the theorem's hypotheses the fixed space and the commutant are both
A', the commutant of the *-algebra A the family generates.  The CLI takes
``structure_fixed_space`` / ``structure_commutant`` when they can certify the
dense kernel's answer and the dense ``fixed_space_basis`` /
``commutant_basis`` otherwise; the dense kernel is the oracle here.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from cpfix import algebra, cli, io
from cpfix.algebra import (
    algebra_structure,
    commutant_basis,
    structure_commutant,
    structure_fixed_space,
)
from cpfix.channel import KrausFamily, fixed_space_basis, normalization_report
from cpfix.matcore import ToleranceConfig, eigen_clusters, opnorm, vec

from conftest import (
    E11,
    E12,
    haar_unitary,
    random_complex,
    random_hermitian,
    random_unital_family,
    spin_family,
    su2_tensor_family,
    transposition_family,
)

CFG = ToleranceConfig()
N_TERMS = 3


def block_family(spec, seed):
    """V ((+)_i u_{t,i} (x) 1_{n_i}) V* / sqrt(3): A = (+)_i M_{m_i} (x) 1_{n_i}."""
    rng = np.random.default_rng(seed)
    d = sum(m * n for m, n in spec)
    v = haar_unitary(d, rng)
    ops = []
    for _ in range(N_TERMS):
        x = np.zeros((d, d), dtype=complex)
        start = 0
        for m, n in spec:
            x[start : start + m * n, start : start + m * n] = np.kron(haar_unitary(m, rng), np.eye(n))
            start += m * n
        ops.append(v @ x @ v.conj().T / np.sqrt(N_TERMS))
    return KrausFamily.from_operators(ops)


def near_identity_family(eps, seed, d=24):
    """exp(i eps H_t) / sqrt(3): irreducible, with a fixed-space gap of order eps^2."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(N_TERMS):
        w, v = np.linalg.eigh(random_hermitian(d, rng))
        ops.append((v * np.exp(1j * eps * w)) @ v.conj().T / np.sqrt(N_TERMS))
    return KrausFamily.from_operators(ops)


def commuting_family(d, seed):
    """V diag(phases_t) V* / sqrt(3): A is the diagonal algebra, d blocks (1, 1), and A' = A."""
    rng = np.random.default_rng(seed)
    v = haar_unitary(d, rng)
    phases = np.exp(2j * np.pi * rng.random((N_TERMS, d)))
    return KrausFamily.from_operators([(v * p) @ v.conj().T / np.sqrt(N_TERMS) for p in phases])


SPECS = {
    "(2,1)^3": [(2, 1)] * 3,
    "(2,3)+(3,2)": [(2, 3), (3, 2)],
    "(4,5)": [(4, 5)],
    "(3,1)+(3,1)+(1,4)": [(3, 1), (3, 1), (1, 4)],
}
FAMILIES = {
    **{spec: (lambda s=s: block_family(s, 7)) for spec, s in SPECS.items()},
    **{f"exp eps={eps:g}": (lambda e=eps: near_identity_family(e, 11)) for eps in (1e-1, 1e-2, 1e-3, 1e-4)},
    **{f"commuting d={d}": (lambda d=d: commuting_family(d, 1)) for d in (16, 24)},
    # h1's eigenvectors alone leave a drift of 1.6e-11 to 2.4e-11 here, over
    # the gate: the refined frames answer
    **{
        f"(7,1)+(7,1)+(6,1) seed={seed}": (lambda s=seed: block_family([(7, 1), (7, 1), (6, 1)], s))
        for seed in (28, 41, 64)
    },
    **{f"spin d={d}": (lambda d=d: spin_family(d)) for d in (5, 9)},
}


def _matrix(obj) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in obj])


def _report(tmp_path, capsys, command, kf, name="channel.json", options=()):
    path = tmp_path / name
    io.write_channel(path, kf)
    code = cli.run([command, str(path), "--json", *options])
    out = capsys.readouterr().out
    return code, out, json.loads(out)


def _oracle(command, kf):
    if command == "fix":
        return fixed_space_basis(kf)
    return commutant_basis(kf.operators)


def _dense_report(tmp_path, capsys, command, kf, options=()):
    """The CLI's stdout with the structure path switched off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "structure_fixed_space", lambda *a: None)
        m.setattr(cli, "structure_commutant", lambda *a: None)
        return _report(tmp_path, capsys, command, kf, "dense.json", options)


def _smallest_cosine(basis, other) -> float:
    """Cosine of the largest principal angle between the spans of two HS-orthonormal bases."""
    a = np.stack([np.ravel(b) for b in basis], axis=1)
    b = np.stack([np.ravel(m) for m in other], axis=1)
    return float(np.linalg.svd(a.conj().T @ b, compute_uv=False).min())


@pytest.fixture
def no_dense(monkeypatch):
    """Fail the test if the CLI reaches the dense kernel."""

    def refuse(*args, **kwargs):
        raise AssertionError("the dense kernel ran")

    monkeypatch.setattr(cli, "fixed_space_basis", refuse)
    monkeypatch.setattr(cli, "commutant_basis", refuse)


class TestDifferential:
    @pytest.mark.parametrize("name", list(FAMILIES))
    @pytest.mark.parametrize("command", ["fix", "commutant"])
    def test_structure_path_matches_dense_oracle(self, tmp_path, capsys, no_dense, name, command):
        kf = FAMILIES[name]()
        assert kf.dim <= 24
        oracle = _oracle(command, kf)
        code, _, report = _report(tmp_path, capsys, command, kf)
        assert code == 0
        basis = [_matrix(m) for m in report["basis"]]
        assert report["dimension"] == oracle.dimension == len(basis)
        assert report["rankWarning"] is oracle.rank_warning is False
        assert _smallest_cosine(basis, oracle.basis) >= 1.0 - 1e-8
        gram = np.array([[np.vdot(a, b) for b in basis] for a in basis])
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-12)
        if command == "fix":
            assert report["unital"] is True
            assert all(np.array_equal(b, b.conj().T) for b in basis)

    @pytest.mark.parametrize("delta", [1e-14, 1e-12, 3e-11, 1e-10, 1e-9, 1e-8, 1e-6])
    @pytest.mark.parametrize("command", ["fix", "commutant"])
    def test_near_threshold_perturbation_keeps_the_rank_decision(self, tmp_path, capsys, delta, command):
        # near the dense kernel's cut the oracle sets rankWarning; the
        # structure path must then leave the answer to it
        base = block_family(SPECS["(2,3)+(3,2)"], 7)
        rng = np.random.default_rng(3)
        ops = []
        for x in base.operators:
            p = random_complex(base.dim, rng)
            ops.append(x + delta * p / np.linalg.norm(p, 2))
        kf = KrausFamily.from_operators(ops)
        oracle = _oracle(command, kf)
        code, out, report = _report(tmp_path, capsys, command, kf)
        assert code == 0
        assert (report["dimension"], report["rankWarning"]) == (oracle.dimension, oracle.rank_warning)
        if oracle.rank_warning:
            assert out == _dense_report(tmp_path, capsys, command, kf)[1]

    @pytest.mark.parametrize("name", list(SPECS))
    def test_blocks_are_the_construction(self, name):
        st = algebra_structure(block_family(SPECS[name], 7), CFG)
        assert sorted(st.blocks) == sorted(SPECS[name])
        assert st.dimension == sum(n * n for _, n in SPECS[name])

    @pytest.mark.parametrize("eps", [1e-1, 1e-4])
    def test_near_identity_is_irreducible(self, eps):
        assert algebra_structure(near_identity_family(eps, 11), CFG).blocks == [(24, 1)]

    def test_frames_bring_every_member_to_block_form(self):
        kf = block_family(SPECS["(2,3)+(3,2)"], 3)
        st = algebra_structure(kf, CFG)
        q = np.concatenate([f.reshape(kf.dim, -1) for f in st.frames], axis=1)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(kf.dim), atol=1e-12)
        for b in st.commutant().basis:
            for x in kf.operators:
                assert np.linalg.norm(x @ b - b @ x) <= 1e-12
                assert np.linalg.norm(x.conj().T @ b - b @ x.conj().T) <= 1e-12

    def test_separation_is_the_smallest_commutator_off_the_commutant(self):
        # 0.5 (+) sigma_x and 0.25 (+) sigma_z generate C (+) M_2, blocks (1, 1)
        # and (2, 1), so A' = span{e00, 1_2}
        xs = np.zeros((2, 3, 3), dtype=complex)
        xs[:, 0, 0] = 0.5, 0.25
        xs[0, 1:, 1:] = [[0, 1], [1, 0]]
        xs[1, 1:, 1:] = [[1, 0], [0, -1]]
        st = algebra.AlgebraStructure((np.eye(3)[:, None, :1], np.eye(3)[:, 1:, None]))
        defects, blocks = st.compress(xs)
        assert defects.tolist() == [0.0, 0.0]
        # the dense system a -> ([x_t, a])_t has 9 - dim A' = 7 nonzero singular values
        s = commutant_basis(list(xs)).singular_values
        assert np.sum(s > 1e-12) == 7
        assert algebra._separated(blocks, (1.0 - 1e-6) * s[6])
        assert not algebra._separated(blocks, (1.0 + 1e-6) * s[6])

    def test_sylvester_is_the_kron_stack(self):
        rng = np.random.default_rng(5)
        xs = np.stack([random_complex(4, rng) for _ in range(3)])
        eye = np.eye(4)
        kron = np.vstack([np.kron(eye, x) - np.kron(x.T, eye) for x in xs])
        assert np.array_equal(algebra._sylvester(xs, xs), kron)

    def test_sylvester_maps_vec_b_to_vec_of_x_b_minus_b_y(self):
        rng = np.random.default_rng(6)
        x = np.stack([random_complex(2, rng) for _ in range(3)])
        y = np.stack([random_complex(3, rng) for _ in range(3)])
        b = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        want = np.concatenate([vec(xt @ b - b @ yt) for xt, yt in zip(x, y)])
        np.testing.assert_allclose(algebra._sylvester(x, y) @ vec(b), want, rtol=0, atol=1e-14)


def _letters_and_blocks(kf):
    """The unweighted letters x_t / max ||x_t|| and their blocks in the certified structure."""
    st = algebra_structure(kf, CFG)
    letters = np.stack(kf.operators) / kf.operator_norms.max()
    defects, blocks = st.compress(letters)
    assert defects.max() <= 1e-12
    return st, letters, blocks


def _exact_separation(st, letters) -> float:
    """The least nonzero singular value of the dense system a -> ([z_t, a])_t; A' is its kernel."""
    s = np.sort(commutant_basis(list(letters)).singular_values)
    assert s[st.dimension - 1] <= 1e-12 < s[st.dimension]
    return float(s[st.dimension])


class TestSeparation:
    """``_separated`` against the exact separation of the dense system."""

    @pytest.mark.parametrize(
        "kf",
        [block_family(s, 7) for s in SPECS.values()] + [commuting_family(d, 2) for d in (4, 9)],
        ids=[*SPECS, "commuting d=4", "commuting d=9"],
    )
    def test_threshold_is_the_exact_separation(self, kf):
        st, letters, blocks = _letters_and_blocks(kf)
        sigma = _exact_separation(st, letters)
        assert algebra._separated(blocks, (1.0 - 1e-6) * sigma)
        assert not algebra._separated(blocks, (1.0 + 1e-6) * sigma)

    # blocks (m, n) with m <= 3 and n <= 2, so d <= 18 and the dense oracle stays cheap
    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(
        spec=strategies.lists(
            strategies.tuples(strategies.integers(1, 3), strategies.integers(1, 2)), min_size=1, max_size=3
        ),
        seed=strategies.integers(0, 2**16),
        factor=strategies.one_of(
            strategies.sampled_from([1.0 - 1e-6, 1.0 + 1e-6]),
            strategies.floats(0.5, 2.0).filter(lambda f: abs(f - 1.0) > 1e-6),
        ),
    )
    def test_certificate_agrees_with_the_exact_separation(self, spec, seed, factor):
        kf = block_family(spec, seed)
        st, letters, blocks = _letters_and_blocks(kf)
        if st.dimension == kf.dim**2:
            return  # A = C 1: nothing is orthogonal to A'
        sigma = _exact_separation(st, letters)
        assert algebra._separated(blocks, factor * sigma) is (factor < 1.0)

    def test_gram_is_the_sylvester_gram(self):
        rng = np.random.default_rng(8)
        for p, q, a, b in [(2, 3, 2, 3), (1, 1, 4, 4), (3, 3, 2, 2), (4, 1, 1, 2)]:
            x = np.stack([[random_complex(p, rng) for _ in range(N_TERMS)] for _ in range(a)])
            y = np.stack([[random_complex(q, rng) for _ in range(N_TERMS)] for _ in range(b)])
            gram = algebra._gram(algebra._terms(x), algebra._terms(y))
            assert gram.shape == (a, b, p * q, p * q)
            for i in range(a):
                for j in range(b):
                    system = algebra._sylvester(x[i], y[j])
                    np.testing.assert_allclose(gram[i, j], system.conj().T @ system, rtol=0, atol=1e-13)

    def test_rounding_shift_keeps_equivalent_blocks_apart(self):
        # y_t = u x_t u* gives x_t u - u y_t = 0, so sigma = 0; rounding alone
        # leaves the Gram's least eigenvalue near +-1e-16, which an unshifted
        # factorization accepts at theta = 1e-12 on several of these seeds
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = np.stack([haar_unitary(3, rng) for _ in range(N_TERMS)])
            u = haar_unitary(3, rng)
            assert not algebra._separated([x, u @ x @ u.conj().T], 1e-12)

    def test_non_finite_blocks_decline(self):
        # LAPACK's factorization does not break down on a NaN
        assert not algebra._separated([np.full((N_TERMS, 2, 2), np.nan)], 0.1)

    def test_commuting_family_at_d64_stays_on_the_path(self):
        found = structure_fixed_space(commuting_family(64, 1), CFG)
        assert found is not None and found.dimension == 64

    def test_irreducible_block_above_24_stays_on_the_path(self):
        # the Gram of the one (32, 1) pair is 1024 x 1024, 16 MiB: at the cap
        kf = block_family([(32, 1)], 7)
        found = structure_fixed_space(kf, CFG)
        oracle = fixed_space_basis(kf)
        assert found is not None
        assert (found.dimension, oracle.dimension, oracle.rank_warning) == (1, 1, False)
        assert _smallest_cosine(found.commutant(hermitian=True).basis, oracle.basis) >= 1.0 - 1e-8
        assert structure_fixed_space(block_family([(33, 1)], 7), CFG) is None


class TestFallback:
    def test_non_unital_fix_is_dense(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(algebra, "algebra_structure", lambda *a: calls.append(a))
        path = tmp_path / "e11.json"
        io.write_channel(path, KrausFamily.from_operators([E11]))
        assert cli.run(["fix", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "fixed-space dimension: 1",
            "warning: family is not unital",
        ]
        assert calls == []  # ||col - 1|| = 1 decides before any structure

    def test_commutant_of_e01_is_span_of_identity_and_e01(self, tmp_path, capsys):
        # {x}' = span{1, x} is larger than {x, x*}' = C 1: the dense kernel answers
        kf = KrausFamily.from_operators([E12])
        assert algebra_structure(kf, CFG).blocks == [(2, 1)]
        assert structure_commutant(kf, CFG) is None
        code, _, report = _report(tmp_path, capsys, "commutant", kf)
        assert code == 0
        basis = [_matrix(m) for m in report["basis"]]
        assert report["dimension"] == 2
        span = [np.eye(2) / np.sqrt(2), E12]
        assert _smallest_cosine(basis, span) >= 1.0 - 1e-12

    @pytest.mark.parametrize("eps, tol", [(5e-10, None), (1e-4, "1e-3")])
    @pytest.mark.parametrize("command", ["fix", "commutant"])
    def test_nearly_unital_weight_eps_family_is_dense(self, tmp_path, capsys, eps, tol, command):
        # (1 - eps) 1 + eps e01*e01 passes the unital flag at this tol, and
        # {1, e01, e10}' = C 1, yet the dense kernels answer otherwise:
        # {1, e01}' = span{1, e01}, and Phi(1) - 1 = -eps e00
        kf = KrausFamily(dim=2, terms=((1.0 - eps, np.eye(2)), (eps, E12)))
        options = ("--tol", tol) if tol else ()
        code, out, report = _report(tmp_path, capsys, command, kf, options=options)
        assert code == 0
        assert out == _dense_report(tmp_path, capsys, command, kf, options)[1]
        cfg = ToleranceConfig(eq_tol=float(tol)) if tol else CFG
        oracle = _oracle(command, kf)
        assert (report["dimension"], report["rankWarning"]) == (oracle.dimension, oracle.rank_warning)
        if command == "commutant":
            assert report["dimension"] == 2 and report["rankWarning"] is False
        else:
            assert report["unital"] is True
            assert structure_fixed_space(kf, cfg) is None

    def test_frobenius_deviation_declines(self, tmp_path, capsys):
        # sum mu x*x = sum mu x x* = (1 + eps) 1 to rounding at d = 16: the
        # spectral deviation eps = 5e-12 is within NULL_TOL / AMBIGUITY =
        # 1e-11, its Frobenius norm 4 eps = 2e-11 is not.  e_c and e_r are
        # Frobenius norms, so the structure path declines and the dense
        # kernel answers
        eps, d = 5e-12, 16
        rng = np.random.default_rng(3)
        kf = KrausFamily(dim=d, terms=tuple(((1.0 + eps) / 3, haar_unitary(d, rng)) for _ in range(3)))
        eye = np.eye(d)
        for total in (kf.column_sum, kf.row_sum):
            assert abs(np.linalg.norm(total - eye, 2) - eps) < 1e-14
            assert abs(np.linalg.norm(total - eye) - 4 * eps) < 1e-13
        assert structure_fixed_space(kf, CFG) is None
        oracle = fixed_space_basis(kf)
        code, _, report = _report(tmp_path, capsys, "fix", kf)
        assert code == 0
        assert (report["dimension"], report["rankWarning"]) == (oracle.dimension, oracle.rank_warning)
        assert cli.run(["fix", str(tmp_path / "channel.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"fixed-space dimension: {oracle.dimension}"
        assert ("warning: rank decision is numerically ambiguous" in lines) == oracle.rank_warning

    def test_overflowing_weights_keep_the_commutant(self, tmp_path, capsys):
        # sum mu x*x overflows; {x}' needs no weights
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dim": 2, "terms": [
            {"weight": 1e300, "matrix": [[[1e10, 0], [0, 0]], [[0, 0], [2e10, 0]]]}]}))
        with np.errstate(all="ignore"):
            assert cli.run(["commutant", str(path)]) == 0
            assert cli.run(["structure", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "commutant dimension: 2",
            "block 0: m = 1, n = 1",
            "block 1: m = 1, n = 1",
            "commutant dimension: 2",
        ]

    @pytest.mark.parametrize("command", ["fix", "commutant"])
    def test_failed_certificate_gives_the_dense_result(self, tmp_path, capsys, monkeypatch, command):
        kf = block_family(SPECS["(2,3)+(3,2)"], 5)
        _, dense, _ = _dense_report(tmp_path, capsys, command, kf)
        real = algebra.AlgebraStructure.compress
        calls = []

        def fail(st, letters):
            calls.append(letters)
            defects, blocks = real(st, letters)
            return np.full_like(defects, np.inf), blocks

        monkeypatch.setattr(algebra.AlgebraStructure, "compress", fail)
        code, out, _ = _report(tmp_path, capsys, command, kf)
        assert code == 0 and out == dense
        assert len(calls) == 2  # the first draw and the redraw

    @pytest.mark.parametrize("command", ["fix", "commutant"])
    def test_failed_gap_certificate_gives_the_dense_result(self, tmp_path, capsys, monkeypatch, command):
        kf = block_family(SPECS["(2,3)+(3,2)"], 5)
        _, dense, _ = _dense_report(tmp_path, capsys, command, kf)
        monkeypatch.setattr(algebra, "_separated", lambda blocks, theta: False)
        code, out, _ = _report(tmp_path, capsys, command, kf)
        assert code == 0 and out == dense

    def test_redraw_can_certify(self, monkeypatch):
        real = algebra.AlgebraStructure.compress
        calls = []

        def fail_first(st, letters):
            calls.append(letters)
            defects, blocks = real(st, letters)
            return (np.full_like(defects, np.inf) if len(calls) == 1 else defects), blocks

        monkeypatch.setattr(algebra.AlgebraStructure, "compress", fail_first)
        st = algebra_structure(block_family(SPECS["(4,5)"], 5), CFG)
        assert len(calls) == 2 and st.blocks == [(4, 5)]

    def test_link_near_its_cut_fails_certificate_a(self):
        # two clusters of h1, of size 2; h2 links them by c * 1_2
        v, starts = np.eye(4, dtype=complex), np.array([0, 2])
        cut = CFG.eq_bound(float(np.linalg.norm(np.diag([1.0, 2.0, 3.0, 4.0]))))

        def frames(c):
            h2 = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
            h2[0, 2] = h2[2, 0] = h2[1, 3] = h2[3, 1] = c
            found = algebra._aligned_frames(v, starts, h2, CFG)
            return None if found is None else sorted(f.shape[1:] for f in found)

        assert frames(cut / 20) == [(1, 2), (1, 2)]
        assert frames(cut / 5) is None
        assert frames(cut * 5) is None
        assert frames(cut * 20) == [(2, 2)]

    def test_ambiguous_cut_has_no_answer(self, monkeypatch):
        # cut = CLUSTER_GAP * max(1, max |w|) = 1e-8; a gap of 3e-8 is within 10x of it
        assert eigen_clusters(np.array([0.0, 1e-13, 3e-8, 1.0]))[1]
        starts, ambiguous = eigen_clusters(np.array([0.0, 1e-13, 2e-7, 1.0]))
        assert starts.tolist() == [0, 2, 3] and not ambiguous
        monkeypatch.setattr(algebra, "eigen_clusters", lambda w: (np.array([0]), True))
        assert algebra_structure(block_family(SPECS["(2,3)+(3,2)"], 7), CFG) is None

    @pytest.mark.parametrize("command, label", [("fix", "fixed-space"), ("commutant", "commutant")])
    def test_text_builds_no_basis(self, tmp_path, capsys, monkeypatch, no_dense, command, label):
        # text prints the dimension of the certified structure; only --json
        # expands the basis of A', Hermitian for fix
        path = tmp_path / "blocks.json"
        io.write_channel(path, block_family(SPECS["(2,3)+(3,2)"], 7))
        built = []
        real = algebra.AlgebraStructure.commutant
        monkeypatch.setattr(
            algebra.AlgebraStructure, "commutant", lambda st, hermitian=False: built.append(hermitian) or real(st, hermitian)
        )
        assert cli.run([command, str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [f"{label} dimension: 13"]
        assert built == []
        assert cli.run([command, str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 13
        assert built == [command == "fix"]

    @pytest.mark.parametrize("command", ["fix", "commutant", "structure"])
    def test_same_command_twice_is_byte_identical(self, tmp_path, capsys, command):
        kf = block_family(SPECS["(3,1)+(3,1)+(1,4)"], 9)
        first = _report(tmp_path, capsys, command, kf)[1]
        second = _report(tmp_path, capsys, command, kf)[1]
        assert first == second


def _reference_forest(weights):
    """Prim's loop of ``algebra._spanning_forest`` with one masked update per vertex: the reference."""
    k = len(weights)
    best, parent = np.zeros(k), np.full(k, -1)
    free = np.ones(k, dtype=bool)
    components = []
    for _ in range(k):
        cand = np.where(free, best, -1.0)
        v = int(np.argmax(cand))
        if cand[v] <= 0.0:
            v = int(np.argmax(free))
            components.append([])
        components[-1].append(v)
        free[v] = False
        better = free & (weights[v] > best)
        best[better] = weights[v][better]
        parent[better] = v
    return components, parent


class TestSpanningForest:
    """The Prim order and the parents fix the frames bit for bit: both match the reference."""

    @pytest.mark.parametrize("k", [1, 2, 20, 64, 256])
    def test_matches_the_reference(self, k):
        rng = np.random.default_rng(k)
        for trial in range(12):
            # few distinct values, so ties are common; some sparse graphs
            # split into several components, and some vertices link to none
            w = np.round(rng.random((k, k)), 1)
            w[rng.random((k, k)) < trial / 12] = 0.0
            w[rng.random(k) < 0.2] = 0.0
            if trial % 3 == 0:
                w = np.maximum(w, w.T)
            np.fill_diagonal(w, 0.0)
            components, parent = algebra._spanning_forest(w)
            want_components, want_parent = _reference_forest(w)
            assert components == want_components
            assert parent.tolist() == want_parent.tolist()
        assert algebra._spanning_forest(np.zeros((k, k)))[0] == [[v] for v in range(k)]


class TestSchurWeyl:
    """Known answers past the dense oracle's reach: no dense kernel runs at d = 64."""

    @pytest.mark.parametrize(
        "k, blocks, catalan",
        [(4, [(1, 2), (3, 3), (5, 1)], 14), (6, [(1, 5), (3, 9), (5, 5), (7, 1)], 132)],
    )
    def test_tensor_powers_give_the_catalan_number(self, k, blocks, catalan):
        kf = su2_tensor_family(k)
        assert algebra_structure(kf, CFG).blocks == blocks
        for st in (structure_commutant(kf, CFG), structure_fixed_space(kf, CFG)):
            assert st.dimension == catalan

    def test_dense_oracle_agrees_at_k4(self):
        kf = su2_tensor_family(4)
        for ns in (fixed_space_basis(kf), commutant_basis(kf.operators)):
            assert ns.dimension == 14 and not ns.rank_warning

    @pytest.mark.parametrize("k, dimension", [(4, 35), (5, 56), (6, 84), (7, 120)])
    def test_transpositions(self, k, dimension):
        assert structure_commutant(transposition_family(k), CFG).dimension == dimension

    @pytest.mark.parametrize("family", [transposition_family, su2_tensor_family])
    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_refined_frames_reach_rounding(self, family, k):
        # the k = 6 transpositions drift 2.9e-11 on h1's eigenvectors alone
        kf = family(k)
        st = algebra_structure(kf, CFG)
        refined = st.refined(kf.operators / kf.operator_norms[:, None, None])
        defects, _ = refined.compress(kf.operators / kf.operator_norms.max())
        assert refined.blocks == st.blocks
        assert 2.0 * np.linalg.norm(defects) <= 1e-12


class TestSpin:
    """The spin-j irreps: one block (d, 1), d clusters of h1 on one spanning tree."""

    @pytest.mark.parametrize("d", [17, 25, 32])
    @pytest.mark.parametrize("command", ["fix", "commutant"])
    def test_irreducible_past_the_oracle(self, tmp_path, capsys, no_dense, d, command):
        code, _, report = _report(tmp_path, capsys, command, spin_family(d))
        assert code == 0
        assert (report["dimension"], report["rankWarning"]) == (1, False)
        basis = _matrix(report["basis"][0])
        np.testing.assert_allclose(basis, np.eye(d) / np.sqrt(d), rtol=0, atol=1e-12)


def _conjugated(kf, w):
    return KrausFamily.from_operators(w @ kf.operators @ w.conj().T, kf.weights)


class TestRepresentationInvariance:
    """x_t -> W x_t W* moves A' to W A' W*, whatever basis h1's eigenvectors fall in."""

    @pytest.mark.parametrize("name", [*SPECS, "commuting d=16", "su2^4"])
    @pytest.mark.parametrize("solve", [structure_commutant, structure_fixed_space])
    def test_conjugation_moves_the_answer(self, name, solve):
        kf = su2_tensor_family(4) if name == "su2^4" else FAMILIES[name]()
        found = solve(kf, CFG)
        basis = found.commutant().basis
        rng = np.random.default_rng(13)
        for _ in range(3):
            w = haar_unitary(kf.dim, rng)
            moved = solve(_conjugated(kf, w), CFG)
            assert moved is not None and moved.dimension == found.dimension
            assert _smallest_cosine(moved.commutant().basis, [w @ b @ w.conj().T for b in basis]) >= 1.0 - 1e-10


class TestStructureCommand:
    def test_text_and_json(self, tmp_path, capsys):
        path = tmp_path / "blocks.json"
        io.write_channel(path, block_family(SPECS["(2,3)+(3,2)"], 7))
        assert cli.run(["structure", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["block 0: m = 2, n = 3", "block 1: m = 3, n = 2", "commutant dimension: 13"]
        assert cli.run(["structure", str(path), "--json"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == {"blocks": [[2, 3], [3, 2]], "dimension": 13}
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"

    def test_needs_no_hypothesis(self, tmp_path, capsys):
        # e01 alone is neither unital nor sub-unital dual; it generates M_2
        code, _, report = _report(tmp_path, capsys, "structure", KrausFamily.from_operators([E12]))
        assert code == 0 and report == {"blocks": [[2, 1]], "dimension": 1}

    def test_failed_certificate_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(algebra, "_aligned_frames", lambda *a: None)
        path = tmp_path / "blocks.json"
        io.write_channel(path, block_family(SPECS["(4,5)"], 7))
        assert cli.run(["structure", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "could not be certified" in captured.err

    def test_scalar_and_zero_members(self):
        kf = KrausFamily.from_operators([np.zeros((3, 3)), 2.0 * np.eye(3)])
        assert algebra_structure(kf, CFG).blocks == [(1, 3)]


class TestIsUnital:
    def test_agrees_with_the_report(self):
        # the report's flag is the spectral rule on the column sum, read alone
        rng = np.random.default_rng(4)
        families = [random_unital_family(4, 3, rng) for _ in range(3)]
        families += [KrausFamily.from_operators([random_complex(4, rng)]) for _ in range(3)]
        eye = np.eye(3, dtype=complex)
        families += [KrausFamily.from_operators([eye * (1 + t)]) for t in (0.0, 4e-10, 6e-10, 1e-3)]
        verdicts = []
        for kf in families:
            col = kf.column_sum
            rule = opnorm(col - np.eye(kf.dim)) <= CFG.eq_bound(opnorm(col))
            verdicts.append(normalization_report(kf, CFG).is_unital)
            assert verdicts[-1] == rule and "row_sum" not in vars(kf)
        assert verdicts == [True] * 3 + [False] * 3 + [True, True, False, False]
