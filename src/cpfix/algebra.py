"""Commutants and block von Neumann algebras with weighted traces.

In finite dimensions every von Neumann algebra is, up to unitary
conjugation, a direct sum of full matrix blocks; :class:`BlockAlgebra`
fixes that basis so membership checks stay linear.  The weighted block
trace is the finite model of a separating family of normal semi-finite
traces: every element is finite here, but the trace computations are
still performed with genuine weights rather than assumed away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .matcore import (
    AMBIGUITY,
    DEFAULT_TOL,
    NULL_TOL,
    NullspaceResult,
    ToleranceConfig,
    as_cmatrix,
    eigen_clusters,
    herm_part,
    near_cut,
    nullspace_basis,
    opnorm,
)
from .channel import KrausFamily

__all__ = [
    "MembershipError",
    "BlockAlgebra",
    "AlgebraStructure",
    "algebra_structure",
    "structure_commutant",
    "structure_fixed_space",
    "commutant_basis",
    "trace_tau",
    "invariance_check",
]


class MembershipError(ValueError):
    """An operator is not (numerically) an element of the block algebra."""


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of full matrix blocks with positive trace weights."""

    block_dims: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "block_dims", tuple(int(d) for d in self.block_dims))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.block_dims:
            raise ValueError("need at least one block")
        if any(d < 1 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")
        if len(self.weights) != len(self.block_dims):
            raise ValueError("one trace weight per block required")
        if any(not 0.0 < w < np.inf for w in self.weights):
            raise ValueError("trace weights must be finite and strictly positive")

    @classmethod
    def full(cls, dim: int, weight: float = 1.0) -> "BlockAlgebra":
        """The whole matrix algebra with a single (weighted) trace."""
        return cls(block_dims=(dim,), weights=(weight,))

    @property
    def dim(self) -> int:
        return sum(self.block_dims)

    @cached_property
    def slices(self) -> list[slice]:
        out, start = [], 0
        for d in self.block_dims:
            out.append(slice(start, start + d))
            start += d
        return out

    @cached_property
    def block_mask(self) -> np.ndarray:
        mask = np.zeros((self.dim, self.dim), dtype=bool)
        for s in self.slices:
            mask[s, s] = True
        return mask

    def off_block_mass(self, a: np.ndarray) -> float | np.ndarray:
        """Spectral norm of the off-block part of a matrix, or of each matrix of a stack.

        A (k, d, d) stack gives an array of k norms.  ``trace_tau`` prints it
        when membership fails; :meth:`contains` decides without it.
        """
        return opnorm(np.where(self.block_mask, 0.0, a))

    def contains(self, a: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Whether ``a``, or every matrix m of a (k, d, d) stack, is in the algebra.

        The one membership rule: off-block norm of m <= ``cfg.eq_bound(||m||)``,
        decided by ``cfg.norm_within``.  A matrix whose off-block part is
        exactly zero passes without a norm.
        """
        stack = np.asarray(a)
        stack = stack.reshape(-1, *stack.shape[-2:])
        off = np.where(self.block_mask, 0.0, stack)
        leaks = off.any(axis=(-2, -1))
        return not leaks.any() or bool(cfg.norm_within(off[leaks], stack[leaks]).all())

    def trace(self, a: np.ndarray) -> float:
        """sum_i w_i Re Tr(a_i) over the diagonal blocks, with no membership test."""
        total = 0.0
        for s, w in zip(self.slices, self.weights):
            total += w * np.trace(a[s, s]).real
        return float(total)


def commutant_basis(family) -> NullspaceResult:
    """Orthonormal basis of {a : a x = x a for every x in the family}.

    ``family`` is a (k, d, d) stack, such as ``kf.operators``, or a sequence
    of d x d matrices.  Solves the stacked linear system (x a - a x)_x = 0
    on vectorized matrices (``_sylvester``), with rank cut relative to at
    least max ||x||.
    """
    xs = np.asarray(family, dtype=np.complex128)
    if xs.ndim != 3 or not len(xs) or xs.shape[1] != xs.shape[2] or not np.isfinite(xs).all():
        raise ValueError("the commutant needs at least one family member; all finite, square, of one shape")
    return nullspace_basis(_sylvester(xs, xs), xs.shape[-1], float(opnorm(xs).max()))


def _sylvester(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The matrix of b -> (x_t b - b y_t)_t on column-stacked vectorizations.

    ``x`` is (k, p, p), ``y`` (k, q, q) and b (p, q); the result is
    (k p q, p q), and block t is kron(I_q, x_t) - kron(y_t^T, I_p), written
    entry by entry: as a (q, p, q, p) array indexed [j, i, s, r] it is
    x_t[i, r] on j = s minus y_t[s, j] on i = r.
    """
    (k, p, _), q = x.shape, y.shape[-1]
    out = np.zeros((k, q, p, q, p), dtype=np.complex128)
    out[:, np.arange(q), :, np.arange(q), :] = x
    out[:, :, np.arange(p), :, np.arange(p)] -= y.transpose(0, 2, 1)
    return out.reshape(k * q * p, q * p)


def trace_tau(
    alg: BlockAlgebra, a, cfg: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Weighted block trace sum_i w_i Tr(a_i).

    Rejects operators that :meth:`BlockAlgebra.contains` rejects.  The value
    is real for self-adjoint arguments; the real part is returned.
    """
    a = as_cmatrix(a)
    if a.shape != (alg.dim, alg.dim):
        raise ValueError(f"operator of shape {a.shape} fed to a dim-{alg.dim} algebra")
    if not alg.contains(a, cfg):
        raise MembershipError(
            f"off-block mass {alg.off_block_mass(a):.3e} exceeds tolerance; "
            "operator is not in the algebra"
        )
    return alg.trace(a)


def invariance_check(
    kf: KrausFamily, alg: BlockAlgebra, cfg: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Whether the map sends the block algebra into itself.

    Each block matrix unit e_ij passes :meth:`BlockAlgebra.contains`.  A
    one-block algebra passes at once.  No map is applied: Phi(e_ij) =
    sum_t conj(s_t[i])^T s_t[j] from rows of the scaled operators, for all j of
    a k-block at once (k * d^2 entries per batch).
    """
    if alg.dim != kf.dim:
        raise ValueError("algebra and family dimensions differ")
    if len(alg.block_dims) == 1:
        return True
    ops = kf.scaled_operators
    for s in alg.slices:
        for i in range(s.start, s.stop):
            images = np.einsum("tp,tjq->jpq", ops[:, i, :].conj(), ops[:, s, :])
            if not alg.contains(images, cfg):
                return False
    return True


# The structure path draws its random elements of A from this fixed seed, so
# its output is byte-stable; it is not a knob.
_STRUCTURE_SEED = 2003
# The largest Gram matrix ``_separated`` builds for one ordered pair of
# blocks, 16 (m_i m_j)^2 bytes whatever the number of letters; a larger one
# makes it decline, so an irreducible block with m <= 32 stays on the path.
# Pairs of one shape are batched up to this size.
_SEPARATION_BYTES = 16 * 2**20


@dataclass(frozen=True, eq=False)
class AlgebraStructure:
    """The unital *-algebra A a family generates, as A = (+)_i M_{m_i} (x) 1_{n_i}.

    ``frames[i]`` is a (d, m_i, n_i) array; flattened to d x m_i n_i, the
    frames are the columns of a unitary Q with Q* x_t Q = (+)_i X_i (x)
    1_{n_i} for every x_t.  The commutant A' = (+)_i 1_{m_i} (x) M_{n_i} is
    then spanned by the matrix units sum_a f[:, a, p] f[:, a, q]* / sqrt(m_i),
    f = ``frames[i]``.
    """

    frames: tuple[np.ndarray, ...]

    @property
    def blocks(self) -> list[tuple[int, int]]:
        """(m_i, n_i) of every block."""
        return [f.shape[1:] for f in self.frames]

    @property
    def dimension(self) -> int:
        """dim A' = sum n_i^2."""
        return sum(n * n for _, n in self.blocks)

    def commutant(self, hermitian: bool = False) -> NullspaceResult:
        """HS-orthonormal basis of A', block by block.

        The matrix units e_pq of each 1 (x) M_{n_i}, row by row; with
        ``hermitian``, the exactly Hermitian e_pp, (e_pq + e_qp)/sqrt(2) for
        p < q and i(e_pq - e_qp)/sqrt(2) for p > q, which span the same
        space.  Each block's units come from one product of its frame with
        itself.
        """
        basis = []
        for f in self.frames:
            d, m, n = f.shape
            g = f.transpose(0, 2, 1).reshape(d * n, m)
            units = (g @ g.conj().T).reshape(d, n, d, n).transpose(1, 3, 0, 2)
            coef = np.ones((n, n), dtype=np.complex128)
            if hermitian:
                # e_qp = e_pq*, so (e_pq + e_qp)/sqrt(2) = herm_part(sqrt(2) e_pq)
                # and i(e_pq - e_qp)/sqrt(2) = herm_part(i sqrt(2) e_pq)
                coef = math.sqrt(2.0) * np.where(np.tri(n, k=-1, dtype=bool), 1j, 1.0)
                np.fill_diagonal(coef, 1.0)
            out = np.empty((n, n, d, d), dtype=np.complex128)
            units = np.multiply(units, coef[:, :, None, None] / math.sqrt(m), out=out)
            if hermitian:
                units = herm_part(units)
            basis.extend(units.reshape(n * n, d, d))
        return NullspaceResult(basis=basis, rank_warning=False, singular_values=np.zeros(0))

    def _unitary(self) -> np.ndarray:
        """Q: the flattened frames side by side, d x d."""
        return np.concatenate([f.reshape(len(f), -1) for f in self.frames], axis=1)

    def _split(self, letters: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """(E, blocks): each Q* z_t Q as (+)_i X_{t,i} (x) 1_{n_i} + E_t, X_{t,i} stacked per block."""
        q = self._unitary()
        rest = q.conj().T @ letters @ q
        blocks, start = [], 0
        for f in self.frames:
            m, n = f.shape[1:]
            s = slice(start, start + m * n)
            x_i = np.einsum("tapbp->tab", rest[:, s, s].reshape(-1, m, n, m, n)) / n
            rest[:, s, s] -= np.einsum("tab,pq->tapbq", x_i, np.eye(n)).reshape(-1, m * n, m * n)
            blocks.append(x_i)
            start += m * n
        return rest, blocks

    def compress(self, letters: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Each z_t of the (k, d, d) stack ``letters`` in block form: (defects, blocks).

        ``blocks[i]`` stacks the X_{t,i}, the partial trace over 1_{n_i} of
        the i-th diagonal block of Q* z_t Q, divided by n_i, and
        ``defects[t]`` is ||Q* z_t Q - (+)_i X_{t,i} (x) 1_{n_i}||_F.  A
        defect is 0 exactly when z_t lies in (+)_i M_{m_i} (x) 1_{n_i}, that
        is, when every matrix unit of the frames commutes with z_t and z_t*.
        Both are linear in each letter, so c_t z_t compresses to |c_t| times
        the defect and c_t times the blocks.
        """
        rest, blocks = self._split(letters)
        return np.sqrt(np.sum(np.abs(rest) ** 2, axis=(1, 2))), blocks

    def refined(self, letters: np.ndarray) -> AlgebraStructure | None:
        """The frames after one Newton step toward block form of the letters, or None.

        The step of Stewart (SIAM Rev. 15 (1973)) for invariant subspaces.
        For blocks i < j, P solves X_{t,i} P - P X_{t,j} = -E_{t,ij} in the
        least-squares sense over the letters z_t and their adjoints, one
        n_i x n_j slot of the off-diagonal defect E (``_split``) at a time,
        by the normal equations of ``_gram``.  The new frames are the polar
        factor of Q (1 + S), S_ij = P and S_ji = -P*.  To first order in S
        that rotation cancels E: an off-diagonal defect eta against a
        pair separation sigma leaves O(eta^2 / sigma) and rounding.  The
        defect inside each block is not touched.  None where ``_separated``
        declines anyway, a Gram over ``_SEPARATION_BYTES``, and for a
        singular pair.
        """
        shapes = self.blocks
        if 16 * max(m for m, _ in shapes) ** 4 > _SEPARATION_BYTES:
            return None
        rest, blocks = self._split(letters)
        # each block's letters and their adjoints, as a one-block stack
        sides = [_terms(np.concatenate([x, x.conj().swapaxes(-1, -2)])[None]) for x in blocks]
        bounds = np.cumsum([0] + [m * n for m, n in shapes])
        d = bounds[-1]
        step = np.zeros((d, d), dtype=np.complex128)
        for i, j in zip(*np.triu_indices(len(shapes), 1)):
            (mi, ni), (mj, nj) = shapes[i], shapes[j]
            si, sj = slice(bounds[i], bounds[i + 1]), slice(bounds[j], bounds[j + 1])
            x, y = sides[i].x[0], sides[j].x[0]
            # the (i, j) block of E for z_t* is E_{t,ji}*
            e = np.concatenate([rest[:, si, sj], rest[:, sj, si].conj().swapaxes(-1, -2)])
            e = e.reshape(-1, mi, ni, mj, nj)
            # K* vec(E) = vec(sum_t x_t* E_t - E_t y_t*) slot by slot, as [p, q, c, a]:
            # vec(P)[c mi + a] = P[a, c], ``_sylvester``'s column stacking
            rhs = np.einsum("tba,tbpcq->pqca", x.conj(), e) - np.einsum("tapeq,tce->pqca", e, y.conj())
            try:
                p = np.linalg.solve(_gram(sides[i], sides[j])[0, 0], -rhs.reshape(ni * nj, -1).T)
            except np.linalg.LinAlgError:
                return None
            p = p.reshape(mj, mi, ni, nj).transpose(1, 2, 0, 3).reshape(mi * ni, mj * nj)
            step[si, sj] = p
            step[sj, si] = -p.conj().T
        if not np.isfinite(step).all():
            return None
        u, _, vh = np.linalg.svd(np.eye(d) + step)
        q = self._unitary() @ (u @ vh)
        frames = (q[:, lo:hi].reshape(d, m, n) for lo, hi, (m, n) in zip(bounds, bounds[1:], shapes))
        return AlgebraStructure(tuple(frames))


def _word_sum(letters: np.ndarray, depth: int, rng: np.random.Generator) -> np.ndarray:
    """A random complex combination of every word of length 1..depth in the letters.

    Horner form: sum_t c_t z_t + sum_t z_t W_t with independent draws W_t of
    depth - 1.  With k letters, depth 2 costs k products and depth 3 costs
    k(k + 1), so the redraw's 2n letters cost O(n^2 d^3).
    """
    coef = rng.standard_normal((len(letters), 2)) @ np.array([1.0, 1.0j])
    out = np.dot(coef[None], letters.reshape(len(letters), -1)).reshape(letters.shape[1:])
    if depth > 1:
        for z in letters:
            out += z @ _word_sum(letters, depth - 1, rng)
    return out


def _spanning_forest(weights: np.ndarray) -> tuple[list[list[int]], np.ndarray]:
    """Components of the graph with edge weights ``weights`` > 0, each in Prim order.

    Every vertex after the first of its component hangs on ``parent``, the
    vertex already placed that it links to most strongly, so the tree is a
    maximum spanning tree and each polar factor is taken of the strongest
    link available.  ``best`` holds each free vertex's strongest link to the
    placed ones and -1 for a placed vertex, whose column of the weights is
    -1 too; a component ends when no free vertex links to it, and the next
    starts at the first free vertex.
    """
    k = len(weights)
    links = weights.copy()
    best, parent = np.zeros(k), np.full(k, -1)
    components: list[list[int]] = []
    for _ in range(k):
        v = int(best.argmax())
        if best[v] <= 0.0:
            components.append([])
        components[-1].append(v)
        best[v] = links[:, v] = -1.0
        row = links[v]
        parent[row > best] = v
        np.fmax(best, row, out=best)
    return components, parent


def _aligned_frames(v, starts, h2, cfg: ToleranceConfig):
    """Frames of A's blocks from h1's clusters and one pass of h2, or None.

    Clusters k and l of h1 link when the block E_k* h2 E_l of V* h2 V is
    above the cut ``cfg.eq_bound(||h2||_F)``; linked clusters lie in one
    block of A.  Bases travel along a maximum spanning tree of the links by
    polar factors.  Certificate (a): each block has clusters of one size,
    and every link has equal singular values.  Then every matrix commuting
    with h1 and h2 lies in the span of the frames' matrix units.  A link
    norm :func:`near_cut` the cut, or a spread of singular values above the
    cut over ``AMBIGUITY``, fails the certificate.  The clusters of one size
    are handled together, whatever their component: one SVD for the spreads
    of all their links, and one for the polar factors of their tree links.
    """
    d = len(v)
    bounds = np.append(starts, d)
    sizes = np.diff(bounds)
    b = herm_part(v.conj().T @ h2 @ v)
    norms = np.sqrt(np.add.reduceat(np.add.reduceat(np.abs(b) ** 2, starts, axis=0), starts, axis=1))
    np.fill_diagonal(norms, 0.0)
    bound = cfg.eq_bound(float(np.linalg.norm(h2)))
    if near_cut(norms, bound):
        return None
    weights = np.where(norms > bound, norms, 0.0)
    components, parent = _spanning_forest(weights)
    # a component has clusters of one size when every tree link does
    hang = np.flatnonzero(parent >= 0)
    if np.any(sizes[hang] != sizes[parent[hang]]):
        return None
    frames = {}
    for n in set(sizes.tolist()):
        comps = [comp for comp in components if sizes[comp[0]] == n]
        ks = np.concatenate(comps)
        position = np.empty(len(sizes), dtype=int)
        position[ks] = np.arange(len(ks))
        cols = bounds[ks][:, None] + np.arange(n)
        # links[a, c] = E_a* h2 E_c for the a-th and c-th clusters of size n
        links = b[cols[:, None, :, None], cols[None, :, None, :]]
        # a 1 x 1 link has one singular value: no spread to check
        a, c = np.nonzero(np.triu(weights[np.ix_(ks, ks)], 1)) if n > 1 else ((), ())
        if len(a):
            s = np.linalg.svd(links[a, c], compute_uv=False)
            if np.max(s[:, 0] - s[:, -1]) > bound / AMBIGUITY:
                return None
        rotation = np.empty((len(ks), n, n), dtype=np.complex128)
        rotation[:] = np.eye(n)
        # every cluster after the first of its component, in Prim order
        child = [position[k] for comp in comps for k in comp[1:]]
        if child:
            up = position[parent[ks[child]]]
            u, _, vh = np.linalg.svd(links[up, child])
            # a child's rotation is its polar factor* times its parent's, so
            # the clusters at one depth of the forest take one product
            depth = [0] * len(ks)
            for i, j in zip(child, up.tolist()):
                depth[i] = depth[j] + 1
            level = np.array(depth)[child]
            order = np.argsort(level, kind="stable")
            child, up = np.array(child)[order], up[order]
            polar = (u @ vh)[order].conj().swapaxes(-1, -2)
            ends = np.cumsum(np.bincount(level)).tolist()
            for lo, hi in zip(ends, ends[1:]):
                rotation[child[lo:hi]] = polar[lo:hi] @ rotation[up[lo:hi]]
        aligned = (v[:, cols].transpose(1, 0, 2) @ rotation).transpose(1, 0, 2)
        start = 0
        for comp in comps:
            frames[comp[0]] = aligned[:, start : start + len(comp)]
            start += len(comp)
    return [frames[comp[0]] for comp in components]


def _unit_letters(kf: KrausFamily) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero members scaled to norm 1, and their mask; the identity if every member is zero."""
    live = kf.operator_norms > 0.0
    xs = kf.operators[live] / kf.operator_norms[live, None, None]
    if not len(xs):  # only zero members: A is the scalars
        xs = np.eye(kf.dim, dtype=np.complex128)[None]
    return xs, live


def _certified(xs: np.ndarray, cfg: ToleranceConfig):
    """(structure, ``compress`` of the letters xs) for ``algebra_structure``, or None."""
    rng = np.random.default_rng(_STRUCTURE_SEED)
    for letters, depth in ((xs, 2), (np.concatenate([xs, xs.conj().transpose(0, 2, 1)]), 3)):
        h1, h2 = (w + w.conj().T for w in (_word_sum(letters, depth, rng) for _ in range(2)))
        w, v = np.linalg.eigh(h1)
        starts, ambiguous = eigen_clusters(w)
        if ambiguous:
            return None
        frames = _aligned_frames(v, starts, h2, cfg)
        if frames is None:
            continue
        frames.sort(key=lambda f: f.shape[1:])
        st = AlgebraStructure(tuple(frames))
        compressed = st.compress(xs)
        if compressed[0].max() <= cfg.eq_bound(1.0) / AMBIGUITY:
            return st, compressed
    return None


def algebra_structure(
    kf: KrausFamily, cfg: ToleranceConfig = DEFAULT_TOL
) -> AlgebraStructure | None:
    """Certified block structure of the unital *-algebra A the family generates, or None.

    No d^2 x d^2 object; O(n d^3) work for the first draw.  The members x_t
    are scaled to norm 1 (zero members generate nothing).  Two random
    Hermitian elements h = w + w* of A are drawn from a fixed-seed
    generator, w a combination of the words x_t and x_s x_t.  h1's
    eigenvalue clusters (``matcore.eigen_clusters``) split each block of A
    into m_i spaces of dimension n_i, and h2 links the clusters of one
    block (``_aligned_frames``; its certificate (a) shows that the result
    contains A').  Certificate (b), every defect of
    ``AlgebraStructure.compress`` at most ``cfg.eq_bound(1)`` /
    ``AMBIGUITY``, shows that the result lies in A'.  When either
    certificate fails, the draw is repeated once with the words of length
    up to 3 in the x_t and x_t*.  An ambiguous cluster cut, or a second
    failure, gives None.

    Under the theorem's hypotheses (unital, sub-unital dual) A' is both the
    family's commutant and the fixed space of Phi; ``structure_commutant``
    and ``structure_fixed_space`` answer for the dense kernels from it.
    The frames are accurate to about u ||h1|| / gap, u the unit roundoff
    and gap h1's least gap between clusters; where that fails their drift
    gate, they refine the frames once (``AlgebraStructure.refined``), to a
    drift of order u on every family measured.
    """
    found = _certified(_unit_letters(kf)[0], cfg)
    return None if found is None else found[0]


def _kernel_structures(kf: KrausFamily, cfg: ToleranceConfig, coef: np.ndarray):
    """The structure and its compressed letters coef_t x_t / ||x_t||, as certified, then refined.

    Yields (structure, defects, blocks): first from ``algebra_structure``'s
    own ``compress`` of the unit letters, rescaled per letter; then, if the
    caller asks for more, once more after one ``AlgebraStructure.refined``
    step.  The frames of h1's eigenvectors are accurate only to rounding
    over h1's least gap, so a drift gate can fail on a family the path
    answers; the refined frames reach rounding, about 1e-14 (n_i = 1) to
    5e-13 (the transpositions of 8 qubits) in drift.  Zero members give no
    letter.
    """
    xs, live = _unit_letters(kf)
    found = _certified(xs, cfg)
    if found is None:
        return
    st, (defects, blocks) = found
    # the identity that stands in for a family of zero members is no letter
    c = coef[live] if live.any() else np.zeros(1)
    yield st, np.abs(c) * defects, [c[:, None, None] * x for x in blocks]
    st = st.refined(xs)
    if st is not None:
        defects, blocks = st.compress(xs)
        yield st, np.abs(c) * defects, [c[:, None, None] * x for x in blocks]


class _Terms(NamedTuple):
    """A stack of blocks of one shape, (a, k, p, p), with what ``_gram`` reads of it, formed once."""

    x: np.ndarray
    # [x[a, t, s, j], conj(x[a, t, j, s])] as [(a, j, s), t]: the y side of C + C*
    rows: np.ndarray
    # -[conj(x[a, t, r, i]), x[a, t, i, r]] as [t, (a, i, r)]: its x side
    cols: np.ndarray
    # sum_t x_t* x_t and sum_t conj(x_t) x_t^T
    col_sum: np.ndarray
    row_sum: np.ndarray
    # ``_abs_norm`` of each block
    r: np.ndarray


def _terms(x: np.ndarray) -> _Terms:
    k = x.shape[1]
    return _Terms(
        x,
        np.concatenate([x.transpose(0, 3, 2, 1), x.conj().transpose(0, 2, 3, 1)], axis=-1).reshape(-1, 2 * k),
        -np.concatenate([x.conj().transpose(1, 0, 3, 2), x.transpose(1, 0, 2, 3)]).reshape(2 * k, -1),
        np.sum(x.conj().swapaxes(-1, -2) @ x, axis=1),
        np.sum(x.conj() @ x.swapaxes(-1, -2), axis=1),
        _abs_norm(x),
    )


def _gram(x: _Terms, y: _Terms) -> np.ndarray:
    """The Gram matrix K*K of the ``_sylvester`` system of every pair of an x and a y block.

    ``x.x`` is (a, k, p, p) and ``y.x`` (b, k, q, q); the result is (a, b,
    q p, q p).  With K_t = kron(I_q, x_t) - kron(y_t^T, I_p),
    sum_t K_t* K_t = kron(I_q, sum x_t* x_t) + kron(sum conj(y_t) y_t^T, I_p)
    - C - C* with C = sum_t kron(y_t^T, x_t*): O(k (p q)^2) per pair, from
    one product of the two flattened stacks (``_terms``), which gives
    -(C + C*) at once, and no k-times-taller system.
    """
    a, p = len(x.x), x.x.shape[-1]
    b, q = len(y.x), y.x.shape[-1]
    # g[b, j, s, a, i, r] = -sum_t (y_t[s, j] conj(x_t[r, i]) + conj(y_t[j, s]) x_t[i, r]),
    # the entry ((j, i), (s, r)) of -(C + C*); the two Kronecker terms sit on
    # the diagonals j = s and i = r, which are strided views of it
    g = y.rows @ x.cols
    g.reshape(b, q * q, a * p * p)[:, :: q + 1] += x.col_sum.reshape(-1)
    g.reshape(b * q * q, a, p * p)[..., :: p + 1] += y.row_sum.reshape(-1, 1, 1)
    return g.reshape(b, q, q, a, p, p).transpose(3, 0, 1, 4, 2, 5).reshape(a, b, q * p, q * p)


def _abs_norm(x: np.ndarray) -> np.ndarray:
    """sqrt(||x||_1 ||x||_inf) over the last two axes, a bound of || |x| ||_2."""
    m = np.abs(x)
    return np.sqrt(m.sum(axis=-2).max(axis=-1) * m.sum(axis=-1).max(axis=-1))


def _shifted_cholesky(x: _Terms, y: _Terms, diagonal: int | None, theta: float) -> bool:
    """Whether every pair's Gram G of ``_gram(x, y)`` is proved >= theta^2 off its kernel.

    ``diagonal`` is None when the x and y blocks differ in shape; otherwise
    x[i] is y[i + diagonal], and for those pairs e = vec(1)/sqrt(p), the
    exact kernel vector of G, is lifted by (tr G + theta^2 + 1) e e*, which
    leaves the rest of the spectrum alone.  Then one batched Cholesky
    factorization of G - (theta^2 + c) 1 decides.  The shift c = 2 gamma_N s,
    gamma_N = N u / (1 - N u) with N = p q + (p + q + 4) k and u the unit
    roundoff, covers the rounding of the closed-form Gram (Higham's gamma
    bound against || sum_t |K_t|^T |K_t| ||, at most sum_t (r(x_t) +
    r(y_t))^2 with r of ``_abs_norm``), of the lift and the shift, and of
    the factorization (Rump's verified Cholesky test, against the trace);
    s is the sum of those scales and theta^2.  A factorization that runs
    to the end with a finite diagonal proves the claim: every entry of a
    row of the factor enters that row's diagonal entry.
    """
    k, p, q = x.x.shape[1], x.x.shape[-1], y.x.shape[-1]
    n = p * q
    g = _gram(x, y)
    diagonal_entries = g.reshape(*g.shape[:2], n * n)[..., :: n + 1]
    trace = diagonal_entries.sum(axis=-1).real
    lift = np.zeros_like(trace)
    if diagonal is not None:
        i = np.arange(len(x.x))
        j = i + diagonal
        lift[i, j] = trace[i, j] + theta**2 + 1.0
        e = np.arange(p) * (p + 1)
        g[i[:, None, None], j[:, None, None], e[:, None], e] += (lift[i, j] / p)[:, None, None]
    norms = x.r[:, None] + y.r[None]
    scale = np.sum(norms**2, axis=-1) + trace + lift + theta**2
    nu = (n + (p + q + 4) * k) * np.finfo(float).eps / 2.0
    gamma = nu / (1.0 - nu)
    diagonal_entries -= (theta**2 + 2.0 * gamma * scale)[..., None]
    try:
        # a NaN passes through LAPACK's factorization without a breakdown
        return bool(np.isfinite(np.linalg.cholesky(g).diagonal(axis1=-2, axis2=-1)).all())
    except np.linalg.LinAlgError:
        return False


def _separated(blocks: list[np.ndarray], theta: float) -> bool:
    """Whether sqrt(sum_t ||z_t a - a z_t||_F^2) >= theta for every a orthogonal to A', ||a||_F = 1.

    For z_t = (+)_i X_{t,i} (x) 1_{n_i}, with ``blocks[i]`` the stack of the
    X_{t,i}.  On the (i, j) block of a the map is K_ij (x) 1, where K_ij
    takes an m_i x m_j matrix b to (X_{t,i} b - b X_{t,j})_t, and the part
    of A' there is 0 for i != j and 1 (x) M_{n_i} for i = j.  So the claim
    is that the least singular value of every K_ij, off the identity when
    i = j, is at least theta: a positive-definiteness test of its Gram,
    which ``_shifted_cholesky`` makes for all pairs of one shape at once,
    in batches of at most ``_SEPARATION_BYTES``; each shape's ``_terms``
    are formed once.  False is a decline, and the dense kernel answers: a
    pair whose Gram is above the cap (an irreducible family at d > 32), or
    a factorization that breaks down.  The exact least singular value
    sigma decides every case but a sigma in the rounding band theta <=
    sigma < sqrt(theta^2 + c) of that shift, which declines.
    """
    if 16 * max(x.shape[-1] for x in blocks) ** 4 > _SEPARATION_BYTES:
        return False
    shapes: dict[int, list[np.ndarray]] = {}
    for x in blocks:
        shapes.setdefault(x.shape[-1], []).append(x)
    stacks = {p: _terms(np.stack(xs)) for p, xs in shapes.items()}
    for p, xs in stacks.items():
        for q, ys in stacks.items():
            rows = max(1, _SEPARATION_BYTES // (16 * (p * q) ** 2 * len(ys.x)))
            for start in range(0, len(xs.x), rows):
                part = xs if rows >= len(xs.x) else _terms(xs.x[start : start + rows])
                if not _shifted_cholesky(part, ys, start if p == q else None, theta):
                    return False
    return True


def _kernel_certificate(
    kf: KrausFamily, cfg: ToleranceConfig, coef: np.ndarray, bound, theta: float
) -> AlgebraStructure | None:
    """The first structure of ``_kernel_structures(kf, cfg, coef)`` that passes the drift gate, if separated; else None.

    The gate is ``bound(defects)`` <= NULL_TOL / ``AMBIGUITY``, the bound on
    the kernel side; the structure that passes it answers when
    ``_separated`` proves sigma >= theta + 2 ||delta|| on its frames.
    """
    for st, defects, blocks in _kernel_structures(kf, cfg, coef):
        if bound(defects) <= NULL_TOL / AMBIGUITY:
            break
    else:
        return None
    if _separated(blocks, theta + 2.0 * float(np.linalg.norm(defects))):
        return st
    return None


def structure_commutant(
    kf: KrausFamily, cfg: ToleranceConfig = DEFAULT_TOL
) -> AlgebraStructure | None:
    """The structure whose A' is the answer of ``commutant_basis(kf.operators)``, or None.

    ``commutant_basis`` cuts the singular values of K: a -> (x_t a - a x_t)_t
    at tau = NULL_TOL * max(s_max, S), S = max ||x_t||, and s_max <= 2 S r
    with r^2 = sum ||x_t / S||^2.  With the letters z_t = x_t / S and their
    defects delta (``AlgebraStructure.compress``), a unit a in A' has ||K a||
    <= 2 S ||delta||, and a unit a orthogonal to A' has ||K a|| >= S (sigma -
    2 ||delta||), sigma the separation of ``_separated``: in the aligned
    basis z_t is (+)_i X_{t,i} (x) 1 plus a part of Frobenius norm delta_t,
    which moves each commutator by at most 2 delta_t.  The path answers when
    the first is at most tau / ``AMBIGUITY`` and the second at least
    ``AMBIGUITY`` tau, that is, when the drift 2 ||delta|| is at most
    NULL_TOL / ``AMBIGUITY``, on the drawn frames or else on the refined
    ones (``_kernel_structures``), and ``_separated`` proves sigma >= theta
    = ``AMBIGUITY`` NULL_TOL max(1, 2 r) + 2 ||delta|| on the same frames.
    Then K has exactly dim A' singular values below the cut and none within
    that factor of it: the dense kernel is A' to rounding, with the same
    dimension and rank_warning False.  No basis is built here: the caller
    asks the structure for its ``dimension`` or its ``commutant()``.  A
    family whose commutant is larger than A' (x = e01: {x}' is span{1, x},
    while A' is C 1) fails here, whatever the weights.
    """
    norms = kf.operator_norms
    scale = float(norms.max()) or 1.0
    s_max = 2.0 * math.sqrt(float(np.sum((norms / scale) ** 2)))
    theta = AMBIGUITY * NULL_TOL * max(1.0, s_max)
    return _kernel_certificate(
        kf, cfg, norms / scale, lambda defects: 2.0 * float(np.linalg.norm(defects)), theta
    )


def structure_fixed_space(
    kf: KrausFamily, cfg: ToleranceConfig = DEFAULT_TOL
) -> AlgebraStructure | None:
    """The structure whose A' is the answer of ``fixed_space_basis(kf)``, or None.

    The dense kernel cuts the singular values of Phi - id on Hermitian
    matrices at tau = NULL_TOL * max(s_max, 1), and s_max <= 1 + sqrt(||col||
    ||row||) for col = sum mu x*x and row = sum mu x x*.  Let e_c >= ||col -
    1|| and e_r >= ||row - 1|| be the Frobenius norms of those deviations,
    s_t = sqrt(mu_t) x_t, S = max ||s_t||, and delta and sigma as in
    ``structure_commutant`` for the letters s_t / S.
    For Hermitian a with ||a||_F = 1:

    - on A', Phi(a) - a = sum mu x*[a, x] + (col - 1) a, so ||Phi(a) - a||
      <= 2 S^2 sum delta + e_c;
    - on its complement, 2 Tr(a (a - Phi(a))) = sum mu ||[x, a]||_F^2 -
      Tr(a^2 (col - 1)) - Tr(a^2 (row - 1)), so with g = sigma - 2
      ||delta|| > 0, ||Phi(a) - a|| >= (S^2 g^2 - e_c - e_r) / 2.

    The theorem's hypotheses are what make e_c and e_r small.  The path
    answers under the rule of ``structure_commutant``: the first bound at
    most NULL_TOL / ``AMBIGUITY``, on the drawn or the refined frames, and
    the second at least ``AMBIGUITY`` tau exactly when sigma >= theta =
    sqrt((2 ``AMBIGUITY`` tau + e_c + e_r) / S^2) + 2 ||delta||, which
    ``_separated`` decides.  Neither e_c nor e_r is printed, so no SVD
    reads them: a larger e_c or e_r only makes both tests stricter, and the
    Frobenius norm bounds the spectral one.  e_c is read first, from the
    cached column sum, so a family that is not unital to within NULL_TOL /
    ``AMBIGUITY`` costs one norm.
    """
    eye = np.eye(kf.dim)
    e_c = float(np.linalg.norm(kf.column_sum - eye))
    if e_c > NULL_TOL / AMBIGUITY:
        return None
    e_r = float(np.linalg.norm(kf.row_sum - eye))
    norms = kf.operator_norms * np.sqrt(kf.weights)
    scale = float(np.max(norms))
    tau = NULL_TOL * (1.0 + math.sqrt((1.0 + e_c) * (1.0 + e_r)))
    theta = math.sqrt((2.0 * AMBIGUITY * tau + e_c + e_r) / scale**2)
    return _kernel_certificate(
        kf, cfg, norms / scale, lambda defects: 2.0 * scale**2 * float(np.sum(defects)) + e_c, theta
    )
