"""The line-search trial pass of ``solve`` at p != 2, which imports it.

A lattice element g (signs s, sources pi: g e_pi(i) = s_i e_i) keeps the
interior, so a class field's forward stack at g x has squared norm F_A(x) =
sum_{k in A} fw_k(x)^2 + sum_{k not in A} bw_k(x)^2, A = {pi(i) : s_i = +1},
and its backward stack F_{A^c}(x).  So K = h^n / 2 sum_r w_grad(r) / |Stab r|
sum_A c_A psi(F_A(r)) over one interior node r per lattice orbit, c_A the
number of g with A_g = A or A_g^c = A (symmetric criticality, Palais)."""

import numpy as np

from .lattice import interior_images
from .symmetry import SymmetryConfig
from .variational import DiscreteEnergy, _BinPass


class _OrbitPass(_BinPass):
    """``_BinPass`` with K on the representatives: the sum is K on the class, so
    its node gradient, on r and its neighbours, is binned and pulled back with B's."""

    def __init__(self, energy: DiscreteEnergy, cfg: SymmetryConfig):
        super().__init__(energy, cfg)
        g, self.h, self.sigma = energy.grid, energy.grid.h, energy._sigma
        inside, full = g.interior, 2 ** g.n - 1
        low, stab, counts = inside.copy(), np.zeros(len(inside)), np.zeros(full + 1)
        for e, moved in interior_images(cfg, g):  # moved: g x
            np.minimum(low, moved, out=low)
            stab += moved == inside
            a = sum(1 << i for i, s in zip(e.perm.source, e.perm.signs) if s > 0)  # A_g
            counts[[a, a ^ full]] += 1.0
        reps = np.flatnonzero(low == inside)  # each orbit's least node
        patterns = np.flatnonzero(counts)
        self.bits = (patterns[:, None] >> np.arange(g.n) & 1).astype(float)  # k in A
        self.weights_k = (counts[patterns, None] * (0.5 * g.cell_volume)
                          * (energy._w_grad_in.take(reps) / stab.take(reps)))
        key = np.append(self.key, self.weights.size)  # off the interior: a zero bin
        self.stencil = np.concatenate([key.take(reps)[None],  # r, then its 2n neighbours
                                       *(key.take(t[:, reps]) for t in g.neighbours)])

    def _kinetic(self, values: np.ndarray, y: np.ndarray) -> tuple:  # K, and its gradient's inputs
        n = self.bits.shape[1]
        ue = np.append(values.ravel(), 0.0).take(self.stencil)
        fw = (ue[1:n + 1] - ue[0]) / self.h
        bw = (ue[0] - ue[n + 1:]) / self.h
        sq = self.bits @ (fw * fw) + (1.0 - self.bits) @ (bw * bw)
        sigma = self.sigma(sq)
        sq *= sigma  # psi(F_A)
        return float(np.sum(self.weights_k * sq)), (fw, bw, sigma)

    def coordinates(self, gradient) -> np.ndarray:
        (fw, bw, sigma), gb, factor, scale = gradient
        ws = self.weights_k * sigma
        gf = (self.bits.T @ ws) * fw  # dK/dfw_k, and below dK/dbw_k, over p
        gw = ((1.0 - self.bits).T @ ws) * bw
        nodes = np.concatenate([np.sum(gw - gf, axis=0)[None], gf, -gw]) * (self.p / self.h)
        binned = np.bincount(self.stencil.ravel(), nodes.ravel(), minlength=gb.size + 1)
        return self._pull_back(binned[:-1].reshape(gb.shape) - factor * gb) / scale
