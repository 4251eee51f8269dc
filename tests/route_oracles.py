"""Independent routes that only the tests use: quadrature of the resolvent on
a measure's pushforward rule, box quadrature of the kernel for the box
responses, and the tensor-product polar rule of the kernel norms. The
package's own routes are held to these.

(Not named ``oracles``: perfbench's tests and workloads import their own
top-level ``oracles`` module, and one pytest process collects both
directories, so the first one imported would shadow the other.)
"""

import numpy as np

from shimorin_lab._gridquad import geometric_breaks, jacobi_rule, panel_rule, resolvent_sum
from shimorin_lab.kernel import _resolvent, eval_kernel
from shimorin_lab.measure import RadialMeasure
from shimorin_lab.testfns import _BOX_RULE, aligned_testfn, box, indicator_testfn


def quadrature_resolvent(mu: RadialMeasure, w: np.ndarray, derivative: bool) -> np.ndarray:
    """Density part of integral (1 - r w)^-1 d nu (or of integral r (1 - r w)^-2 d nu
    with ``derivative``) on mu's pushforward rule at the default depths, for a
    flat complex array w; independent of the components' own ``resolvent``.
    """
    return resolvent_sum(*mu.pushforward_rule(), w, derivative)


def direct_response(mu: RadialMeasure, family: str, t: float):
    """T f on the disk by box quadrature of the kernel, for evaluation at points.

    It runs on ``testfns._BOX_RULE``, the box rule of the aligned moments, so
    that the series and this cross-check share one integral.
    """
    f = indicator_testfn(t) if family == "indicator" else aligned_testfn(mu, t)
    nodes, weights = box(t).gauss_nodes(*_BOX_RULE)
    fvals = f(nodes)

    def tf(z):
        z = np.asarray(z, dtype=complex)
        flat = z.ravel()
        out = np.empty(flat.shape, dtype=complex)
        for lo in range(0, flat.size, 512):
            sl = slice(lo, lo + 512)
            k = eval_kernel(mu, flat[sl][:, None], nodes[None, :])
            out[sl] = k @ (weights * fvals)
        return out.reshape(z.shape)

    return tf


def tensor_polar(s: float, t: float = 0.0, extra_depth: int = 0, order: int = 8,
                 cut: float = 16.0):
    """Tensor-product polar rule for integral (1 - |lam|^2)^t g dA, g even in
    theta and concentrated at lam = 1/s: every radial panel crosses every
    angular panel.

    Returns (rho, w_rho, theta, w_theta), area factors folded in, so that the
    integral is ~ sum_ij w_rho[i] w_theta[j] g(rho_i e^(i theta_j)). Radial
    breaks 1 - 2^-k, k = 0..d, d = ceil(log2(1/gap)) + 2 + extra_depth, gap =
    1 - s, then a last panel [1 - 2^-d, 1] that is Gauss-Jacobi in v = 1 - rho
    and carries v^t of (1 - rho^2)^t = v^t (2 - v)^t exactly; angular panels
    double away from a first panel [0, gap/cut] on [0, pi], weights divided by
    pi. At the defaults it is the rule the kernel norms used before the
    corner-graded one.
    """
    gap = max(1.0 - s, 1e-15)
    depth = int(np.ceil(-np.log2(gap))) + 2 + extra_depth
    breaks = 1.0 - 2.0 ** (-np.arange(depth + 1, dtype=float))
    rho, g = panel_rule(breaks, order)
    g *= (1.0 - rho * rho) ** t
    h = 1.0 - breaks[-1]
    x, gj = jacobi_rule(order, t)
    v = h * x
    rho = np.concatenate((rho, 1.0 - v))
    w_rho = np.concatenate((g, h ** (t + 1.0) * gj * (2.0 - v) ** t)) * 2.0 * rho
    theta, w_theta = panel_rule(np.concatenate(([0.0], geometric_breaks(gap / cut, np.pi))),
                                order)
    return rho, w_rho, theta, w_theta / np.pi


def tensor_kernel_lp_norm(mu: RadialMeasure, s: float, p: float) -> float:
    """L^p norm of K(s, .) on ``tensor_polar`` six octaves deeper, at Gauss
    order 16, with the first angular panel [0, gap/256]; 64 radii at a time."""
    rho, w_rho, theta, w_theta = tensor_polar(s, 0.0, 6, 16, 256.0)
    phase = np.exp(-1j * theta)
    total = 0.0
    for lo in range(0, rho.size, 64):
        w = s * rho[lo:lo + 64, None] * phase
        total += w_rho[lo:lo + 64] @ np.abs(_resolvent(mu, w) / (1.0 - w)) ** p @ w_theta
    return total ** (1.0 / p)
