"""Independent routes that only the tests use: quadrature of the resolvent on
a measure's pushforward rule, and box quadrature of the kernel for the box
responses. The package's own routes are held to these.

(Not named ``oracles``: perfbench's tests and workloads import their own
top-level ``oracles`` module, and one pytest process collects both
directories, so the first one imported would shadow the other.)
"""

import numpy as np

from shimorin_lab._gridquad import resolvent_sum
from shimorin_lab.kernel import _cached_rule, eval_kernel
from shimorin_lab.measure import RadialMeasure
from shimorin_lab.testfns import _BOX_RULE, aligned_testfn, box, indicator_testfn


def quadrature_resolvent(mu: RadialMeasure, w: np.ndarray, derivative: bool) -> np.ndarray:
    """Density part of integral (1 - r w)^-1 d nu (or of integral r (1 - r w)^-2 d nu
    with ``derivative``) on mu's pushforward rule at the default depths, for a
    flat complex array w; independent of the components' own ``resolvent``.
    """
    return resolvent_sum(*_cached_rule(mu), w, derivative)


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
