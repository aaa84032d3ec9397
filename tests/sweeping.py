"""One sweep run subdomain after subdomain in the time domain: the test reference.

``oswr.schwarz._Sweep`` holds a sweep of the iteration as causal kernels
on its state and builds them subdomain by subdomain.  This is the sweep
those kernels stand for, run on the whole Robin-data error: each
subdomain transforms the rows it reads, forms its deviation at its Robin
ends and writes the exchanged rows, under Gauss-Seidel reading the row
its left neighbor has just written.  It is the sweep the library once
built its kernels from, with the same arithmetic.  The layout of the
error is that of ``_Sweep``: row 2i feeds the right end of subdomain i,
row 2i + 1 the left end of subdomain i + 1.
"""

import numpy as np

from oswr.schwarz import _SubdomainResponse


class TimeDomainSweep:
    """The map T from one Robin-data error to the next, indexed [..., row, level]."""

    def __init__(self, problem, decomposition, params, sweep):
        self.gauss_seidel = sweep == "gauss_seidel"
        sigmas = np.array([s for p in params for s in (p.sigma1, p.sigma2)])
        rows = np.arange(len(sigmas))
        self.sums = (sigmas + sigmas[rows ^ 1])[:, None]
        self.rows = [rows[max(2 * j - 1, 0) : 2 * j + 1] for j in range(decomposition.n_subdomains)]
        padded = [None, *sigmas.tolist(), None]
        self.responses = [
            _SubdomainResponse(problem, mesh, ends)
            for mesh, ends in zip(decomposition.submeshes, zip(padded[::2], padded[1::2]))
        ]

    def apply(self, delta):
        """T delta and each subdomain's input spectrum; ``delta`` is only read.

        Leading axes of ``delta`` are a batch of errors, swept at once.
        """
        out = delta.copy()
        source = out if self.gauss_seidel else delta
        g_hats = []
        for response, rows in zip(self.responses, self.rows):
            series = source[..., rows, :]
            g_hats.append(response.transform(series))
            ends = response.rows(g_hats[-1], response.interface_rows)
            out[..., rows ^ 1, :] = self.sums[rows] * ends - series
        return out, g_hats
