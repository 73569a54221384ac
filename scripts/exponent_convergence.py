#!/usr/bin/env python3
"""Local exponent slopes of the cusp lower-bound families on doubling windows.

For P_k and Q_k on the cusped domain, the ratio of the cusp derivative to
the sup (k^5/4 over sup|P_k|, k^5 over sup|Q_k|) comes from
`analysis.extremal_rows` at k = kmin, 2 kmin, ..., up to kmax. For each
window k -> 2k this prints the slope of log ratio against log k and against
log degree (5k - 4 and 5k - 3). The claimed exponent is 4. Fits over
widening ranges approach it from below (criterion 4 reads 3.69 on
k = 4..20), and so do the local slopes against degree; the local slopes
against k approach it from above (4.0149 on 10 -> 20, 4.0000 on 320 -> 640).

The sups are exact 1-D slice reductions, and the two families share the
same sup, so their slopes against k agree. The whole run takes a few
seconds and needs no mpmath.

Usage:
    python3 scripts/exponent_convergence.py [--kmin 10] [--kmax 640]
"""

import argparse
import math
import sys

from markovlab.analysis import extremal_rows
from markovlab.domains import koornwinder
from markovlab.norms import NormSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kmin", type=int, default=10)
    ap.add_argument("--kmax", type=int, default=640)
    args = ap.parse_args()
    if args.kmin < 1 or args.kmax < 2 * args.kmin:
        ap.error("need 1 <= kmin and 2 kmin <= kmax")

    ks = [args.kmin]
    while 2 * ks[-1] <= args.kmax:
        ks.append(2 * ks[-1])
    spec = NormSpec(math.inf, koornwinder())

    print(f"{'family':>6s} {'window':>12s} {'slope vs k':>11s} {'slope vs deg':>13s}")
    for family in ("pk", "qk"):
        rows = extremal_rows(family, ks, spec)
        for a, b in zip(rows, rows[1:]):
            rise = math.log(b.ratio / a.ratio)
            window = f"{a.index}->{b.index}"
            print(
                f"{family:>6s} {window:>12s} {rise / math.log(b.index / a.index):11.4f} "
                f"{rise / math.log(b.degree / a.degree):13.4f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
