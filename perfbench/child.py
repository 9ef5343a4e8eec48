"""One benchmark operation in its own process.

    python perfbench/child.py [--trace PATH] cli ARGS...   # coreperim CLI
    python perfbench/child.py [--trace PATH] lib NAME      # library script

Untraced CLI operations do not come here: the harness runs them as
`python -m coreperim.cli`, exactly as users do.  With --trace the layer
wrappers are installed before the command starts, and the spans are written
to PATH as JSON when it ends, also when it raises.  stdout, stderr and the
exit status stay those of the plain command.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter


def bernoulli() -> int:
    """Bernoulli splits of the match-count polynomial over the workload grid."""
    from coreperim import polya
    from workloads import BERNOULLI_D, BERNOULLI_N

    for n in BERNOULLI_N:
        for d in BERNOULLI_D:
            s = polya.bernoulli_decomposition(n, d)
            brackets = ";".join(f"{lo}:{hi}" for lo, hi in s.certificate.brackets)
            print(f"n={n} d={d} roots={list(s.roots)!r} p={list(s.probabilities)!r} "
                  f"err={s.reconstruction_error!r} brackets={brackets}")
    return 0


LIB_OPS = {"bernoulli": bernoulli}


def run(argv: list[str]) -> int:
    if argv[0] == "cli":
        from coreperim import cli

        return cli.main(argv[1:])
    return LIB_OPS[argv[1]]()


def main(argv: list[str]) -> int:
    if argv[0] != "--trace":
        return run(argv)
    from tracer import Tracer

    path, argv = argv[1], argv[2:]
    with Tracer() as tracer:
        t0 = perf_counter()
        try:
            return run(argv)
        finally:
            report = tracer.report()
            report["command_s"] = perf_counter() - t0
            with open(path, "w") as fh:
                json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
