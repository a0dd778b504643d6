"""Reference implementations: the scalar oracles of the production pipeline.

The original per-rank and per-message Python code of the halo builder
(:mod:`.halo`), the torus network simulator with its hop-by-hop
dimension-ordered routes (:mod:`.netsim`), the fold
primitives (:mod:`.folding`) and the mapping heuristics and metrics
(:mod:`.mapping`), kept unchanged as the oracle that the parity suites,
the ``netsim-parity`` verify oracle and the benchmarks' scalar baselines
call by name. Production code never imports this package.
"""
