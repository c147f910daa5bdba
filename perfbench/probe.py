"""One small fixed call per traced function, for layers a workload never calls.

A traced run times each layer from the workload's own calls.  A layer the
workload does not use gets one call here at the smallest inputs, so every
per-layer time is a measured figure on every workload.
"""

from __future__ import annotations

import pqosc
from pqosc import calculus, fock, hopf, spectrum, structure

from cli_cold import run_in_process, run_process
from harness import call

DIM = 4
ARGV = ["numbers", "--p", "2", "--q", "3", "--n-max", "4", "--no-timestamp"]


def run(tracer, names: set, root) -> None:
    """Call each function in `names` once, inside its span."""
    params = pqosc.validate(2.0, 3.0, 1.0, 0.0, 1.0)
    rep = fock.build(params, DIM)
    hp = hopf.validate_hopf(2.0, 3.0, 1.0, 1.0, 0.7, 0.7)
    hc = hopf.solve_coefficients(hp)
    hp_t = hopf.validate_hopf(0.5, 3.0, 2.0, 1.0, 1.0, 0.0)  # beta1 - beta2 = l
    rep_t = fock.build(hp_t.base_params(), DIM, 0.0)
    state = [0.0, 1.0, 0.0, 0.0]
    calls = {
        "structure.f_general": (structure.f_general, 3, params),
        "fock.build": (fock.build, params, DIM),
        "fock.check_relations": (fock.check_relations, rep),
        "fock.apply_word": (fock.apply_word, rep, ["a+", "a"], state),
        "calculus.check_realization": (calculus.check_realization, params, [1.0]),
        "spectrum.spectrum_table": (spectrum.spectrum_table, params, DIM),
        "spectrum.check_pq_inversion": (spectrum.check_pq_inversion, params, DIM),
        "hopf.solve_coefficients": (hopf.solve_coefficients, hp),
        "hopf.check_constraints": (hopf.check_constraints, hc, hp),
        "hopf.check_coassociativity": (hopf.check_coassociativity, rep, hc),
        "hopf.check_counit": (hopf.check_counit, hc, rep),
        "hopf.check_antipode": (hopf.check_antipode, hc, rep),
        "hopf.check_homomorphism": (
            hopf.check_homomorphism, rep_t, hopf.solve_coefficients(hp_t), hp_t
        ),
        "report.to_json": (fock.check_relations(rep).to_json,),
    }
    for name in sorted(names):
        if name in calls:
            fn, *args = calls[name]
            call(tracer, name, fn, *args)
    if "cli.run" in names:
        run_in_process(tracer, ARGV)
    if "cli.process" in names:
        run_process(tracer, root, ARGV)
