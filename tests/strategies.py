"""Hypothesis helpers shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from paulidelta import Circuit, GatePlacement
from paulidelta.channels import BuiltinGate, OneQubitGate, RswChannel
from paulidelta.circuit import haar_unitary


def _one_qubit(draw, rng: np.random.Generator, pl: GatePlacement) -> GatePlacement:
    """``pl``, or for a one-qubit placement maybe a DEPOL or a canonical-form
    gate of one to three terms, each with Haar pre and post unitaries."""
    kind = draw(st.sampled_from(("keep", "DEPOL", "RSW"))) if len(pl.wires) == 1 else "keep"
    if kind == "keep":
        return pl
    if kind == "DEPOL":
        # p=1 forgets its input, as RESET does
        return GatePlacement(pl.wires, BuiltinGate("DEPOL", draw(st.just(1.0) | st.floats(0.0, 1.0))))
    terms = [
        (
            float(weight),
            RswChannel(
                draw(st.floats(-1.0, 1.0)),
                draw(st.floats(-1.0, 1.0)),
                draw(st.sampled_from((-1, 1))),
                haar_unitary(2, rng),
                haar_unitary(2, rng),
            ),
        )
        for weight in rng.dirichlet(np.ones(draw(st.integers(1, 3))))
    ]
    return GatePlacement(pl.wires, OneQubitGate(terms))


def mix_one_qubit_gates(draw, circ: Circuit) -> Circuit:
    """``circ`` with some of its one-qubit gates made DEPOL or multi-term
    canonical-form gates, which the builtin random pools never draw."""
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    levels = [[_one_qubit(draw, rng, pl) for pl in level] for level in circ.levels]
    return Circuit(circ.n, circ.T, levels, circ.noise, circ.output_wire)
