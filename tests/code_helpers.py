"""Shared helpers for the tests that take codes as parameters.

- :func:`param_id` — a stable pytest id for a code or a plain value;
- :func:`interaction_graph` — a code's ancilla-data interactions,
  weighted by how early each one happens.
"""

from repro.codes.base import StabilizerCode


def param_id(value) -> str:
    """``rotated_surface-d3`` for a code, ``str(value)`` otherwise.

    Pytest joins the ids of a case's values with ``-``, so a
    ``(code, capacity, topology)`` case reads ``rotated_surface-d3-2-grid``
    on every run.
    """
    if isinstance(value, StabilizerCode):
        return f"{value.name}-d{value.distance}"
    return str(value)


def interaction_graph(code: StabilizerCode) -> dict[tuple[int, int], int]:
    """Qubit interactions weighted by how early each one happens.

    Maps ``(ancilla, data)`` to the summed weight (num_layers - layer)
    of the CX layers joining the pair, so first-layer interactions
    carry the highest weight.
    """
    weights: dict[tuple[int, int], int] = {}
    layers = code.num_layers
    for check in code.checks:
        for layer, data in enumerate(check.data_by_layer):
            if data is not None:
                key = (check.ancilla, data)
                weights[key] = weights.get(key, 0) + layers - layer
    return weights
