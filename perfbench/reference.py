"""Independent numpy int8 reference for every served output.

It recomputes a lowered model from the runner's :class:`CompiledLayer`
int8 weights and scales and the host glue of :mod:`repro.nn.layers`
(im2col, pooling, flatten), with no chip, compiler, cache or replay
plan involved: quantize with ``rint``/``clip``, multiply in int64,
dequantize, add the bias and apply ReLU.  A served output counts as
correct only when it is ``np.array_equal`` to this.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import im2col
from repro.nn.tsp_inference import CompiledLayer


def _matrix(layer: CompiledLayer, acts: np.ndarray) -> np.ndarray:
    acts_q = np.clip(np.rint(acts / layer.in_scale), -127, 127)
    acc = acts_q.astype(np.int64) @ layer.weight_q.astype(np.int64)
    out = acc.astype(np.float64) * (layer.in_scale * layer.weight_scale)
    out = out + layer.bias
    return np.maximum(out, 0) if layer.relu else out


def reference_forward(runner, x: np.ndarray) -> np.ndarray:
    """Outputs for a batch ``x`` of payloads, one row per payload."""
    current = np.asarray(x, dtype=np.float64)
    n = current.shape[0]
    for layer in runner.layers:
        if not isinstance(layer, CompiledLayer):
            current = layer.forward(current)
        elif layer.kind == "conv":
            conv = layer.conv
            cols, ho, wo = im2col(
                current, conv.kernel, conv.kernel, conv.stride, conv.pad
            )
            current = (
                _matrix(layer, cols).reshape(n, ho, wo, -1)
                .transpose(0, 3, 1, 2)
            )
        else:
            current = _matrix(layer, current.reshape(n, -1))
    return current
