"""The three serving workloads: inputs, models, batch policy and rounds.

Each workload is a closed loop driven by one client thread against one
pool worker.  The client submits whole *rounds* of requests and keeps
``rounds_in_flight`` rounds outstanding: it waits for the oldest round,
then submits the next.  A round is a whole number of full batches, so
every batch the timed phase executes is full and uses the same compiled
row buckets that set-up warmed.

``prepare`` makes everything that only feeds the system inputs (payload
pools, datasets, host fp32 training); it is not part of set-up time.
``build`` is the set-up work a deployment pays: lowering, quantization
and partition planning of every served model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.nn import make_shapes, make_small_cnn, train
from repro.nn.transformer import TransformerConfig
from repro.serve import (
    BatchPolicy,
    ShardedCnnServeModel,
    TransformerMlpServeModel,
)

#: payloads per pool; requests cycle through it
POOL_SIZE = 256

#: the decode FFN shape of every MLP model here (d_model 32, d_ff 64)
MLP_SHAPE = TransformerConfig(
    d_model=32, n_heads=4, d_ff=64, seq_len=16, n_layers=1, vocab=128
)

#: a batch policy whose delay never fires in a round-based closed loop:
#: every batch releases full, so row buckets never change mid-run
FULL_BATCH_DELAY_S = 0.25


@dataclass
class Prepared:
    """Untimed inputs: the payload pool plus anything models train on."""

    seed: int
    payloads: np.ndarray
    data: object = None
    cnn: object = None


@dataclass(frozen=True)
class Workload:
    name: str
    #: chips each pool worker owns (a ring when > 1)
    n_chips: int
    max_batch: int
    #: requests submitted per round (a whole number of full batches)
    round_size: int
    rounds_in_flight: int
    cache_capacity: int
    #: timed lookups all hit (and replay) rather than all miss (and record)
    expect_hits: bool
    prepare: Callable[[int], Prepared]
    build: Callable[[object, Prepared], list]
    #: request index -> (model name, payload index)
    route: Callable[[int], tuple[str, int]]

    @property
    def policy(self) -> BatchPolicy:
        return BatchPolicy(
            max_batch=self.max_batch, max_delay_s=FULL_BATCH_DELAY_S
        )


# ----------------------------------------------------------------------
# decode: batch-1 token vectors through one transformer FFN


def _prepare_tokens(seed: int) -> Prepared:
    rng = np.random.default_rng(seed)
    return Prepared(seed, rng.standard_normal((POOL_SIZE, MLP_SHAPE.d_model)))


def _build_decode(config, prepared: Prepared) -> list:
    return [
        TransformerMlpServeModel(
            "decode", MLP_SHAPE, config, seed=prepared.seed,
            max_vectors_per_program=16,
        )
    ]


# ----------------------------------------------------------------------
# vision-ring3: a small CNN pipeline-partitioned over a 3-chip ring


def _prepare_vision(seed: int) -> Prepared:
    data = make_shapes(
        n_train=96, n_test=POOL_SIZE, image_size=8, n_classes=3,
        noise=0.08, seed=seed,
    )
    cnn = make_small_cnn(3, channels=4, image_size=8, seed=seed)
    train(cnn, data, epochs=2, lr=0.1, seed=seed)
    return Prepared(seed, data.x_test, data=data, cnn=cnn)


def _build_vision(config, prepared: Prepared) -> list:
    return [
        ShardedCnnServeModel(
            "vision", prepared.cnn, config,
            calibration=prepared.data.x_train[:32], n_chips=3,
            max_vectors_per_program=32,
        )
    ]


# ----------------------------------------------------------------------
# tenants: 8 MLPs with distinct weights, cycled through a small cache

N_TENANTS = 8
#: below the 16 programs the tenants need (2 layers each), so LRU under
#: the cyclic tenant order evicts every program before its next use
TENANT_CACHE_CAPACITY = 8


def _build_tenants(config, prepared: Prepared) -> list:
    return [
        TransformerMlpServeModel(
            f"tenant{t}", MLP_SHAPE, config,
            seed=prepared.seed * N_TENANTS + t + 1,
            max_vectors_per_program=16,
        )
        for t in range(N_TENANTS)
    ]


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="decode",
            n_chips=1,
            max_batch=16,
            round_size=16,
            rounds_in_flight=2,
            cache_capacity=64,
            expect_hits=True,
            prepare=_prepare_tokens,
            build=_build_decode,
            route=lambda i: ("decode", i % POOL_SIZE),
        ),
        Workload(
            name="vision-ring3",
            n_chips=3,
            max_batch=8,
            round_size=8,
            rounds_in_flight=2,
            cache_capacity=64,
            expect_hits=True,
            prepare=_prepare_vision,
            build=_build_vision,
            route=lambda i: ("vision", i % POOL_SIZE),
        ),
        Workload(
            name="tenants",
            n_chips=1,
            max_batch=4,
            # one batch per tenant, one round outstanding: the worker
            # sees the tenants in the same cyclic order every round
            round_size=4 * N_TENANTS,
            rounds_in_flight=1,
            cache_capacity=TENANT_CACHE_CAPACITY,
            expect_hits=False,
            prepare=_prepare_tokens,
            build=_build_tenants,
            route=lambda i: (
                f"tenant{i % N_TENANTS}", (i // N_TENANTS) % POOL_SIZE
            ),
        ),
    ]
}
