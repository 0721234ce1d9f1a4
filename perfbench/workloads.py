"""The benchmark's workloads: which instances each one certifies, and why.

A workload is a list of shapes.  Each shape is a generator family and size
with a fixed pool of generator seeds 0..pool-1, and one pass of a run
certifies every instance of every pool.  The workload seed

  * rotates each pool: a pass starts at generator seed ``seed mod pool`` and
    takes consecutive seeds from there, wrapping around, so no seed is
    skipped;
  * draws for every instance a symmetry of the problem: a sign flip of some
    rows of (A, b).

The losses are sums over rows of even functions of a_i x - b_i (quadratic,
huber) or of b_i a_i x (logistic), so the flip keeps the objective, while
the bytes the solver sees differ from seed to seed.  Negation is exact in
floating point and A^T A is unchanged term by term, so every iterate is the
seed-0 iterate with some dual signs flipped: the optimum, the search tree and
the work repeat exactly.  Flipping columns would change the power iteration
for ||A|| (it starts from a fixed vector) and permuting rows would reorder
sums; either changes, through rounding, the iteration counts of the logistic
solves.  Per-instance cost is heavy-tailed (one seed of a shape can take 15
times another), so sampling fresh generator seeds per workload seed would
make runs on different seeds incomparable; certifying the same pools keeps
them comparable, and lets the objectives pinned in references.json serve
every seed.
"""

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from l0bfs import GenSpec, Instance, generate, make_loss


@dataclass(frozen=True)
class Shape:
    family: str
    d: int
    k: int
    pool: int
    n: Optional[int] = None     # None: the generator's default n
    solver: str = "bfs"         # "bfs" (bfs_solve) or "enum" (exhaustive_solve)
    enumerable: bool = True     # references come from enumeration, else from bfs

    def spec(self, gen_seed):
        return GenSpec(self.family, self.d, self.k, gen_seed, n=self.n)


@dataclass(frozen=True)
class Workload:
    shapes: tuple
    # percentile reported as solve_s_tail; fixed per workload so that runs
    # with different pass counts report the same percentile.  Per-instance
    # costs differ far more than repeats of one instance, so the solve times
    # of a run, whole passes over the instances, form one block per instance,
    # and a percentile on the edge of a block is its maximum or minimum,
    # which swings with a single outlier.  Odd instance counts put p50
    # mid-block, and each tail percentile lies inside a block (p97 of 25
    # instances is 25% into the costliest).
    tail_pct: int


WORKLOADS = {
    # ROADMAP's default ladder.  15-80 ms per solve; huber time goes mostly
    # to restricted solves and top-k prox, and the wide d=100 tree makes the
    # search and node overhead visible.
    "planted": Workload((
        Shape("huber", 30, 3, pool=9),
        Shape("huber", 60, 4, pool=8, enumerable=False),
        Shape("quadratic", 100, 5, pool=8, enumerable=False),
    ), tail_pct=97),
    # Low-sample (n = d) cases: deep trees for their size, where the top-k
    # prox dominates, with a heavy per-instance tail (12-136 subtree calls
    # per solve).  Shrunk from d=24 k=5, where one instance can take a
    # minute.  At d=11 k=4 a run held four passes over nine instances, and
    # p50 and the tail each rested on four solves of one instance; d=10 k=3
    # fits five passes over seventeen instances in the same time.
    "hard": Workload((
        Shape("huber", 10, 3, pool=9, n=10),
        Shape("quadratic", 10, 3, pool=8, n=10),
    ), tail_pct=74),
    # Logistic loss: the Newton prox inside LogisticLoss.prox_conjugate
    # takes most of the time (ROADMAP direction 2).  A prox call costs about
    # the same at d=10 k=2 as at the d=20 k=3 of the ROADMAP default, but the
    # trees are small (13-47 calls), so a run holds five or more passes.  At
    # k=3 one instance of the pool took 40% of a pass and its median set the
    # run's figures; at k=2 the costliest takes under a fifth.
    "logistic": Workload((
        Shape("logistic", 10, 2, pool=9),
    ), tail_pct=72),
    # exhaustive_solve: 455-1,140 cold restricted solves per instance and no
    # search, subtree, top-k or dual prox work, so a restricted-layer change
    # that adds per-call cost shows here.
    "enum": Workload((
        Shape("huber", 20, 3, pool=4, solver="enum"),
        Shape("quadratic", 20, 3, pool=5, solver="enum"),
        Shape("logistic", 15, 3, pool=4, solver="enum"),
    ), tail_pct=80),
}


@dataclass(frozen=True)
class Case:
    """One instance of a pass: the transformed inputs of a pool instance."""

    name: str            # instance_id of the untransformed generator output
    solver: str
    A: np.ndarray
    loss: object
    lam: float
    k: int

    def instance(self):
        """A fresh Instance, so no cached op_norm or A^T carries over."""
        return Instance(self.A, self.loss, self.lam, self.k)


def _symmetry(gen, rng):
    inst = gen.instance
    rows = rng.choice((-1.0, 1.0), size=inst.n)
    A = inst.A * rows[:, None]
    b = inst.loss.b * rows
    return A, make_loss(inst.loss.kind, b, delta=gen.spec.delta)


def build_cases(workload, seed):
    """The workload's pass for this seed, plus the time spent in generate()."""
    cases, generate_s = [], 0.0
    for si, shape in enumerate(WORKLOADS[workload].shapes):
        for i in range(shape.pool):
            gen_seed = (seed + i) % shape.pool
            t0 = time.perf_counter()
            gen = generate(shape.spec(gen_seed))
            generate_s += time.perf_counter() - t0
            rng = np.random.default_rng([seed, si, gen_seed])
            A, loss = _symmetry(gen, rng)
            spec = gen.spec.resolved()
            cases.append(Case(gen.instance_id, shape.solver, A, loss,
                              spec.lam, spec.k))
    return cases, generate_s
